#include "tensor/tensor.hh"

#include <algorithm>
#include <cmath>

#include "core/lanes.hh"
#include "core/logging.hh"
#include "core/rng.hh"

namespace redeye {

Tensor::Tensor(const Shape &shape) : shape_(shape), data_(shape.size())
{
}

Tensor::Tensor(const Shape &shape, float fill_value)
    : shape_(shape), data_(shape.size(), fill_value)
{
}

Tensor::Tensor(const Shape &shape, std::vector<float> data)
    : shape_(shape), data_(std::move(data))
{
    panic_if(data_.size() != shape_.size(),
             "tensor data size ", data_.size(), " != shape ",
             shape_.str());
}

float &
Tensor::checkedAt(std::size_t n, std::size_t c, std::size_t h,
                  std::size_t w)
{
    panic_if(n >= shape_.n || c >= shape_.c || h >= shape_.h ||
                 w >= shape_.w,
             "tensor index (", n, ",", c, ",", h, ",", w,
             ") out of bounds for ", shape_.str());
    return at(n, c, h, w);
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    for (auto &x : data_)
        x = static_cast<float>(rng.uniform(lo, hi));
}

void
Tensor::fillGaussian(Rng &rng, float mean, float stddev)
{
    for (auto &x : data_)
        x = static_cast<float>(rng.gaussian(mean, stddev));
}

Tensor
Tensor::reshaped(const Shape &shape) const
{
    panic_if(shape.size() != size(), "reshape ", shape_.str(), " -> ",
             shape.str(), " changes element count");
    return Tensor(shape, data_);
}

Tensor
Tensor::slice(std::size_t batch_index) const
{
    panic_if(batch_index >= shape_.n, "slice index ", batch_index,
             " out of range for ", shape_.str());
    Shape s(1, shape_.c, shape_.h, shape_.w);
    const std::size_t stride = shape_.sliceSize();
    std::vector<float> out(data_.begin() + batch_index * stride,
                           data_.begin() + (batch_index + 1) * stride);
    return Tensor(s, std::move(out));
}

void
Tensor::sliceInto(std::size_t batch_index, Tensor &out) const
{
    panic_if(batch_index >= shape_.n, "slice index ", batch_index,
             " out of range for ", shape_.str());
    out.shape_ = Shape(1, shape_.c, shape_.h, shape_.w);
    const std::size_t stride = shape_.sliceSize();
    out.data_.assign(data_.begin() + batch_index * stride,
                     data_.begin() + (batch_index + 1) * stride);
}

double
Tensor::sum() const
{
    double acc = 0.0;
    for (float x : data_)
        acc += x;
    return acc;
}

double
Tensor::mean() const
{
    if (data_.empty())
        return 0.0;
    return sum() / static_cast<double>(data_.size());
}

float
Tensor::absMax() const
{
    // A lane reduction: each lane keeps the largest |x| of its stride,
    // then the lanes fold into one. Every step keeps m unless |x| > m,
    // as std::max(m, std::fabs(x)) does, so a NaN never wins, and the
    // largest of the rest does not depend on the order of the steps.
    using lanes::F32;
    using lanes::I32;
    constexpr std::size_t kAccumulators = 4;
    constexpr std::size_t kStep = kAccumulators * lanes::kWidth;
    const float *p = data_.data();
    const std::size_t n = data_.size();
    F32 lane_max[kAccumulators] = {};
    std::size_t i = 0;
    for (; i + kStep <= n; i += kStep) {
        for (std::size_t a = 0; a < kAccumulators; ++a) {
            F32 x{};
            lanes::load(x, p + i + a * lanes::kWidth);
            x = (F32)((I32)x & 0x7fffffff); // |x|: sign bits cleared
            lane_max[a] = lane_max[a] < x ? x : lane_max[a];
        }
    }
    float m = 0.0f;
    for (const F32 &v : lane_max) {
        for (std::size_t l = 0; l < lanes::kWidth; ++l)
            m = std::max(m, v[l]);
    }
    for (; i < n; ++i)
        m = std::max(m, std::fabs(p[i]));
    return m;
}

void
Tensor::scale(float factor)
{
    for (auto &x : data_)
        x *= factor;
}

void
Tensor::add(const Tensor &other)
{
    axpy(1.0f, other);
}

void
Tensor::axpy(float alpha, const Tensor &other)
{
    panic_if(other.size() != size(), "axpy size mismatch: ",
             shape_.str(), " vs ", other.shape().str());
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += alpha * other.data_[i];
}

void
Tensor::clamp(float lo, float hi)
{
    for (auto &x : data_)
        x = std::clamp(x, lo, hi);
}

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    panic_if(a.size() != b.size(), "maxAbsDiff size mismatch");
    float m = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

} // namespace redeye
