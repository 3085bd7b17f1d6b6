#include "core/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/logging.hh"

namespace redeye {

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    sumSq_ += x * x;
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStat::meanSquare() const
{
    if (count_ == 0)
        return 0.0;
    return sumSq_ / static_cast<double>(count_);
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
percentile(std::vector<double> values, double p)
{
    fatal_if(values.empty(), "percentile of an empty sample set");
    fatal_if(p < 0.0 || p > 100.0, "percentile rank out of range: ",
             p);
    const double rank = p / 100.0 *
                        static_cast<double>(values.size() - 1);
    const auto lo_idx = static_cast<std::size_t>(rank);
    const std::size_t hi_idx =
        std::min(lo_idx + 1, values.size() - 1);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(lo_idx),
                     values.end());
    const double lo_val = values[lo_idx];
    if (hi_idx == lo_idx)
        return lo_val;
    // nth_element leaves [lo_idx+1, end) all >= lo_val; the next
    // order statistic is its minimum.
    const double hi_val = *std::min_element(
        values.begin() + static_cast<std::ptrdiff_t>(hi_idx),
        values.end());
    const double frac = rank - static_cast<double>(lo_idx);
    return lo_val + frac * (hi_val - lo_val);
}

double
measureSnrDb(const std::vector<float> &clean,
             const std::vector<float> &noisy)
{
    panic_if(clean.size() != noisy.size(),
             "SNR operands differ in size: ", clean.size(), " vs ",
             noisy.size());

    double signal = 0.0;
    double noise = 0.0;
    for (std::size_t i = 0; i < clean.size(); ++i) {
        const double s = clean[i];
        const double n = static_cast<double>(noisy[i]) - s;
        signal += s * s;
        noise += n * n;
    }
    if (noise == 0.0)
        return std::numeric_limits<double>::infinity();
    if (signal == 0.0)
        return -std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(signal / noise);
}

} // namespace redeye
