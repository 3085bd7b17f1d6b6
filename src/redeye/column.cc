#include "redeye/column.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "core/lanes.hh"
#include "core/logging.hh"
#include "tensor/kernels.hh"

namespace redeye {
namespace arch {

namespace {

analog::MemoryCellParams
bufferParamsFor(double snr_db)
{
    analog::MemoryCellParams p;
    p.holdCapF = analog::dampingCapForSnr(snr_db);
    // The read buffer is sized with the rest of the fidelity mode:
    // its noise is kT/C-limited too.
    p.bufferNoiseRms *= std::sqrt(analog::kAnchorDampingCapF /
                                  p.holdCapF);
    return p;
}

/**
 * Weight @p w as a column whose weight bank has magnitude bit @p bit
 * stuck at @p high realizes it; the sign is kept.
 */
int
stuckWeight(int w, int bit, bool high)
{
    int mag = std::abs(w);
    mag = high ? mag | (1 << bit) : mag & ~(1 << bit);
    return w < 0 ? -mag : mag;
}

/** Quantize @p w to signed @p bits-bit integers; returns the scale. */
double
quantizeKernel(const Tensor &w, unsigned bits, std::vector<int> &wq)
{
    const double w_scale = std::max(
        1e-12, static_cast<double>(w.absMax()));
    const int w_max = (1 << (bits - 1)) - 1;
    wq.resize(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
        wq[i] = static_cast<int>(
            std::lround(w[i] / w_scale * static_cast<double>(w_max)));
    }
    return w_scale;
}

/**
 * Signal conditioning of one conv call. The controller programs a
 * per-layer gain (feedback-capacitor sizing) so that the accumulated
 * output exercises, but does not exceed, the analog swing; it is
 * derived from the layer's digital reference range, as a calibration
 * pass would.
 */
struct ConvGain {
    double inScale;   ///< input value held at full swing
    double kIn;       ///< input value -> MAC input [V]
    double outFactor; ///< MAC output [V] -> value
};

ConvGain
convGain(double in_abs_max, double w_scale, double ref_abs_max,
         unsigned weight_bits, double swing, double sys_gain)
{
    ConvGain g;
    g.inScale = std::max(1e-12, in_abs_max);
    const double out_amax = std::max(1e-9, ref_abs_max);
    // Input scaling into the MAC such that full-range outputs land
    // at +-swing: out_volts = sum (w_int / 2^(b-1)) * (k * value).
    const int w_max = (1 << (weight_bits - 1)) - 1;
    const double denom = static_cast<double>(1 << (weight_bits - 1));
    g.kIn = denom * w_scale * swing /
            (static_cast<double>(w_max) * out_amax);
    // The controller's gain calibration divides out the known
    // systematic settling/finite-gain attenuation of the MAC.
    g.outFactor = out_amax / (swing * sys_gain);
    return g;
}

/** The kernel as one column realizes it, and its products. */
struct WeightBank {
    int stuckBit = -1; ///< stuck magnitude bit; -1 = as quantized
    bool stuckHigh = false;
    std::vector<float> weights;  ///< integer weights [M x K]
    std::vector<float> gains2;   ///< squared tap gains [M x K]
    std::vector<double> tapVar;  ///< summed tap sampling var, per oc
    std::uint64_t activeBits = 0; ///< set capacitor bits, all weights
    std::vector<float> charge;   ///< sum w * held sample [M x P];
                                 ///< bank 0's is in the output
    std::vector<float> readVar;  ///< sum gain^2 * read var [M x P]
    bool readVarStale = true;    ///< readVar predates gains2 or the map
};

/**
 * What the banks' readVar products were computed from, besides each
 * bank's gains2: the lowering's geometry, each input column's read
 * variance, and the GEMM backend, whose two kernels sum in different
 * orders.
 */
struct ReadVarKey {
    Shape in;
    WindowParams window;
    kernels::Backend backend = kernels::Backend::Blocked;
    std::vector<double> columnVar; ///< per input column, relative

    bool
    matches(const Shape &is, const WindowParams &w, kernels::Backend b,
            const std::vector<double> &column_var) const
    {
        return in == is && window == w && backend == b &&
               columnVar.size() == column_var.size() &&
               std::memcmp(columnVar.data(), column_var.data(),
                           column_var.size() * sizeof(double)) == 0;
    }
};

/**
 * Buffers of the closed-form engines, one set per thread and kept
 * across calls: the serving path builds a device per frame, so
 * buffers owned by the array would be reallocated every frame. Row
 * buffers hold one output row, padded to whole lane vectors.
 */
struct Scratch {
    std::vector<Shape> shapes = std::vector<Shape>(1); ///< layer input
    std::vector<int> wq;             ///< quantized kernel [M x K]
    std::vector<float> pixels;       ///< staged frame [C x H x W]
    std::vector<float> cols;         ///< its lowering [K x P]
    std::vector<double> droop;       ///< per input column
    std::vector<double> readVar;     ///< per input column, relative
    std::vector<float> tapGain2;     ///< squared tap gain, per |w|
    std::vector<double> tapNoise;    ///< tap sampling noise rms, per |w|
    ReadVarKey readVarKey;           ///< inputs of the banks' readVar
    std::vector<std::size_t> bankOf; ///< per output column
    std::vector<WeightBank> banks = std::vector<WeightBank>(1);
    std::vector<double> offsetV;     ///< per output column, padded
    std::vector<long long> dead;     ///< per output column, padded:
                                     ///< -1 where it rails
    std::vector<double> tapVar;      ///< one row's tapVar, padded
    std::vector<double> mean;        ///< one row's means [V], padded
    std::vector<double> sd;          ///< one row's sigmas [V], padded
    std::vector<std::uint32_t> drawn; ///< one row's undecided columns
    std::vector<std::uint32_t> tapColumn; ///< pooling tap sources
    std::vector<long long> tapValid; ///< ... and their lane masks
    std::vector<analog::DecisionLanes> tallies; ///< per lane vector
    std::vector<float> levels;       ///< readout value per ADC code
};

Scratch &
scratch()
{
    thread_local Scratch s;
    return s;
}

/** Lane vectors covering @p n output columns. */
std::size_t
laneVectors(std::size_t n)
{
    return (n + lanes::kWidth - 1) / lanes::kWidth;
}

} // namespace


ColumnArray::Column::Column(const ColumnArrayConfig &config,
                            const analog::ProcessParams &process,
                            Rng &rng)
    : mac(analog::MacParams{8, config.weightBits, 20e-15,
                            analog::OpAmpParams{}},
          process),
      buffer(bufferParamsFor(config.convSnrDb), process),
      comparator(analog::ComparatorParams{}, process),
      adc(analog::SarAdcParams{}, process, rng)
{
    mac.setSnrDb(config.convSnrDb);
    adc.setResolution(config.adcBits);
}

ColumnArray::ColumnArray(ColumnArrayConfig config,
                         analog::ProcessParams process, Rng rng)
    : config_(config), process_(process), rng_(rng)
{
    fatal_if(config_.columns == 0, "column array cannot be empty");
    fatal_if(config_.adcBits < 1 || config_.adcBits > 10,
             "ADC bits must be in [1, 10]");
    cols_.reserve(config_.columns);
    for (std::size_t i = 0; i < config_.columns; ++i)
        cols_.emplace_back(config_, process_, rng_);
}

void
ColumnArray::setConvSnrDb(double snr_db)
{
    config_.convSnrDb = snr_db;
    for (auto &col : cols_) {
        col.mac.setSnrDb(snr_db);
        col.buffer.setParams(bufferParamsFor(snr_db));
    }
}

void
ColumnArray::setAdcBits(unsigned bits)
{
    fatal_if(bits < 1 || bits > 10, "ADC bits must be in [1, 10]");
    config_.adcBits = bits;
    for (auto &col : cols_)
        col.adc.setResolution(bits);
}

void
ColumnArray::armFaults(const fault::FaultModel *faults,
                       std::uint64_t frame)
{
    fatal_if(faults && faults->columns() != cols_.size(),
             "fault model covers ", faults ? faults->columns() : 0,
             " columns, array has ", cols_.size());
    faults_ = faults;
    faultFrame_ = frame;
}

void
ColumnArray::setColumnMap(std::vector<std::size_t> map)
{
    for (std::size_t p : map) {
        fatal_if(p >= cols_.size(), "column map entry ", p,
                 " out of range for ", cols_.size(), " columns");
    }
    map_ = std::move(map);
}

const fault::ColumnFaults *
ColumnArray::activeFaults(std::size_t physical) const
{
    if (!faults_)
        return nullptr;
    const fault::ColumnFaults &f = faults_->column(physical);
    return f.activeAt(faultFrame_) ? &f : nullptr;
}

Tensor
ColumnArray::runConvolution(const Tensor &in,
                            nn::ConvolutionLayer &layer, bool rectify)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");
    Scratch &s = scratch();
    s.shapes.front() = is;
    const Shape os = layer.outputShape(s.shapes);
    const auto &p = layer.convParams();
    fatal_if(p.groups != 1,
             "functional engine does not support grouped convolution");

    const std::size_t kernels_m = os.c;
    const std::size_t taps = is.c * p.kernelH * p.kernelW;
    const std::size_t positions = os.h * os.w;
    const kernels::MatShape kernel_shape{kernels_m, taps};
    const kernels::MatShape cols_shape{taps, positions};
    const WindowParams window{p.kernelH, p.kernelW, p.strideH,
                              p.strideW, p.padH,    p.padW};
    const double swing = process_.signalSwing;
    s.cols.resize(taps * positions);
    // Lower a (C, H, W) frame into s.cols.
    const auto lower = [&](const float *frame) {
        kernels::im2col(frame, is.c, is.h, is.w, window, s.cols.data());
    };
    // Lower a frame whose pixel i (in column x) is value(i, x).
    const auto lower_staged = [&](auto &&value) {
        s.pixels.resize(in.size());
        for (std::size_t i = 0; i < s.pixels.size(); ++i)
            s.pixels[i] = static_cast<float>(value(i, i % is.w));
        lower(s.pixels.data());
    };

    // The digital reference output sets the gain, as
    // layer.forward() would compute it, in the output buffer.
    lower(in.data());
    Tensor out(Shape(1, os.c, os.h, os.w));
    kernels::gemm(layer.weights().data(), kernel_shape, s.cols.data(),
                  cols_shape, out.data(),
                  p.bias ? kernels::Epilogue::biasPerRow(
                               layer.biases().data())
                         : kernels::Epilogue{});
    float ref_max = out.absMax();
    if (layer.outputClip())
        ref_max = std::min(ref_max, *layer.outputClip());
    const double w_scale =
        quantizeKernel(layer.weights(), config_.weightBits, s.wq);
    const analog::MacUnit &mac = cols_.front().mac;
    const ConvGain g =
        convGain(in.absMax(), w_scale, ref_max, config_.weightBits,
                 swing, mac.systematicGain(taps));

    // Input column x is buffered in column physicalFor(x): a leaky
    // cell droops its samples and their write noise.
    const double read_var = cols_.front().buffer.readNoiseVar();
    s.droop.resize(is.w);
    s.readVar.resize(is.w);
    bool leaky = false;
    for (std::size_t x = 0; x < is.w; ++x) {
        const std::size_t pc = physicalFor(x);
        const fault::ColumnFaults *f = activeFaults(pc);
        const double hold = f ? f->extraHoldS : 0.0;
        s.droop[x] = cols_[pc].buffer.droop(hold);
        s.readVar[x] = cols_[pc].buffer.readNoiseVar(hold) / read_var;
        leaky |= hold > 0.0;
    }
    if (leaky) {
        lower_staged([&](std::size_t i, std::size_t x) {
            return in[i] * s.droop[x];
        });
    }

    // Output column x is served by column physicalFor(x): its MAC
    // offset, its railed op amp, and its weight bank. Each stuck
    // weight bit setting among the serving columns gets its own
    // weight bank; bank 0 is the kernel as quantized.
    std::size_t banks = 1;
    const std::size_t padded = laneVectors(os.w) * lanes::kWidth;
    s.bankOf.assign(os.w, 0);
    s.offsetV.assign(padded, 0.0);
    s.dead.assign(padded, 0);
    for (std::size_t ox = 0; ox < os.w; ++ox) {
        const fault::ColumnFaults *f = activeFaults(physicalFor(ox));
        if (!f)
            continue;
        s.offsetV[ox] = f->offsetV;
        s.dead[ox] = f->dead ? -1 : 0;
        if (f->weightStuckBit < 0)
            continue;
        std::size_t &bank = s.bankOf[ox];
        bank = 1;
        while (bank < banks &&
               !(s.banks[bank].stuckBit == f->weightStuckBit &&
                 s.banks[bank].stuckHigh == f->weightStuckHigh))
            ++bank;
        if (bank == banks) {
            if (s.banks.size() == banks)
                s.banks.emplace_back();
            s.banks[banks].stuckBit = f->weightStuckBit;
            s.banks[banks].stuckHigh = f->weightStuckHigh;
            ++banks;
        }
    }

    // Tap statistics of every capacitor level, by magnitude: a weight
    // with a stuck bit 7 reaches |w| = 255, so the table spans
    // maxWeight(), not the quantizer's 127.
    const analog::TunableCapacitor &cap = mac.tunableCap();
    const int top = cap.maxWeight();
    s.tapGain2.resize(static_cast<std::size_t>(top) + 1);
    s.tapNoise.resize(static_cast<std::size_t>(top) + 1);
    for (int m = 0; m <= top; ++m) {
        const double gain = cap.gainFor(m);
        s.tapGain2[m] = static_cast<float>(gain * gain);
        s.tapNoise[m] = cap.outputNoiseRms(m);
    }

    // Per bank: the realized integer weights, their tap statistics,
    // and the noiseless charge of every window.
    for (std::size_t b = 0; b < banks; ++b) {
        WeightBank &bank = s.banks[b];
        if (bank.gains2.size() != kernels_m * taps) {
            bank.gains2.resize(kernels_m * taps);
            bank.readVarStale = true;
        }
        bank.weights.resize(kernels_m * taps);
        bank.tapVar.assign(kernels_m, 0.0);
        bank.activeBits = 0;
        for (std::size_t i = 0; i < bank.weights.size(); ++i) {
            int w = s.wq[i];
            if (bank.stuckBit >= 0)
                w = stuckWeight(w, bank.stuckBit, bank.stuckHigh);
            const int mag = std::abs(w);
            fatal_if(mag > top, "weight ", w, " exceeds the ",
                     config_.weightBits, "-bit capacitor range");
            const double noise = s.tapNoise[mag];
            bank.weights[i] = static_cast<float>(w);
            if (bank.gains2[i] != s.tapGain2[mag]) {
                bank.gains2[i] = s.tapGain2[mag];
                bank.readVarStale = true;
            }
            bank.tapVar[i / taps] += noise * noise;
            bank.activeBits += static_cast<std::uint64_t>(
                std::popcount(static_cast<unsigned>(mag)));
        }
        // Bank 0's charges go to the output tensor, whose reference
        // values have set the gain: the epilogue reads each output's
        // charge before it writes that output.
        float *charge = out.data();
        if (b > 0) {
            bank.charge.resize(kernels_m * positions);
            charge = bank.charge.data();
        }
        kernels::gemm(bank.weights.data(), kernel_shape, s.cols.data(),
                      cols_shape, charge);
    }

    // Buffer read noise of every window, through the tap gains:
    // padding taps read no buffer, and im2col zeroes them. No frame
    // changes a bank's product, only its gains, the map of column
    // read variances, the geometry or the GEMM backend do: it is kept
    // in the Scratch and recomputed when one of them differs.
    const kernels::Backend backend = kernels::backend();
    if (!s.readVarKey.matches(is, window, backend, s.readVar)) {
        s.readVarKey.in = is;
        s.readVarKey.window = window;
        s.readVarKey.backend = backend;
        s.readVarKey.columnVar = s.readVar;
        for (WeightBank &bank : s.banks)
            bank.readVarStale = true;
    }
    bool lowered = false;
    for (std::size_t b = 0; b < banks; ++b) {
        WeightBank &bank = s.banks[b];
        if (!bank.readVarStale)
            continue;
        if (!lowered) {
            lower_staged(
                [&](std::size_t, std::size_t x) { return s.readVar[x]; });
            lowered = true;
        }
        bank.readVar.resize(kernels_m * positions);
        kernels::gemm(bank.gains2.data(), kernel_shape, s.cols.data(),
                      cols_shape, bank.readVar.data());
        bank.readVarStale = false;
    }

    // Energy from the per-tap engine's operation counts: each output
    // is one window on its serving column's MAC, each in-frame tap
    // one write and one read of its source column's buffer.
    for (std::size_t ox = 0; ox < os.w; ++ox) {
        cols_[physicalFor(ox)].mac.accrueWindows(
            kernels_m * os.h, taps,
            os.h * s.banks[s.bankOf[ox]].activeBits);
    }
    std::size_t rows = 0;
    for (std::size_t oy = 0; oy < os.h; ++oy) {
        for (std::size_t ky = 0; ky < p.kernelH; ++ky) {
            const long iy = static_cast<long>(oy * p.strideH + ky) -
                            static_cast<long>(p.padH);
            rows += iy >= 0 && iy < static_cast<long>(is.h);
        }
    }
    for (std::size_t ox = 0; ox < os.w; ++ox) {
        for (std::size_t kx = 0; kx < p.kernelW; ++kx) {
            const long ix = static_cast<long>(ox * p.strideW + kx) -
                            static_cast<long>(p.padW);
            if (ix >= 0 && ix < static_cast<long>(is.w)) {
                cols_[physicalFor(static_cast<std::size_t>(ix))]
                    .buffer.accrueAccesses(kernels_m * is.c * rows);
            }
        }
    }

    // Epilogue: noiseless charge to volts, plus one Gaussian of the
    // window's variance, keyed by this call and the output's index;
    // then bias, the serving column's faults and clipping. An output
    // the clamp fixes even at a draw of +-kKeyedGaussianMaxAbs skips
    // its draw: every rounded step is monotone in the draw, so the
    // bound, written in the draw's shape, decides exactly (DESIGN.md
    // §15). Each output row is two passes: its lanes compute every
    // mean, sigma and clamp decision, then the outputs the clamp
    // leaves undecided draw.
    const analog::MacUnit::WindowStats stats = mac.windowStats(taps);
    const double to_volts =
        g.kIn / static_cast<double>(1 << (config_.weightBits - 1)) *
        stats.gain;
    const double gain2 = stats.gain * stats.gain;
    const double in_volts = g.inScale * g.kIn / swing;
    const double read_scale = read_var * in_volts * in_volts;
    const std::uint64_t key = rng_.raw();
    const double lo = rectify ? 0.0 : -swing;
    s.tapVar.resize(padded);
    s.mean.resize(padded);
    s.sd.resize(padded);
    s.drawn.resize(os.w);
    const WeightBank &bank0 = s.banks.front();
    const lanes::F64 rail_lo = lanes::F64{} + lo;
    const lanes::F64 rail_hi = lanes::F64{} + swing;
    for (std::size_t oc = 0; oc < kernels_m; ++oc) {
        const double bias =
            p.bias ? layer.biases()[oc] / g.outFactor : 0.0;
        for (std::size_t ox = 0; ox < os.w; ++ox)
            s.tapVar[ox] = s.banks[s.bankOf[ox]].tapVar[oc];
        for (std::size_t oy = 0; oy < os.h; ++oy) {
            const std::size_t row = (oc * os.h + oy) * os.w;
            std::size_t drawn = 0;
            for (std::size_t ox = 0; ox < os.w; ox += lanes::kWidth) {
                const std::size_t n =
                    std::min(lanes::kWidth, os.w - ox);
                const std::size_t i = row + ox;
                lanes::F32 charge{};
                lanes::F32 rv{};
                if (banks == 1) {
                    lanes::load(charge, &out[i], n);
                    lanes::load(rv, &bank0.readVar[i], n);
                } else {
                    for (std::size_t l = 0; l < n; ++l) {
                        const std::size_t b = s.bankOf[ox + l];
                        charge[l] = b == 0 ? out[i + l]
                                           : s.banks[b].charge[i + l];
                        rv[l] = s.banks[b].readVar[i + l];
                    }
                }
                lanes::F64 tap_var{};
                lanes::load(tap_var, &s.tapVar[ox]);
                lanes::F64 var =
                    gain2 * (tap_var + read_scale *
                                           __builtin_convertvector(
                                               rv, lanes::F64)) +
                    stats.addedVar;
                const lanes::F64 mean =
                    __builtin_convertvector(charge, lanes::F64) *
                    to_volts;
                lanes::sqrt(var);
                const lanes::F64 &sd = var;
                lanes::store(&s.mean[ox], mean);
                lanes::store(&s.sd[ox], sd);
                lanes::F64 offset{};
                lanes::load(offset, &s.offsetV[ox]);
                lanes::I64 dead{};
                lanes::load(dead, &s.dead[ox]);
                // A dead column's op amp rails at full swing.
                const lanes::I64 low =
                    ~dead & (mean + sd * kKeyedGaussianMaxAbs + bias +
                                 offset <
                             lo);
                const lanes::I64 high =
                    ~dead & ~low &
                    (mean - sd * kKeyedGaussianMaxAbs + bias + offset >
                     swing);
                const lanes::F64 volts = low ? rail_lo : rail_hi;
                lanes::store(&out[i],
                             __builtin_convertvector(volts * g.outFactor,
                                                     lanes::F32),
                             n);
                const lanes::I64 draw = ~dead & ~low & ~high;
                for (std::size_t l = 0; l < n; ++l) {
                    s.drawn[drawn] = static_cast<std::uint32_t>(ox + l);
                    drawn += draw[l] & 1;
                }
            }
            for (std::size_t d = 0; d < drawn; ++d) {
                const std::size_t ox = s.drawn[d];
                const std::size_t i = row + ox;
                const double volts = s.mean[ox] +
                                     s.sd[ox] * keyedGaussian(key, i) +
                                     bias + s.offsetV[ox];
                out[i] = static_cast<float>(std::clamp(volts, lo, swing) *
                                            g.outFactor);
            }
        }
    }
    return out;
}

Tensor
ColumnArray::runConvolutionReference(const Tensor &in,
                                     nn::ConvolutionLayer &layer,
                                     bool rectify)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");
    const Shape os = layer.outputShape({is});
    const auto &p = layer.convParams();
    fatal_if(p.groups != 1,
             "functional engine does not support grouped convolution");

    const double swing = process_.signalSwing;
    const Tensor &w = layer.weights();
    std::vector<int> wq;
    const double w_scale = quantizeKernel(w, config_.weightBits, wq);
    // Output range estimate (value domain) for the gain setting.
    Tensor digital_ref;
    layer.forward({&in}, digital_ref);
    const std::size_t taps = is.c * p.kernelH * p.kernelW;
    const ConvGain g = convGain(in.absMax(), w_scale,
                                digital_ref.absMax(), config_.weightBits,
                                swing,
                                cols_.front().mac.systematicGain(taps));
    const double in_scale = g.inScale;

    Tensor out(Shape(1, os.c, os.h, os.w));
    std::vector<double> window;
    std::vector<int> weights;
    window.reserve(taps);
    weights.reserve(taps);

    for (std::size_t oy = 0; oy < os.h; ++oy) {
        for (std::size_t ox = 0; ox < os.w; ++ox) {
            const std::size_t pcol = physicalFor(ox);
            Column &col = cols_[pcol];
            const fault::ColumnFaults *cf = activeFaults(pcol);
            for (std::size_t oc = 0; oc < os.c; ++oc) {
                window.clear();
                weights.clear();
                for (std::size_t ic = 0; ic < is.c; ++ic) {
                    for (std::size_t ky = 0; ky < p.kernelH; ++ky) {
                        const long iy = static_cast<long>(
                                            oy * p.strideH + ky) -
                                        static_cast<long>(p.padH);
                        for (std::size_t kx = 0; kx < p.kernelW;
                             ++kx) {
                            const long ix = static_cast<long>(
                                                ox * p.strideW + kx) -
                                            static_cast<long>(p.padW);
                            double v = 0.0;
                            if (iy >= 0 &&
                                iy < static_cast<long>(is.h) &&
                                ix >= 0 &&
                                ix < static_cast<long>(is.w)) {
                                // Buffered sample, bridged from the
                                // neighboring column's storage; the
                                // buffer holds full-swing samples.
                                // A leaky cell droops as if the
                                // sample had been held extra time.
                                const std::size_t psrc = physicalFor(
                                    static_cast<std::size_t>(ix));
                                Column &src = cols_[psrc];
                                const fault::ColumnFaults *sf =
                                    activeFaults(psrc);
                                const double value = in.at(
                                    0, ic,
                                    static_cast<std::size_t>(iy),
                                    static_cast<std::size_t>(ix));
                                src.buffer.write(
                                    value / in_scale * swing, rng_);
                                v = src.buffer.read(
                                        rng_,
                                        sf ? sf->extraHoldS : 0.0) *
                                    in_scale / swing;
                            }
                            window.push_back(v * g.kIn);
                            weights.push_back(
                                wq[w.shape().index(oc, ic, ky, kx)]);
                        }
                    }
                }
                if (cf && cf->weightStuckBit >= 0) {
                    // Stuck capacitor bit in this column's weight
                    // bank: the magnitude bit is forced for every
                    // weight the bank realizes.
                    for (int &wv : weights) {
                        wv = stuckWeight(wv, cf->weightStuckBit,
                                         cf->weightStuckHigh);
                    }
                }
                double volts = col.mac.multiplyAccumulate(window,
                                                          weights,
                                                          rng_);
                if (p.bias)
                    volts += layer.biases()[oc] / g.outFactor;
                if (cf) {
                    volts += cf->offsetV;
                    if (cf->dead) {
                        // Railed op amp: the column always reports
                        // full positive swing. The MAC above still
                        // ran (it burns energy and consumes its
                        // noise draws), keeping healthy columns
                        // bit-identical to a fault-free run.
                        volts = swing;
                    }
                }
                // Physical clipping at the signal swing; rectified
                // layers clip at zero as well (folded ReLU).
                volts = std::clamp(volts, rectify ? 0.0 : -swing,
                                   swing);
                out.at(0, oc, oy, ox) =
                    static_cast<float>(volts * g.outFactor);
            }
        }
    }
    return out;
}

Tensor
ColumnArray::runMaxPool(const Tensor &in, const nn::MaxPoolLayer &layer)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");
    Scratch &s = scratch();
    s.shapes.front() = is;
    const Shape os = layer.outputShape(s.shapes);
    const auto &p = layer.poolParams();

    const double swing = process_.signalSwing;
    const double in_scale = std::max(1e-12,
                                     static_cast<double>(in.absMax()));
    const double to_volts = swing / in_scale;

    // Output column ox decides on its serving column's comparator, in
    // lane ox % kWidth of vector ox / kWidth; a latch offset shifts
    // the decision margin, not the routed signal.
    const analog::DynamicComparator &model = cols_.front().comparator;
    const analog::DecisionConstants k = model.decisionConstants();
    const std::uint64_t key = rng_.raw();
    const std::size_t vectors = laneVectors(os.w);
    const std::size_t padded = vectors * lanes::kWidth;
    s.offsetV.assign(padded, 0.0);
    s.dead.assign(padded, 0);
    for (std::size_t ox = 0; ox < os.w; ++ox) {
        const fault::ColumnFaults *f = activeFaults(physicalFor(ox));
        if (f) {
            s.offsetV[ox] = f->comparatorOffsetV;
            s.dead[ox] = f->dead ? -1 : 0;
        }
    }
    s.tallies.assign(vectors, analog::DecisionLanes(model, k, key));

    // Window column kx of output column ox reads input column
    // ox * stride + kx - pad; a lane whose column falls outside the
    // row reads column 0 and stays inactive.
    s.tapColumn.resize(padded * p.kernel);
    s.tapValid.resize(padded * p.kernel);
    for (std::size_t v = 0; v < vectors; ++v) {
        for (std::size_t kx = 0; kx < p.kernel; ++kx) {
            for (std::size_t l = 0; l < lanes::kWidth; ++l) {
                const std::size_t ox = v * lanes::kWidth + l;
                const long ix = static_cast<long>(ox * p.stride + kx) -
                                static_cast<long>(p.pad);
                const bool valid = ox < os.w && ix >= 0 &&
                                   ix < static_cast<long>(is.w);
                const std::size_t t =
                    (v * p.kernel + kx) * lanes::kWidth + l;
                s.tapColumn[t] =
                    valid ? static_cast<std::uint32_t>(ix) : 0;
                s.tapValid[t] = valid ? -1 : 0;
            }
        }
    }

    // Decision d of output i is counter i * slots + d.
    const std::uint64_t slots = p.kernel * p.kernel;
    const lanes::F64 rail = lanes::F64{} + swing;
    Tensor out(Shape(1, os.c, os.h, os.w));
    for (std::size_t oc = 0; oc < os.c; ++oc) {
        const float *plane = in.data() + oc * is.h * is.w;
        for (std::size_t oy = 0; oy < os.h; ++oy) {
            const std::size_t row = (oc * os.h + oy) * os.w;
            for (std::size_t v = 0; v < vectors; ++v) {
                const std::size_t ox = v * lanes::kWidth;
                analog::DecisionLanes &tally = s.tallies[v];
                lanes::F64 offset{};
                lanes::load(offset, &s.offsetV[ox]);
                lanes::U64 counter = (row + ox + lanes::kIndex) * slots;
                lanes::I64 have{};
                lanes::F64 best{};
                for (std::size_t ky = 0; ky < p.kernel; ++ky) {
                    const long iy = static_cast<long>(oy * p.stride +
                                                      ky) -
                                    static_cast<long>(p.pad);
                    if (iy < 0 || iy >= static_cast<long>(is.h))
                        continue;
                    const float *src =
                        plane + static_cast<std::size_t>(iy) * is.w;
                    for (std::size_t kx = 0; kx < p.kernel; ++kx) {
                        const std::size_t t =
                            (v * p.kernel + kx) * lanes::kWidth;
                        lanes::I64 valid{};
                        lanes::load(valid, &s.tapValid[t]);
                        lanes::F32 x{};
                        for (std::size_t l = 0; l < lanes::kWidth; ++l)
                            x[l] = src[s.tapColumn[t + l]];
                        const lanes::F64 cand =
                            __builtin_convertvector(x, lanes::F64) *
                            to_volts;
                        // A lane's first candidate is its running best.
                        const lanes::I64 active = valid & have;
                        best = (valid & ~have) ? cand : best;
                        have |= valid;
                        if (!lanes::any(active))
                            continue;
                        // Equal candidates route one value whichever
                        // way the decision goes: charge it, and keep
                        // its outcome off the routing.
                        const lanes::I64 differs = cand != best;
                        lanes::I64 greater{};
                        tally.decide((cand + offset) - best, counter,
                                     active, differs, greater);
                        best = (greater & differs) ? cand : best;
                        counter -= (lanes::U64)active;
                    }
                }
                // A dead column rails.
                lanes::I64 dead{};
                lanes::load(dead, &s.dead[ox]);
                best = dead ? rail : best;
                lanes::store(&out[row + ox],
                             __builtin_convertvector(best * in_scale / swing,
                                                     lanes::F32),
                             std::min(lanes::kWidth, os.w - ox));
            }
        }
    }
    for (std::size_t ox = 0; ox < os.w; ++ox) {
        const analog::DecisionTally t =
            s.tallies[ox / lanes::kWidth].tally(ox % lanes::kWidth);
        cols_[physicalFor(ox)].comparator.accrue(
            t.decisions(), t.forced(), t.energyJ(k));
    }
    return out;
}

Tensor
ColumnArray::runMaxPoolReference(const Tensor &in,
                                 const nn::MaxPoolLayer &layer)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");
    const Shape os = layer.outputShape({is});
    const auto &p = layer.poolParams();

    const double swing = process_.signalSwing;
    const double in_scale = std::max(1e-12,
                                     static_cast<double>(in.absMax()));

    Tensor out(Shape(1, os.c, os.h, os.w));
    for (std::size_t oc = 0; oc < os.c; ++oc) {
        for (std::size_t oy = 0; oy < os.h; ++oy) {
            for (std::size_t ox = 0; ox < os.w; ++ox) {
                const std::size_t pcol = physicalFor(ox);
                Column &col = cols_[pcol];
                const fault::ColumnFaults *cf = activeFaults(pcol);
                bool have = false;
                double best = 0.0;
                for (std::size_t ky = 0; ky < p.kernel; ++ky) {
                    const long iy = static_cast<long>(oy * p.stride +
                                                      ky) -
                                    static_cast<long>(p.pad);
                    if (iy < 0 || iy >= static_cast<long>(is.h))
                        continue;
                    for (std::size_t kx = 0; kx < p.kernel; ++kx) {
                        const long ix = static_cast<long>(
                                            ox * p.stride + kx) -
                                        static_cast<long>(p.pad);
                        if (ix < 0 || ix >= static_cast<long>(is.w))
                            continue;
                        double v =
                            in.at(0, oc,
                                  static_cast<std::size_t>(iy),
                                  static_cast<std::size_t>(ix)) /
                            in_scale * swing;
                        if (!have) {
                            best = v;
                            have = true;
                            continue;
                        }
                        // Input-referred latch offset: the decision
                        // sees the challenger shifted, but the
                        // routed signal itself is unshifted.
                        const double seen =
                            cf ? v + cf->comparatorOffsetV : v;
                        const auto d = col.comparator.compare(seen,
                                                              best,
                                                              rng_);
                        best = d.aGreater ? v : best;
                    }
                }
                if (cf && cf->dead)
                    best = swing; // railed column
                out.at(0, oc, oy, ox) = static_cast<float>(
                    best * in_scale / swing);
            }
        }
    }
    return out;
}

Tensor
ColumnArray::runQuantization(const Tensor &in)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");

    // Rectified features are non-negative; map [0, max] onto the ADC
    // range [0, vref].
    const double in_max = std::max(1e-12,
                                   static_cast<double>(in.absMax()));
    const analog::SarAdc &model = cols_.front().adc;
    const analog::DecisionConstants k = model.decisionConstants();
    const std::uint64_t key = rng_.raw();
    const unsigned bits = model.resolution();
    const double vref = model.vref();
    Scratch &s = scratch();
    // Every column reconstructs a code alike.
    s.levels.resize(std::size_t{1} << bits);
    for (std::uint32_t code = 0; code < s.levels.size(); ++code) {
        s.levels[code] = static_cast<float>(model.reconstruct(code) /
                                            model.vref() * in_max);
    }

    // Column x converts its n elements (c, y) in lane x % kWidth, in
    // order; element (c, y, x) is numbered x * n + c * H + y, and its
    // bit b (0 = LSB) is decision 16 (x * n + c * H + y) + b.
    const std::size_t n = is.c * is.h;
    const lanes::F64 zero{};
    const lanes::F64 top = lanes::F64{} + vref;
    Tensor out(is);
    for (std::size_t x = 0; x < is.w; x += lanes::kWidth) {
        const std::size_t m = std::min(lanes::kWidth, is.w - x);
        const lanes::I64 active = lanes::kIndex < m;
        // Per lane: the search thresholds of its column's array, a
        // railed input, and a frozen SAR bit, which applies after the
        // search; only bits the programmed resolution keeps in the
        // array can stick.
        lanes::F64 threshold[analog::SarAdc::kMaxResolution] = {};
        lanes::I64 dead{};
        lanes::U64 keep = ~lanes::U64{};
        lanes::U64 set{};
        for (std::size_t l = 0; l < m; ++l) {
            const std::size_t pcol = physicalFor(x + l);
            const auto t = cols_[pcol].adc.thresholds();
            for (unsigned b = 0; b < bits; ++b)
                threshold[b][l] = t[b];
            const fault::ColumnFaults *cf = activeFaults(pcol);
            dead[l] = cf && cf->dead ? -1 : 0;
            if (cf && cf->adcStuckBit >= 0 &&
                cf->adcStuckBit < static_cast<int>(bits)) {
                const std::uint64_t mask = 1ull << cf->adcStuckBit;
                set[l] = cf->adcStuckHigh ? mask : 0u;
                keep[l] = ~mask;
            }
        }
        analog::DecisionLanes tally(model.comparator(), k, key);
        const lanes::U64 first = (x + lanes::kIndex) * n;
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t at = j * is.w + x;
            lanes::F32 x{};
            lanes::load(x, in.data() + at, m);
            const lanes::F64 v = __builtin_convertvector(x, lanes::F64);
            // As std::max(0.0, v) and std::clamp(volts, 0.0, vref).
            const lanes::F64 rectified = zero < v ? v : zero;
            // A dead column's input rails at vref.
            const lanes::F64 volts =
                dead ? top : rectified / in_max * vref;
            const lanes::F64 clamped =
                volts < zero ? zero : (top < volts ? top : volts);
            const lanes::U64 base =
                (first + j) * analog::SarAdc::kMaxResolution;
            lanes::U64 code{};
            lanes::F64 dac{}; // voltage of the bits switched to Vref
            for (unsigned b = bits; b-- > 0;) {
                const lanes::F64 trial = dac + threshold[b];
                lanes::I64 greater{};
                tally.decide(clamped - trial, base + b, active, active,
                             greater);
                code |= (lanes::U64)greater & (1ull << b);
                dac = greater ? trial : dac;
            }
            code = (code & keep) | set;
            for (std::size_t l = 0; l < m; ++l)
                out[at + l] = s.levels[code[l]];
        }
        for (std::size_t l = 0; l < m; ++l) {
            const analog::DecisionTally t = tally.tally(l);
            cols_[physicalFor(x + l)].adc.accrueConversions(
                n, t.decisions(), t.forced(), t.energyJ(k));
        }
    }
    return out;
}

Tensor
ColumnArray::runQuantizationReference(const Tensor &in)
{
    const Shape &is = in.shape();
    fatal_if(is.n != 1, "functional engine runs one frame at a time");

    // Rectified features are non-negative; map [0, max] onto the ADC
    // range [0, vref].
    const double in_max = std::max(1e-12,
                                   static_cast<double>(in.absMax()));
    Tensor out(is);
    for (std::size_t c = 0; c < is.c; ++c) {
        for (std::size_t y = 0; y < is.h; ++y) {
            for (std::size_t x = 0; x < is.w; ++x) {
                const std::size_t pcol = physicalFor(x);
                Column &col = cols_[pcol];
                const fault::ColumnFaults *cf = activeFaults(pcol);
                const double v = std::max(
                    0.0, static_cast<double>(in.at(0, c, y, x)));
                double volts = v / in_max * col.adc.vref();
                if (cf && cf->dead)
                    volts = col.adc.vref(); // railed input
                auto code = col.adc.convert(volts, rng_);
                if (cf && cf->adcStuckBit >= 0 &&
                    cf->adcStuckBit <
                        static_cast<int>(col.adc.resolution())) {
                    // Frozen SAR bit. Only bits the programmed
                    // resolution keeps in the array can stick; a
                    // stuck capacitor among the cut-off bits is
                    // harmless.
                    const std::uint32_t mask =
                        1u << cf->adcStuckBit;
                    code = cf->adcStuckHigh ? (code | mask)
                                            : (code & ~mask);
                }
                out.at(0, c, y, x) = static_cast<float>(
                    col.adc.reconstruct(code) / col.adc.vref() *
                    in_max);
            }
        }
    }
    return out;
}

EnergyBreakdown
ColumnArray::energy() const
{
    EnergyBreakdown e;
    for (const auto &col : cols_) {
        e.macJ += col.mac.energyJ();
        e.memoryJ += col.buffer.energyJ();
        e.comparatorJ += col.comparator.energyJ();
        e.readoutJ += col.adc.energyJ();
    }
    return e;
}

void
ColumnArray::resetEnergy()
{
    for (auto &col : cols_) {
        col.mac.resetEnergy();
        col.buffer.resetEnergy();
        col.comparator.resetEnergy();
        col.comparator.resetCounts();
        col.adc.resetEnergy();
        col.adc.resetCounts();
    }
}

std::size_t
ColumnArray::forcedDecisions() const
{
    std::size_t total = 0;
    for (const auto &col : cols_)
        total += col.comparator.forcedCount() + col.adc.forcedCount();
    return total;
}

} // namespace arch
} // namespace redeye
