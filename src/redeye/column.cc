#include "redeye/column.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

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
    std::vector<float> charge;   ///< sum w * held sample [M x P]
    std::vector<float> readVar;  ///< sum gain^2 * read var [M x P]
};

/** Per output column: how its serving column alters the result. */
struct OutColumn {
    std::size_t bank = 0;
    double offsetV = 0.0; ///< MAC output offset, or comparator offset
    bool dead = false;
};

/**
 * Buffers of the closed-form engines, one set per thread and kept
 * across calls: the serving path builds a device per frame, so
 * buffers owned by the array would be reallocated every frame.
 */
struct Scratch {
    std::vector<int> wq;             ///< quantized kernel [M x K]
    std::vector<float> pixels;       ///< staged frame [C x H x W]
    std::vector<float> cols;         ///< its lowering [K x P]
    std::vector<double> droop;       ///< per input column
    std::vector<double> readVar;     ///< per input column, relative
    std::vector<OutColumn> outCols;  ///< per output column
    std::vector<WeightBank> banks = std::vector<WeightBank>(1);
    std::vector<double> volts;       ///< one column's ADC inputs [V]
    std::vector<std::uint32_t> codes; ///< one column's ADC codes
    std::vector<analog::DecisionBatch> decisions; ///< per out column
};

Scratch &
scratch()
{
    thread_local Scratch s;
    return s;
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
    const Shape os = layer.outputShape({is});
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
    Scratch &s = scratch();
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

    // Output column x is served by column physicalFor(x). Each stuck
    // weight bit setting among the serving columns gets its own
    // weight bank; bank 0 is the kernel as quantized.
    std::size_t banks = 1;
    s.outCols.assign(os.w, OutColumn{});
    for (std::size_t ox = 0; ox < os.w; ++ox) {
        const fault::ColumnFaults *f = activeFaults(physicalFor(ox));
        if (!f)
            continue;
        OutColumn &c = s.outCols[ox];
        c.offsetV = f->offsetV;
        c.dead = f->dead;
        if (f->weightStuckBit < 0)
            continue;
        c.bank = 1;
        while (c.bank < banks &&
               !(s.banks[c.bank].stuckBit == f->weightStuckBit &&
                 s.banks[c.bank].stuckHigh == f->weightStuckHigh))
            ++c.bank;
        if (c.bank == banks) {
            if (s.banks.size() == banks)
                s.banks.emplace_back();
            s.banks[banks].stuckBit = f->weightStuckBit;
            s.banks[banks].stuckHigh = f->weightStuckHigh;
            ++banks;
        }
    }

    // Per bank: the realized integer weights, their tap statistics,
    // and the noiseless charge of every window.
    const analog::TunableCapacitor &cap = mac.tunableCap();
    for (std::size_t b = 0; b < banks; ++b) {
        WeightBank &bank = s.banks[b];
        bank.weights.resize(kernels_m * taps);
        bank.gains2.resize(kernels_m * taps);
        bank.tapVar.assign(kernels_m, 0.0);
        bank.activeBits = 0;
        for (std::size_t i = 0; i < bank.weights.size(); ++i) {
            int w = s.wq[i];
            if (bank.stuckBit >= 0)
                w = stuckWeight(w, bank.stuckBit, bank.stuckHigh);
            const double gain = cap.gainFor(w);
            const double noise = cap.outputNoiseRms(w);
            bank.weights[i] = static_cast<float>(w);
            bank.gains2[i] = static_cast<float>(gain * gain);
            bank.tapVar[i / taps] += noise * noise;
            bank.activeBits += static_cast<std::uint64_t>(
                std::popcount(static_cast<unsigned>(std::abs(w))));
        }
        bank.charge.resize(kernels_m * positions);
        kernels::gemm(bank.weights.data(), kernel_shape, s.cols.data(),
                      cols_shape, bank.charge.data());
    }

    // Buffer read noise of every window, through the tap gains:
    // padding taps read no buffer, and im2col zeroes them.
    lower_staged([&](std::size_t, std::size_t x) { return s.readVar[x]; });
    for (std::size_t b = 0; b < banks; ++b) {
        WeightBank &bank = s.banks[b];
        bank.readVar.resize(kernels_m * positions);
        kernels::gemm(bank.gains2.data(), kernel_shape, s.cols.data(),
                      cols_shape, bank.readVar.data());
    }

    // Energy from the per-tap engine's operation counts: each output
    // is one window on its serving column's MAC, each in-frame tap
    // one write and one read of its source column's buffer.
    for (std::size_t ox = 0; ox < os.w; ++ox) {
        cols_[physicalFor(ox)].mac.accrueWindows(
            kernels_m * os.h, taps,
            os.h * s.banks[s.outCols[ox].bank].activeBits);
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
    // §15).
    const analog::MacUnit::WindowStats stats = mac.windowStats(taps);
    const double to_volts =
        g.kIn / static_cast<double>(1 << (config_.weightBits - 1)) *
        stats.gain;
    const double gain2 = stats.gain * stats.gain;
    const double in_volts = g.inScale * g.kIn / swing;
    const double read_scale = read_var * in_volts * in_volts;
    const std::uint64_t key = rng_.raw();
    const double lo = rectify ? 0.0 : -swing;
    for (std::size_t oc = 0; oc < kernels_m; ++oc) {
        const double bias =
            p.bias ? layer.biases()[oc] / g.outFactor : 0.0;
        for (std::size_t oy = 0; oy < os.h; ++oy) {
            for (std::size_t ox = 0; ox < os.w; ++ox) {
                const std::size_t i = (oc * os.h + oy) * os.w + ox;
                const OutColumn &c = s.outCols[ox];
                // A dead column's op amp rails at full swing.
                double volts = swing;
                if (!c.dead) {
                    const WeightBank &bank = s.banks[c.bank];
                    const double var =
                        gain2 * (bank.tapVar[oc] +
                                 read_scale * bank.readVar[i]) +
                        stats.addedVar;
                    const double mean = bank.charge[i] * to_volts;
                    const double sd = std::sqrt(var);
                    if (mean + sd * kKeyedGaussianMaxAbs + bias +
                            c.offsetV <
                        lo) {
                        volts = lo;
                    } else if (mean - sd * kKeyedGaussianMaxAbs + bias +
                                   c.offsetV >
                               swing) {
                        volts = swing;
                    } else {
                        volts = mean + sd * keyedGaussian(key, i) + bias +
                                c.offsetV;
                    }
                }
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
    const Shape os = layer.outputShape({is});
    const auto &p = layer.poolParams();

    const double swing = process_.signalSwing;
    const double in_scale = std::max(1e-12,
                                     static_cast<double>(in.absMax()));
    const double to_volts = swing / in_scale;
    Scratch &s = scratch();

    // Output column ox decides on its serving column's comparator; a
    // latch offset shifts the decision margin, not the routed signal.
    const analog::DecisionConstants k =
        cols_.front().comparator.decisionConstants();
    const std::uint64_t key = rng_.raw();
    s.outCols.assign(os.w, OutColumn{});
    s.decisions.clear();
    for (std::size_t ox = 0; ox < os.w; ++ox) {
        const std::size_t pcol = physicalFor(ox);
        if (const fault::ColumnFaults *f = activeFaults(pcol)) {
            s.outCols[ox].offsetV = f->comparatorOffsetV;
            s.outCols[ox].dead = f->dead;
        }
        s.decisions.emplace_back(cols_[pcol].comparator, k, key);
    }

    // Decision d of output i is counter i * slots + d.
    const std::uint64_t slots = p.kernel * p.kernel;
    Tensor out(Shape(1, os.c, os.h, os.w));
    for (std::size_t oc = 0; oc < os.c; ++oc) {
        const float *plane = in.data() + oc * is.h * is.w;
        for (std::size_t oy = 0; oy < os.h; ++oy) {
            for (std::size_t ox = 0; ox < os.w; ++ox) {
                const std::size_t i = (oc * os.h + oy) * os.w + ox;
                const OutColumn &c = s.outCols[ox];
                analog::DecisionBatch &batch = s.decisions[ox];
                std::uint64_t counter = i * slots;
                bool have = false;
                double best = 0.0;
                for (std::size_t ky = 0; ky < p.kernel; ++ky) {
                    const long iy = static_cast<long>(oy * p.stride +
                                                      ky) -
                                    static_cast<long>(p.pad);
                    if (iy < 0 || iy >= static_cast<long>(is.h))
                        continue;
                    const float *row =
                        plane + static_cast<std::size_t>(iy) * is.w;
                    for (std::size_t kx = 0; kx < p.kernel; ++kx) {
                        const long ix = static_cast<long>(
                                            ox * p.stride + kx) -
                                        static_cast<long>(p.pad);
                        if (ix < 0 || ix >= static_cast<long>(is.w))
                            continue;
                        const double v = row[ix] * to_volts;
                        if (!have) {
                            best = v;
                            have = true;
                            continue;
                        }
                        // Equal candidates route one value whichever
                        // way the decision goes: charge it, and keep
                        // its outcome off the routing.
                        const double delta = (v + c.offsetV) - best;
                        if (v == best)
                            batch.decide(delta, counter++);
                        else if (batch.decide(delta, counter++))
                            best = v;
                    }
                }
                if (c.dead)
                    best = swing; // railed column
                out[i] = static_cast<float>(best * in_scale / swing);
            }
        }
    }
    for (analog::DecisionBatch &batch : s.decisions)
        batch.accrue();
    s.decisions.clear(); // they point into this array
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
    const analog::DecisionConstants k =
        cols_.front().adc.decisionConstants();
    const std::uint64_t key = rng_.raw();
    // Column x converts its n elements (c, y) as one batch; element
    // (c, y, x) is numbered x * n + c * H + y in the decision keys.
    const std::size_t n = is.c * is.h;
    Scratch &s = scratch();
    s.volts.resize(n);
    s.codes.resize(n);
    Tensor out(is);
    for (std::size_t x = 0; x < is.w; ++x) {
        const std::size_t pcol = physicalFor(x);
        analog::SarAdc &adc = cols_[pcol].adc;
        const fault::ColumnFaults *cf = activeFaults(pcol);
        for (std::size_t j = 0; j < n; ++j) {
            const double v =
                std::max(0.0, static_cast<double>(in[j * is.w + x]));
            s.volts[j] = cf && cf->dead ? adc.vref() // railed input
                                        : v / in_max * adc.vref();
        }
        adc.convertKeyed(s.volts, s.codes, k, key, x * n);
        // A frozen SAR bit applies after the search; only bits the
        // programmed resolution keeps in the array can stick.
        std::uint32_t set = 0;
        std::uint32_t keep = ~0u;
        if (cf && cf->adcStuckBit >= 0 &&
            cf->adcStuckBit < static_cast<int>(adc.resolution())) {
            const std::uint32_t mask = 1u << cf->adcStuckBit;
            set = cf->adcStuckHigh ? mask : 0u;
            keep = ~mask;
        }
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint32_t code = (s.codes[j] & keep) | set;
            out[j * is.w + x] = static_cast<float>(
                adc.reconstruct(code) / adc.vref() * in_max);
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
