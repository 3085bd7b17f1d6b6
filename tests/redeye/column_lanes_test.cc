/**
 * @file
 * The served column kernels against their scalar closed forms, bit for
 * bit. ColumnOracle holds the closed forms as they were before the
 * kernels decided an output row in SIMD lanes: the conv bank loop and
 * epilogue one output at a time, max pooling through one scalar
 * DecisionBatch per output column, and the SAR search of each column
 * through its own batch. Both run on arrays in the same state, so
 * outputs must agree under memcmp, and energy and forced counts under
 * ==, over pooling geometries, widths around the lane width, column
 * maps, every fault kind, ADC resolutions and SNRs; and RedEyeDevice
 * must serve what the oracle chain computes.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analog/comparator.hh"
#include "core/logging.hh"
#include "core/rng.hh"
#include "data/shapes_dataset.hh"
#include "fault/fault_model.hh"
#include "models/mini_googlenet.hh"
#include "nn/conv.hh"
#include "nn/network.hh"
#include "nn/pool.hh"
#include "noise/sensor_noise.hh"
#include "redeye/column.hh"
#include "redeye/device.hh"
#include "sim/pretrained.hh"
#include "tensor/kernels.hh"

namespace redeye {
namespace arch {
namespace {

using analog::Decision;
using analog::DecisionConstants;
using analog::DynamicComparator;

/**
 * One call's closed-form decisions on one comparator, one decision at
 * a time: the scalar tally the lanes replaced.
 */
class DecisionBatch
{
  public:
    DecisionBatch(DynamicComparator &cmp, const DecisionConstants &k,
                  std::uint64_t key)
        : cmp_(&cmp), k_(k), key_(key),
          tieForcedBelow_(static_cast<std::uint64_t>(
              std::ceil(k.tieForcedP * 0x1p53)))
    {
    }

    /** Decide a > b from the noiseless margin @p delta = a - b. */
    bool
    decide(double delta, std::uint64_t counter)
    {
        const double mag = std::fabs(delta);
        if (mag > k_.band) {
            ++far_;
            if (mag < k_.swing) {
                margins_ *= mag;
                ++logged_;
                if (margins_ < 0x1p-512)
                    renormalize();
            }
            return delta > 0.0;
        }
        if (delta == 0.0) {
            const std::uint64_t h = keyedBits(key_, 2 * counter);
            ++ties_;
            tiesForced_ += (h >> 11) < tieForcedBelow_;
            return (h & 1) != 0;
        }
        return decideNearTie(delta, counter);
    }

    /** The tallied decisions, as DecisionLanes reports a lane's. */
    analog::DecisionTally
    tally() const
    {
        analog::DecisionTally t;
        t.far = far_;
        t.logged = logged_;
        t.margins = margins_;
        t.marginExp = marginExp_;
        t.ties = ties_;
        t.tiesForced = tiesForced_;
        t.near = near_;
        t.nearForced = nearForced_;
        t.nearJ = nearJ_;
        return t;
    }

    /** Charge the tallied decisions to the comparator and clear. */
    void
    accrue()
    {
        const double nepers =
            static_cast<double>(logged_) * std::log(k_.swing) -
            (std::log(margins_) + marginExp_ * std::numbers::ln2);
        const double energy =
            static_cast<double>(far_) * k_.nominalJ + k_.regenJ * nepers +
            static_cast<double>(tiesForced_) * k_.forcedJ +
            static_cast<double>(ties_ - tiesForced_) * k_.tieJ + nearJ_;
        cmp_->accrue(far_ + ties_ + near_, tiesForced_ + nearForced_,
                     energy);
        *this = DecisionBatch(*cmp_, k_, key_);
    }

  private:
    bool
    decideNearTie(double delta, std::uint64_t counter)
    {
        Decision d = cmp_->settle(delta + cmp_->params().inputNoiseRms *
                                              keyedGaussian(key_, counter));
        if (d.forced) {
            d.aGreater = (keyedBits(key_, 2 * counter) & 1) != 0;
            ++nearForced_;
        }
        ++near_;
        nearJ_ += d.energyJ;
        return d.aGreater;
    }

    void
    renormalize()
    {
        int e = 0;
        margins_ = std::frexp(margins_, &e);
        marginExp_ += e;
    }

    DynamicComparator *cmp_;
    DecisionConstants k_;
    std::uint64_t key_;
    std::uint64_t tieForcedBelow_;
    std::size_t far_ = 0;
    std::size_t logged_ = 0;
    double margins_ = 1.0;
    int marginExp_ = 0;
    std::size_t ties_ = 0;
    std::size_t tiesForced_ = 0;
    std::size_t near_ = 0;
    std::size_t nearForced_ = 0;
    double nearJ_ = 0.0;
};

/**
 * One column's scalar SAR search: its elements in order, MSB first,
 * on the ADC's thresholds, through one DecisionBatch; charged to the
 * ADC as convert() calls.
 */
void
convertKeyed(analog::SarAdc &adc, const analog::ProcessParams &process,
             std::span<const double> volts,
             std::span<std::uint32_t> codes, const DecisionConstants &k,
             std::uint64_t key, std::uint64_t first)
{
    const auto threshold = adc.thresholds();
    DynamicComparator cmp(adc.comparator().params(), process);
    DecisionBatch batch(cmp, k, key);
    for (std::size_t j = 0; j < volts.size(); ++j) {
        const double v = std::clamp(volts[j], 0.0, adc.vref());
        const std::uint64_t base =
            (first + j) * analog::SarAdc::kMaxResolution;
        std::uint32_t code = 0;
        double dac = 0.0; // voltage of the bits switched to Vref
        for (unsigned i = adc.resolution(); i-- > 0;) {
            const double trial = dac + threshold[i];
            if (batch.decide(v - trial, base + i)) {
                code |= 1u << i;
                dac = trial;
            }
        }
        codes[j] = code;
    }
    batch.accrue();
    adc.accrueConversions(volts.size(), cmp.decisionCount(),
                          cmp.forcedCount(), cmp.energyJ());
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

/** Signal conditioning of one conv call. */
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
    const int w_max = (1 << (weight_bits - 1)) - 1;
    const double denom = static_cast<double>(1 << (weight_bits - 1));
    g.kIn = denom * w_scale * swing /
            (static_cast<double>(w_max) * out_amax);
    g.outFactor = out_amax / (swing * sys_gain);
    return g;
}

/** The kernel as one column realizes it, and its products. */
struct WeightBank {
    int stuckBit = -1;
    bool stuckHigh = false;
    std::vector<float> weights;
    std::vector<float> gains2;
    std::vector<double> tapVar;
    std::uint64_t activeBits = 0;
    std::vector<float> charge;
    std::vector<float> readVar;
};

/** Per output column: how its serving column alters the result. */
struct OutColumn {
    std::size_t bank = 0;
    double offsetV = 0.0;
    bool dead = false;
};

/** The oracles' buffers, fresh every call. */
struct Scratch {
    std::vector<int> wq;
    std::vector<float> pixels;
    std::vector<float> cols;
    std::vector<double> droop;
    std::vector<double> readVar;
    std::vector<OutColumn> outCols;
    std::vector<WeightBank> banks = std::vector<WeightBank>(1);
    std::vector<double> volts;
    std::vector<std::uint32_t> codes;
    std::vector<DecisionBatch> decisions;
};

} // namespace

/** The scalar closed forms, run on a ColumnArray's own state. */
struct ColumnOracle {
    static Tensor
    convolution(ColumnArray &a, const Tensor &in,
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
        const double swing = a.process_.signalSwing;
        Scratch s;
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
            quantizeKernel(layer.weights(), a.config_.weightBits, s.wq);
        const analog::MacUnit &mac = a.cols_.front().mac;
        const ConvGain g =
            convGain(in.absMax(), w_scale, ref_max, a.config_.weightBits,
                     swing, mac.systematicGain(taps));

        // Input column x is buffered in column a.physicalFor(x): a leaky
        // cell droops its samples and their write noise.
        const double read_var = a.cols_.front().buffer.readNoiseVar();
        s.droop.resize(is.w);
        s.readVar.resize(is.w);
        bool leaky = false;
        for (std::size_t x = 0; x < is.w; ++x) {
            const std::size_t pc = a.physicalFor(x);
            const fault::ColumnFaults *f = a.activeFaults(pc);
            const double hold = f ? f->extraHoldS : 0.0;
            s.droop[x] = a.cols_[pc].buffer.droop(hold);
            s.readVar[x] = a.cols_[pc].buffer.readNoiseVar(hold) / read_var;
            leaky |= hold > 0.0;
        }
        if (leaky) {
            lower_staged([&](std::size_t i, std::size_t x) {
                return in[i] * s.droop[x];
            });
        }

        // Output column x is served by column a.physicalFor(x). Each stuck
        // weight bit setting among the serving columns gets its own
        // weight bank; bank 0 is the kernel as quantized.
        std::size_t banks = 1;
        s.outCols.assign(os.w, OutColumn{});
        for (std::size_t ox = 0; ox < os.w; ++ox) {
            const fault::ColumnFaults *f = a.activeFaults(a.physicalFor(ox));
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
            a.cols_[a.physicalFor(ox)].mac.accrueWindows(
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
                    a.cols_[a.physicalFor(static_cast<std::size_t>(ix))]
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
            g.kIn / static_cast<double>(1 << (a.config_.weightBits - 1)) *
            stats.gain;
        const double gain2 = stats.gain * stats.gain;
        const double in_volts = g.inScale * g.kIn / swing;
        const double read_scale = read_var * in_volts * in_volts;
        const std::uint64_t key = a.rng_.raw();
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

    static Tensor
    maxPool(ColumnArray &a, const Tensor &in,
            const nn::MaxPoolLayer &layer)
    {
        const Shape &is = in.shape();
        fatal_if(is.n != 1, "functional engine runs one frame at a time");
        const Shape os = layer.outputShape({is});
        const auto &p = layer.poolParams();

        const double swing = a.process_.signalSwing;
        const double in_scale = std::max(1e-12,
                                         static_cast<double>(in.absMax()));
        const double to_volts = swing / in_scale;
        Scratch s;

        // Output column ox decides on its serving column's comparator; a
        // latch offset shifts the decision margin, not the routed signal.
        const analog::DecisionConstants k =
            a.cols_.front().comparator.decisionConstants();
        const std::uint64_t key = a.rng_.raw();
        s.outCols.assign(os.w, OutColumn{});
        s.decisions.clear();
        for (std::size_t ox = 0; ox < os.w; ++ox) {
            const std::size_t pcol = a.physicalFor(ox);
            if (const fault::ColumnFaults *f = a.activeFaults(pcol)) {
                s.outCols[ox].offsetV = f->comparatorOffsetV;
                s.outCols[ox].dead = f->dead;
            }
            s.decisions.emplace_back(a.cols_[pcol].comparator, k, key);
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
                    DecisionBatch &batch = s.decisions[ox];
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
        for (DecisionBatch &batch : s.decisions)
            batch.accrue();
        s.decisions.clear(); // they point into this array
        return out;
    }

    static Tensor
    quantization(ColumnArray &a, const Tensor &in)
    {
        const Shape &is = in.shape();
        fatal_if(is.n != 1, "functional engine runs one frame at a time");

        // Rectified features are non-negative; map [0, max] onto the ADC
        // range [0, vref].
        const double in_max = std::max(1e-12,
                                       static_cast<double>(in.absMax()));
        const analog::DecisionConstants k =
            a.cols_.front().adc.decisionConstants();
        const std::uint64_t key = a.rng_.raw();
        // Column x converts its n elements (c, y) as one batch; element
        // (c, y, x) is numbered x * n + c * H + y in the decision keys.
        const std::size_t n = is.c * is.h;
        Scratch s;
        s.volts.resize(n);
        s.codes.resize(n);
        Tensor out(is);
        for (std::size_t x = 0; x < is.w; ++x) {
            const std::size_t pcol = a.physicalFor(x);
            analog::SarAdc &adc = a.cols_[pcol].adc;
            const fault::ColumnFaults *cf = a.activeFaults(pcol);
            for (std::size_t j = 0; j < n; ++j) {
                const double v =
                    std::max(0.0, static_cast<double>(in[j * is.w + x]));
                s.volts[j] = cf && cf->dead ? adc.vref() // railed input
                                            : v / in_max * adc.vref();
            }
            convertKeyed(adc, a.process_, s.volts, s.codes, k, key,
                         x * n);
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
};

namespace {

constexpr double kSnrs[] = {30.0, 40.0, 50.0};

/** Fault kinds of fault(): none, each kind alone, all mixed. */
constexpr std::size_t kFaultKinds = 8;

/** Campaign of fault kind @p kind (0 = pristine). */
fault::FaultCampaign
faults(std::size_t kind, std::uint64_t seed)
{
    fault::FaultCampaign c;
    c.seed = seed;
    switch (kind % kFaultKinds) {
      case 1: c.deadColumnRate = 0.2; break;
      case 2: c.offsetColumnRate = 0.3; break;
      case 3: c.memoryLeakRate = 0.3; break;
      case 4: c.stuckWeightBitRate = 0.5; break;
      case 5: c.comparatorOffsetRate = 0.4; break;
      case 6: c.adcStuckBitRate = 0.5; break;
      case 7:
        c.deadColumnRate = 0.1;
        c.offsetColumnRate = 0.15;
        c.memoryLeakRate = 0.15;
        c.stuckWeightBitRate = 0.3;
        c.comparatorOffsetRate = 0.2;
        c.adcStuckBitRate = 0.3;
        break;
      default: break;
    }
    return c;
}

/**
 * Column map @p which over @p columns columns: none, a rotation, or a
 * map shorter than the array that serves two positions from each
 * physical column.
 */
std::vector<std::size_t>
columnMap(std::size_t which, std::size_t columns)
{
    std::vector<std::size_t> map;
    if (which % 3 == 1) {
        for (std::size_t i = 0; i < columns; ++i)
            map.push_back((i + 5) % columns);
    } else if (which % 3 == 2) {
        for (std::size_t i = 0; i + 3 < columns; ++i)
            map.push_back((i / 2 + 3) % columns);
    }
    return map;
}

/** One array configuration of the sweeps. */
struct Case {
    std::size_t columns = 16;
    double snr = 40.0;
    unsigned adcBits = 4;
    std::size_t kind = 0;        ///< faults() kind
    std::uint64_t faultSeed = 1;
    std::size_t map = 0;         ///< columnMap()
    std::uint64_t seed = 7;

    std::string
    str() const
    {
        return "columns " + std::to_string(columns) + ", " +
               std::to_string(snr) + " dB, " + std::to_string(adcBits) +
               " bits, faults " + std::to_string(kind) + "/" +
               std::to_string(faultSeed) + ", map " +
               std::to_string(map);
    }
};

ColumnArrayConfig
configOf(const Case &c)
{
    ColumnArrayConfig cfg;
    cfg.columns = c.columns;
    cfg.convSnrDb = c.snr;
    cfg.adcBits = c.adcBits;
    return cfg;
}

/**
 * Two arrays in one state, armed and mapped alike: the served kernels
 * run on one, the oracles on the other.
 */
struct Twins {
    explicit Twins(const Case &c)
        : model(faults(c.kind, c.faultSeed), c.columns),
          served(configOf(c), analog::ProcessParams::typical(),
                 Rng(c.seed)),
          oracle(configOf(c), analog::ProcessParams::typical(),
                 Rng(c.seed))
    {
        for (ColumnArray *a : {&served, &oracle}) {
            if (c.kind % kFaultKinds != 0)
                a->armFaults(&model, 0);
            a->setColumnMap(columnMap(c.map, c.columns));
        }
    }

    fault::FaultModel model;
    ColumnArray served;
    ColumnArray oracle;
};

/** Outputs equal under memcmp; energy and forced counts under ==. */
void
expectSame(const Tensor &got, const Tensor &want, const ColumnArray &a,
           const ColumnArray &b, const std::string &what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    if (std::memcmp(got.data(), want.data(),
                    got.size() * sizeof(float)) != 0) {
        std::size_t i = 0;
        while (std::memcmp(&got.vec()[i], &want.vec()[i],
                           sizeof(float)) == 0)
            ++i;
        ADD_FAILURE() << what << ": output " << i << " is " << got[i]
                      << ", the scalar closed form's "
                      << want[i];
    }
    const EnergyBreakdown ea = a.energy();
    const EnergyBreakdown eb = b.energy();
    EXPECT_EQ(ea.macJ, eb.macJ) << what;
    EXPECT_EQ(ea.memoryJ, eb.memoryJ) << what;
    EXPECT_EQ(ea.comparatorJ, eb.comparatorJ) << what;
    EXPECT_EQ(ea.readoutJ, eb.readoutJ) << what;
    EXPECT_EQ(a.forcedDecisions(), b.forcedDecisions()) << what;
}

/** A materialized, He-initialized conv layer with nonzero biases. */
std::unique_ptr<nn::ConvolutionLayer>
makeConv(std::size_t in_c, std::size_t out_c, std::size_t kernel,
         std::size_t stride, std::size_t pad, std::uint64_t seed)
{
    auto conv = std::make_unique<nn::ConvolutionLayer>(
        "c", nn::ConvParams::square(out_c, kernel, stride, pad));
    (void)conv->outputShape({Shape(1, in_c, kernel + 4, kernel + 4)});
    Rng rng(seed);
    conv->initHe(rng);
    for (std::size_t oc = 0; oc < conv->biases().size(); ++oc)
        conv->biases()[oc] = static_cast<float>(rng.uniform(-0.3, 0.3));
    return conv;
}

/**
 * Pixels in [lo, 1], a fifth of them exact zeros, a few negative
 * zeros, and runs of repeats and of near repeats 0.2 mV apart at full
 * swing: exact and near ties for the comparators.
 */
Tensor
frame(const Shape &s, std::uint64_t seed, float lo = 0.0f)
{
    Tensor x(s);
    Rng rng(seed);
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double u = rng.uniform();
        if (u < 0.2)
            x[i] = 0.0f;
        else if (u < 0.25)
            x[i] = -0.0f;
        else if (u < 0.4 && i > 0)
            x[i] = x[i - 1];
        else if (u < 0.5 && i > 0)
            x[i] = x[i - 1] + 2e-4f;
        else
            x[i] = static_cast<float>(rng.uniform(lo, 1.0));
    }
    return x;
}

/**
 * Convolution over widths 1-40 (lane tails, several vectors, more
 * positions than columns), kernels 1, 3 and 5 at strides 1 and 2,
 * every fault kind, column maps with repeated columns, 30/40/50 dB,
 * rectified or not; two calls per array.
 */
TEST(ColumnLanesTest, ConvolutionMatchesScalar)
{
    for (std::size_t w = 1; w <= 40; ++w) {
        for (std::size_t kind = 0; kind < kFaultKinds; kind += 3) {
            Case c;
            c.columns = w % 2 ? 16 : 32;
            c.snr = kSnrs[(w + kind) % 3];
            c.kind = (w + kind) % kFaultKinds;
            c.faultSeed = w * 7 + kind;
            c.map = w / 2 + kind;
            c.seed = 100 + w;
            const std::size_t kernel = 1 + 2 * ((w + kind) % 3);
            const std::size_t stride = 1 + (w + kind) % 2;
            const std::size_t in_c = 1 + w % 3;
            const bool rectify = (w + kind) % 2 == 0;
            auto conv = makeConv(in_c, 2 + w % 5, kernel, stride,
                                 kernel / 2, w);
            Twins t(c);
            for (std::uint64_t call = 0; call < 2; ++call) {
                const Tensor x =
                    frame(Shape(1, in_c, 3 + w % 4, w), w * 3 + call,
                          -0.5f);
                const Tensor got =
                    t.served.runConvolution(x, *conv, rectify);
                const Tensor want = ColumnOracle::convolution(
                    t.oracle, x, *conv, rectify);
                expectSame(got, want, t.served, t.oracle,
                           "conv width " + std::to_string(w) + ", " +
                               c.str());
            }
        }
    }
}

/**
 * A stuck bit 7 held high takes a weight to |w| = 255, past the
 * quantizer's 127: the tap statistics must cover it.
 */
TEST(ColumnLanesTest, StuckWeightBitSevenHighMatchesScalar)
{
    Case c;
    c.kind = 4;
    for (c.faultSeed = 1; c.faultSeed < 500; ++c.faultSeed) {
        const fault::FaultModel m(faults(c.kind, c.faultSeed), c.columns);
        bool seven = false;
        for (std::size_t col = 0; col < c.columns; ++col) {
            seven |= m.column(col).weightStuckBit == 7 &&
                     m.column(col).weightStuckHigh;
        }
        if (seven)
            break;
    }
    ASSERT_LT(c.faultSeed, 500u) << "no seed sticks bit 7 high";
    auto conv = makeConv(3, 6, 5, 1, 2, 3);
    Twins t(c);
    const Tensor x = frame(Shape(1, 3, 6, 2 * c.columns), 4);
    expectSame(t.served.runConvolution(x, *conv, false),
               ColumnOracle::convolution(t.oracle, x, *conv, false),
               t.served, t.oracle, c.str());
}

/**
 * Max pooling over kernels 1-5, strides 1-3 and every pad below the
 * kernel, at widths 1-40, with every fault kind and column maps; two
 * calls per array.
 */
TEST(ColumnLanesTest, MaxPoolMatchesScalar)
{
    std::size_t cases = 0;
    for (std::size_t kernel = 1; kernel <= 5; ++kernel) {
        for (std::size_t stride = 1; stride <= 3; ++stride) {
            for (std::size_t pad = 0; pad < kernel; ++pad) {
                const nn::MaxPoolLayer pool("p",
                                            nn::PoolParams{kernel, stride,
                                                           pad});
                // Extents where every window holds an input pixel.
                const auto covered = [&](std::size_t n) {
                    return n + 2 * pad >= kernel &&
                           (pool.poolParams().outExtent(n) - 1) * stride <
                               n + pad;
                };
                if (!covered(kernel + 2))
                    continue;
                for (std::size_t w = 1; w <= 40; ++w) {
                    if (!covered(w))
                        continue;
                    Case c;
                    c.columns = (w + kernel) % 2 ? 16 : 32;
                    c.kind = (w + kernel + stride + pad) % kFaultKinds;
                    c.faultSeed = w + 40 * kernel;
                    c.map = w + stride;
                    c.seed = 1000 + cases;
                    Twins t(c);
                    for (std::uint64_t call = 0; call < 2; ++call) {
                        const Tensor x = frame(
                            Shape(1, 2, kernel + 2, w), cases * 2 + call);
                        expectSame(t.served.runMaxPool(x, pool),
                                   ColumnOracle::maxPool(t.oracle, x, pool),
                                   t.served, t.oracle,
                                   "pool " + std::to_string(kernel) + "/" +
                                       std::to_string(stride) + "/" +
                                       std::to_string(pad) + " width " +
                                       std::to_string(w) + ", " +
                                       c.str());
                    }
                    ++cases;
                }
            }
        }
    }
    EXPECT_GT(cases, 1000u);
}

/** A NaN candidate takes the near-tie path in both, and never routes. */
TEST(ColumnLanesTest, MaxPoolNaNMatchesScalar)
{
    const nn::MaxPoolLayer pool("p", nn::PoolParams{3, 2, 1});
    Tensor x = frame(Shape(1, 2, 7, 19), 5);
    x[3] = std::numeric_limits<float>::quiet_NaN();
    x[40] = std::numeric_limits<float>::quiet_NaN();
    Case c;
    Twins t(c);
    expectSame(t.served.runMaxPool(x, pool),
               ColumnOracle::maxPool(t.oracle, x, pool), t.served,
               t.oracle, "NaN pool");
}

/**
 * SAR readout at 1-10 bits over widths 1-40, with every fault kind
 * (ADC stuck bits inside and above the resolution) and column maps;
 * two calls per array.
 */
TEST(ColumnLanesTest, QuantizationMatchesScalar)
{
    bool stuck_inside = false;
    bool stuck_above = false;
    for (unsigned bits = 1; bits <= 10; ++bits) {
        for (std::size_t w = 1; w <= 40; ++w) {
            Case c;
            c.columns = (w + bits) % 2 ? 16 : 32;
            c.adcBits = bits;
            c.kind = (w + bits) % kFaultKinds;
            c.faultSeed = w + 50 * bits;
            c.map = w + bits;
            c.seed = 5000 + 64 * bits + w;
            Twins t(c);
            for (std::size_t x = 0; x < w; ++x) {
                const std::size_t col =
                    t.served.columnMap().empty()
                        ? x % c.columns
                        : t.served.columnMap()[x %
                                               t.served.columnMap().size()];
                const int b = c.kind % kFaultKinds == 0
                                  ? -1
                                  : t.model.column(col).adcStuckBit;
                stuck_inside |= b >= 0 && b < static_cast<int>(bits);
                stuck_above |= b >= static_cast<int>(bits);
            }
            for (std::uint64_t call = 0; call < 2; ++call) {
                const Tensor in =
                    frame(Shape(1, 3, 4, w), w * 11 + bits + call, -0.2f);
                expectSame(t.served.runQuantization(in),
                           ColumnOracle::quantization(t.oracle, in),
                           t.served, t.oracle,
                           "readout width " + std::to_string(w) + ", " +
                               c.str());
            }
        }
    }
    EXPECT_TRUE(stuck_inside);
    EXPECT_TRUE(stuck_above);
}

/**
 * Each lane tallies exactly what one scalar DecisionBatch does with the
 * same decisions: counts, the running product of margins and its
 * frexp exponent (so the renormalization schedule), and the near-tie
 * energy, summed in the lane's order. Margins span far, exact and near
 * ties and products that renormalize often; lanes idle at random.
 */
TEST(ColumnLanesTest, DecisionLanesTallyAsScalarBatches)
{
    const DynamicComparator model(analog::ComparatorParams{},
                                  analog::ProcessParams::typical());
    const DecisionConstants k = model.decisionConstants();
    constexpr std::uint64_t kKey = 0x7a11e5;
    std::vector<DynamicComparator> cmps(
        lanes::kWidth,
        DynamicComparator(analog::ComparatorParams{},
                          analog::ProcessParams::typical()));
    std::vector<DecisionBatch> batches;
    for (DynamicComparator &c : cmps)
        batches.emplace_back(c, k, kKey);
    analog::DecisionLanes decisions(model, k, kKey);
    Rng rng(0x7a1);
    lanes::U64 counter{};
    for (std::size_t l = 0; l < lanes::kWidth; ++l)
        counter[l] = 1000 * l;
    for (int step = 0; step < 20000; ++step) {
        lanes::F64 delta{};
        lanes::I64 active{};
        lanes::I64 routes{};
        for (std::size_t l = 0; l < lanes::kWidth; ++l) {
            const double u = rng.uniform();
            const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
            delta[l] = u < 0.3    ? 0.0
                       : u < 0.35 ? sign * rng.uniform(0.0, k.band)
                       : u < 0.4  ? sign * k.swing * 2.0
                                  : sign * std::exp(rng.uniform(-12.0, 0.0));
            active[l] = rng.uniform() < 0.8 ? -1 : 0;
            routes[l] = rng.uniform() < 0.5 ? -1 : 0;
        }
        lanes::I64 greater{};
        decisions.decide(delta, counter, active, routes, greater);
        for (std::size_t l = 0; l < lanes::kWidth; ++l) {
            if (!active[l])
                continue;
            const bool want = batches[l].decide(delta[l], counter[l]);
            const bool routed = delta[l] != 0.0 || routes[l];
            if (routed) {
                ASSERT_EQ(greater[l] != 0, want) << "step " << step;
            }
            ++counter[l];
        }
    }
    for (std::size_t l = 0; l < lanes::kWidth; ++l) {
        const analog::DecisionTally got = decisions.tally(l);
        const analog::DecisionTally want = batches[l].tally();
        EXPECT_EQ(got.far, want.far) << l;
        EXPECT_EQ(got.logged, want.logged) << l;
        EXPECT_EQ(got.margins, want.margins) << l;
        EXPECT_EQ(got.marginExp, want.marginExp) << l;
        EXPECT_EQ(got.ties, want.ties) << l;
        EXPECT_EQ(got.tiesForced, want.tiesForced) << l;
        EXPECT_EQ(got.near, want.near) << l;
        EXPECT_EQ(got.nearForced, want.nearForced) << l;
        EXPECT_EQ(got.nearJ, want.nearJ) << l;
        // Many renormalizations, each at most 2^-512 apart.
        EXPECT_LT(got.marginExp, -10 * 512) << l;
    }
}

/**
 * The readVar memo lives in the calling thread's Scratch and outlives
 * the array. One thread interleaves calls that change each of its
 * inputs: two kernels of one shape, leaky and healthy columns, 30 and
 * 50 dB, a column remap, and the reference and blocked GEMMs, which
 * sum in different orders. Each result must equal the same call on a
 * fresh thread, whose Scratch is empty.
 */
TEST(ColumnLanesMemoTest, ReadVarMemoNeverGoesStale)
{
    // 16 x 5 x 5 = 400 taps: past the blocked GEMM's 256-deep panels,
    // so the two backends sum in different orders.
    auto conv_a = makeConv(16, 8, 5, 1, 2, 21);
    auto conv_b = makeConv(16, 8, 5, 1, 2, 22);
    const Tensor x = frame(Shape(1, 16, 8, 32), 23);
    struct Step {
        const nn::ConvolutionLayer *conv;
        double snr;
        bool leaky;
        bool remap;
        kernels::Backend backend;
    };
    using kernels::Backend;
    const nn::ConvolutionLayer *a = conv_a.get();
    const nn::ConvolutionLayer *b = conv_b.get();
    const Step steps[] = {
        {a, 40, false, false, Backend::Blocked},
        {a, 40, false, false, Backend::Blocked},
        {b, 40, false, false, Backend::Blocked},
        {a, 40, true, false, Backend::Blocked},
        {a, 40, false, false, Backend::Blocked},
        {a, 30, false, false, Backend::Blocked},
        {a, 50, true, false, Backend::Blocked},
        {a, 50, true, true, Backend::Blocked},
        {a, 50, false, true, Backend::Blocked},
        {b, 30, true, true, Backend::Blocked},
        {a, 40, false, false, Backend::Blocked},
        {a, 40, false, false, Backend::Reference},
        {a, 40, false, false, Backend::Blocked},
        {b, 40, true, false, Backend::Reference},
        {b, 40, true, false, Backend::Blocked},
    };
    const fault::FaultModel leaks(faults(3, 9), 32);
    const auto run = [&](const Step &s) {
        Case c;
        c.columns = 32;
        c.snr = s.snr;
        ColumnArray array(configOf(c), analog::ProcessParams::typical(),
                          Rng(31));
        if (s.leaky)
            array.armFaults(&leaks, 0);
        if (s.remap)
            array.setColumnMap(columnMap(2, 32));
        // The layer is only read.
        auto &conv = const_cast<nn::ConvolutionLayer &>(*s.conv);
        return array.runConvolution(x, conv, true);
    };
    kernels::setBackend(Backend::Reference);
    const Tensor reference = run(steps[0]);
    kernels::setBackend(Backend::Blocked);
    const Tensor blocked = run(steps[0]);
    ASSERT_NE(std::memcmp(reference.data(), blocked.data(),
                          reference.size() * sizeof(float)),
              0)
        << "the backends agree on this shape: the backend steps check "
           "nothing";
    std::size_t i = 0;
    for (const Step &s : steps) {
        kernels::setBackend(s.backend);
        const Tensor got = run(s);
        Tensor want;
        std::thread([&] { want = run(s); }).join();
        ASSERT_EQ(got.shape(), want.shape());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << "step " << i;
        ++i;
    }
    kernels::clearBackendOverride();
}

/**
 * RedEyeDevice::run serves, on 64 sensor-sampled replay frames through
 * the trained network's conv1, pool1 and readout, exactly what the
 * scalar chain computes on a twin device: features, energy and forced
 * decisions.
 */
TEST(ColumnLanesServedTest, DeviceRunMatchesScalarChain)
{
    constexpr std::size_t kFrames = 64;
    auto net = sim::pretrainedMiniGoogLeNet().net;
    const std::vector<std::string> layers =
        models::miniGoogLeNetAnalogLayers(1);
    auto &conv1 = static_cast<nn::ConvolutionLayer &>(net->layer("conv1"));
    auto &pool1 = static_cast<nn::MaxPoolLayer &>(net->layer("pool1"));
    Rng replay_rng(0x1a9e5);
    const data::Dataset replay =
        data::generateShapes(7, data::ShapesParams{}, replay_rng);
    noise::SensorSamplingLayer sensor("sensor", noise::SensorParams{},
                                      Rng(0x5e9505));
    ColumnArrayConfig cfg;
    cfg.columns = models::kMiniInputSize;
    for (std::size_t i = 0; i < kFrames; ++i) {
        const Tensor image = replay.images.slice(i % replay.size());
        Tensor x;
        sensor.setPass(i);
        sensor.forward({&image}, x);
        const Rng seed(0xde7 + i);
        RedEyeDevice device(cfg, analog::ProcessParams::typical(), seed);
        const DeviceRun run = device.run(*net, layers, x);

        RedEyeDevice twin(cfg, analog::ProcessParams::typical(), seed);
        ColumnArray &a = twin.array();
        a.resetEnergy();
        // conv1/relu is folded into the conv: no clip follows it.
        const Tensor c = ColumnOracle::convolution(a, x, conv1, true);
        const Tensor p = ColumnOracle::maxPool(a, c, pool1);
        const Tensor q = ColumnOracle::quantization(a, p);
        ASSERT_EQ(run.features.shape(), q.shape());
        EXPECT_EQ(std::memcmp(run.features.data(), q.data(),
                              q.size() * sizeof(float)),
                  0)
            << "frame " << i;
        const EnergyBreakdown e = a.energy();
        EXPECT_EQ(run.energy.macJ, e.macJ) << "frame " << i;
        EXPECT_EQ(run.energy.memoryJ, e.memoryJ) << "frame " << i;
        EXPECT_EQ(run.energy.comparatorJ, e.comparatorJ) << "frame " << i;
        EXPECT_EQ(run.energy.readoutJ, e.readoutJ) << "frame " << i;
        EXPECT_EQ(run.forcedDecisions, a.forcedDecisions())
            << "frame " << i;
    }
}

} // namespace
} // namespace arch
} // namespace redeye
