/**
 * @file
 * Microbenchmarks of the analog circuit primitives, plus the Section
 * IV-A ablation: charge-sharing tunable capacitor versus the naive
 * binary-weighted MAC sampling array (the 32x energy claim), and the
 * column array's two engines for each stage on MiniGoogLeNet's conv1,
 * pool1 and 4-bit readout shapes.
 */

#include <benchmark/benchmark.h>

#include "analog/comparator.hh"
#include "analog/mac_unit.hh"
#include "analog/memory_cell.hh"
#include "analog/sar_adc.hh"
#include "analog/tunable_cap.hh"
#include "core/rng.hh"
#include "nn/conv.hh"
#include "nn/pool.hh"
#include "redeye/column.hh"

using namespace redeye;
using namespace redeye::analog;

namespace {

void
BM_TunableCapApply(benchmark::State &state)
{
    TunableCapacitor cap(8, ProcessParams::typical());
    Rng rng(1);
    double v = 0.3;
    for (auto _ : state) {
        v = cap.apply(0.4, 173, rng);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_TunableCapApply);

void
BM_MacWindow(benchmark::State &state)
{
    MacUnit mac(MacParams{}, ProcessParams::typical());
    mac.setSnrDb(40.0);
    Rng rng(2);
    const auto taps = static_cast<std::size_t>(state.range(0));
    std::vector<double> x(taps, 0.1);
    std::vector<int> w(taps, 93);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mac.multiplyAccumulate(x, w, rng));
    }
    state.counters["energy_pJ_per_window"] =
        mac.energyPerWindow(taps) * 1e12;
}
BENCHMARK(BM_MacWindow)->Arg(9)->Arg(147)->Arg(576);

void
BM_ComparatorDecision(benchmark::State &state)
{
    DynamicComparator cmp(ComparatorParams{},
                          ProcessParams::typical());
    Rng rng(3);
    double a = 0.4;
    for (auto _ : state) {
        const auto d = cmp.compare(a, 0.35, rng);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_ComparatorDecision);

void
BM_SarConversion(benchmark::State &state)
{
    SarAdcParams params;
    Rng seed(4);
    SarAdc adc(params, ProcessParams::typical(), seed);
    adc.setResolution(static_cast<unsigned>(state.range(0)));
    Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(adc.convert(0.37, rng));
    }
    state.counters["energy_pJ_per_conv"] =
        adc.energyPerConversion() * 1e12;
}
BENCHMARK(BM_SarConversion)->Arg(4)->Arg(8)->Arg(10);

void
BM_MemoryCellWriteRead(benchmark::State &state)
{
    AnalogMemoryCell cell(MemoryCellParams{},
                          ProcessParams::typical());
    Rng rng(6);
    for (auto _ : state) {
        cell.write(0.5, rng);
        benchmark::DoNotOptimize(cell.read(rng));
    }
}
BENCHMARK(BM_MemoryCellWriteRead);

/** The Section IV-A ablation as a reported counter. */
void
BM_ChargeSharingVsNaive(benchmark::State &state)
{
    TunableCapacitor cap(8, ProcessParams::typical());
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cap.apply(0.4, 255, rng));
    }
    state.counters["naive_over_sharing_energy"] =
        cap.naiveDesignEnergy() / cap.worstCaseEnergy();
}
BENCHMARK(BM_ChargeSharingVsNaive);

/**
 * One conv1 call (3 -> 32 channels, 5x5, pad 2, 32x32 frame, 32
 * columns at 40 dB): arg 0 the per-tap reference engine, arg 1 the
 * closed-form engine runConvolution() serves.
 */
void
BM_ColumnConvolution(benchmark::State &state)
{
    const bool closed_form = state.range(0) != 0;
    Rng rng(8);
    nn::ConvolutionLayer conv("conv1", nn::ConvParams::square(32, 5, 1, 2));
    Tensor x(Shape(1, 3, 32, 32));
    x.fillUniform(rng, 0.0f, 1.0f);
    (void)conv.outputShape({x.shape()});
    conv.initHe(rng);
    arch::ColumnArrayConfig cfg;
    cfg.columns = 32;
    arch::ColumnArray array(cfg, ProcessParams::typical(), Rng(9));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            closed_form ? array.runConvolution(x, conv, true)
                        : array.runConvolutionReference(x, conv, true));
    }
    state.SetLabel(closed_form ? "closed-form" : "reference");
    state.counters["MMAC"] = benchmark::Counter(
        32.0 * 75.0 * 1024.0 * 1e-6 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ColumnConvolution)
    ->ArgName("closed_form")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/** Rectified conv1 output (32 x 32 x 32), as pool1 receives it. */
Tensor
conv1Output()
{
    Rng rng(10);
    nn::ConvolutionLayer conv("conv1", nn::ConvParams::square(32, 5, 1, 2));
    Tensor x(Shape(1, 3, 32, 32));
    x.fillUniform(rng, 0.0f, 1.0f);
    (void)conv.outputShape({x.shape()});
    conv.initHe(rng);
    arch::ColumnArrayConfig cfg;
    arch::ColumnArray array(cfg, ProcessParams::typical(), Rng(11));
    return array.runConvolution(x, conv, true);
}

const nn::MaxPoolLayer kPool1("pool1", nn::PoolParams{3, 2, 0});

/**
 * One pool1 call (32 x 32 x 32 -> 32 x 16 x 16, 3x3 stride 2, ceil
 * mode): arg 0 the per-decision reference engine, arg 1 the closed
 * form.
 */
void
BM_ColumnMaxPool(benchmark::State &state)
{
    const bool closed_form = state.range(0) != 0;
    const Tensor c = conv1Output();
    arch::ColumnArrayConfig cfg;
    arch::ColumnArray array(cfg, ProcessParams::typical(), Rng(12));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            closed_form ? array.runMaxPool(c, kPool1)
                        : array.runMaxPoolReference(c, kPool1));
    }
    state.SetLabel(closed_form ? "closed-form" : "reference");
}
BENCHMARK(BM_ColumnMaxPool)
    ->ArgName("closed_form")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * One 4-bit readout of pool1's output (32 x 16 x 16): arg 0 the
 * per-conversion reference engine, arg 1 the closed form.
 */
void
BM_ColumnQuantization(benchmark::State &state)
{
    const bool closed_form = state.range(0) != 0;
    arch::ColumnArrayConfig cfg;
    cfg.adcBits = 4;
    arch::ColumnArray array(cfg, ProcessParams::typical(), Rng(13));
    const Tensor p = array.runMaxPool(conv1Output(), kPool1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            closed_form ? array.runQuantization(p)
                        : array.runQuantizationReference(p));
    }
    state.SetLabel(closed_form ? "closed-form" : "reference");
}
BENCHMARK(BM_ColumnQuantization)
    ->ArgName("closed_form")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
