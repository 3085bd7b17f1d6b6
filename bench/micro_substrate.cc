/**
 * @file
 * Microbenchmarks of the ConvNet substrate: convolution forward and
 * backward throughput, the served pooling shapes, Tensor::absMax, the
 * keyed noise samplers (and a per-draw seeded engine beside them),
 * noise-layer overheads, dataset generation, and serial-vs-parallel
 * network forward scaling.
 *
 * Pass `--csv <path>` (in addition to the usual benchmark flags) to
 * also write every measurement to a CSV file — the shared flag idiom
 * of core/csv.hh, lowered onto the benchmark library's CSV reporter.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "core/exec.hh"
#include "core/rng.hh"
#include "core/workspace.hh"
#include "data/shapes_dataset.hh"
#include "models/mini_googlenet.hh"
#include "nn/conv.hh"
#include "nn/pool.hh"
#include "noise/gaussian_layer.hh"
#include "noise/quantization_layer.hh"
#include "noise/sensor_noise.hh"
#include "tensor/im2col.hh"

using namespace redeye;

namespace {

void
BM_ConvForward(benchmark::State &state)
{
    Rng rng(1);
    nn::ConvolutionLayer conv("c",
                              nn::ConvParams::square(32, 3, 1, 1));
    Tensor x(Shape(1, 16, 32, 32));
    x.fillGaussian(rng, 0.0f, 1.0f);
    (void)conv.outputShape({x.shape()});
    conv.initHe(rng);
    Tensor y;
    for (auto _ : state) {
        conv.forward({&x}, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.counters["MACs"] = benchmark::Counter(
        static_cast<double>(conv.macCount({x.shape()})),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ConvForward);

void
BM_ConvBackward(benchmark::State &state)
{
    Rng rng(2);
    nn::ConvolutionLayer conv("c",
                              nn::ConvParams::square(32, 3, 1, 1));
    Tensor x(Shape(1, 16, 32, 32));
    x.fillGaussian(rng, 0.0f, 1.0f);
    (void)conv.outputShape({x.shape()});
    conv.initHe(rng);
    Tensor y;
    conv.forward({&x}, y);
    Tensor gy(y.shape(), 1.0f);
    std::vector<Tensor> gx{Tensor(x.shape())};
    for (auto _ : state) {
        gx[0].zero();
        conv.backward({&x}, y, gy, gx);
        benchmark::DoNotOptimize(gx[0].data());
    }
}
BENCHMARK(BM_ConvBackward);

void
BM_MaxPoolForward(benchmark::State &state)
{
    Rng rng(3);
    nn::MaxPoolLayer pool("p", nn::PoolParams{3, 2, 0});
    Tensor x(Shape(1, 64, 57, 57));
    x.fillGaussian(rng, 0.0f, 1.0f);
    Tensor y;
    for (auto _ : state) {
        pool.forward({&x}, y);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_MaxPoolForward);

/**
 * One forward of a pooling layer the stream workloads serve, on
 * rectified inputs (every served pool follows a ReLU), with a
 * workspace attached as a serving worker's context has.
 */
template <typename Pool>
void
servedPoolForward(benchmark::State &state, const Shape &shape,
                  const nn::PoolParams &params)
{
    Rng rng(3);
    Pool pool("p", params);
    Tensor x(shape);
    x.fillGaussian(rng, 0.0f, 1.0f);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::max(x[i], 0.0f);
    Workspace ws;
    ExecContext ctx;
    ctx.setWorkspace(&ws);
    Tensor y;
    for (auto _ : state) {
        pool.forward({&x}, y, ctx);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
}

void
BM_ServedMaxPool(benchmark::State &state, Shape shape,
                 nn::PoolParams params)
{
    servedPoolForward<nn::MaxPoolLayer>(state, shape, params);
}
BENCHMARK_CAPTURE(BM_ServedMaxPool, pool1, Shape(1, 32, 32, 32),
                  nn::PoolParams{3, 2, 0});
BENCHMARK_CAPTURE(BM_ServedMaxPool, pool2, Shape(1, 48, 16, 16),
                  nn::PoolParams{3, 2, 0});
// inception_b's pool branch; inception_a's pools pool2's 48 channels.
BENCHMARK_CAPTURE(BM_ServedMaxPool, inception, Shape(1, 88, 8, 8),
                  nn::PoolParams{3, 1, 1});
BENCHMARK_CAPTURE(BM_ServedMaxPool, inception_a, Shape(1, 48, 8, 8),
                  nn::PoolParams{3, 1, 1});

/**
 * One backward of pool1's max pool after a forward of the same input,
 * as training runs it; BM_ServedMaxPool/pool1 is its forward.
 */
void
BM_MaxPoolBackward(benchmark::State &state)
{
    Rng rng(3);
    nn::MaxPoolLayer pool("p", nn::PoolParams{3, 2, 0});
    Tensor x(Shape(1, 32, 32, 32));
    x.fillGaussian(rng, 0.0f, 1.0f);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::max(x[i], 0.0f);
    Tensor y;
    pool.forward({&x}, y);
    Tensor gy(y.shape(), 1.0f);
    std::vector<Tensor> gx{Tensor(x.shape())};
    for (auto _ : state) {
        gx[0].zero();
        pool.backward({&x}, y, gy, gx);
        benchmark::DoNotOptimize(gx[0].data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_MaxPoolBackward);

void
BM_ServedAvgPool(benchmark::State &state, Shape shape,
                 nn::PoolParams params)
{
    servedPoolForward<nn::AvgPoolLayer>(state, shape, params);
}
BENCHMARK_CAPTURE(BM_ServedAvgPool, global, Shape(1, 128, 8, 8),
                  nn::PoolParams{8, 1, 0});

void
BM_Im2Col(benchmark::State &state)
{
    Rng rng(4);
    Tensor x(Shape(1, 64, 57, 57));
    x.fillGaussian(rng, 0.0f, 1.0f);
    WindowParams wp{3, 3, 1, 1, 1, 1};
    std::vector<float> cols;
    for (auto _ : state) {
        im2col(x.data(), 64, 57, 57, wp, cols);
        benchmark::DoNotOptimize(cols.data());
    }
}
BENCHMARK(BM_Im2Col);

/**
 * Tensor::absMax of conv1's output (32 x 32 x 32 floats): an analog
 * frame takes the peak of a tensor this size several times.
 */
void
BM_TensorAbsMax(benchmark::State &state)
{
    Rng rng(12);
    Tensor x(Shape(1, 32, 32, 32));
    x.fillGaussian(rng, 0.0f, 1.0f);
    for (auto _ : state)
        benchmark::DoNotOptimize(x.absMax());
    state.counters["elements"] = benchmark::Counter(
        static_cast<double>(x.size()),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_TensorAbsMax);

void
BM_GaussianNoiseLayer(benchmark::State &state)
{
    noise::GaussianNoiseLayer layer("g", 40.0, Rng(5));
    Rng rng(6);
    Tensor x(Shape(1, 64, 57, 57));
    x.fillGaussian(rng, 0.0f, 1.0f);
    Tensor y;
    for (auto _ : state) {
        layer.forward({&x}, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.counters["elements"] = benchmark::Counter(
        static_cast<double>(x.size()),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GaussianNoiseLayer);

/** One conv1 frame's worth of keyed draws: 32 x 32 x 32 outputs. */
void
BM_KeyedGaussian(benchmark::State &state)
{
    constexpr std::uint64_t kDraws = 32768;
    std::uint64_t key = 0;
    for (auto _ : state) {
        double sum = 0.0;
        for (std::uint64_t i = 0; i < kDraws; ++i)
            sum += keyedGaussian(key, i);
        benchmark::DoNotOptimize(sum);
        ++key;
    }
    state.counters["draws"] = benchmark::Counter(
        static_cast<double>(kDraws),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_KeyedGaussian)->Unit(benchmark::kMicrosecond);

/**
 * One Gaussian per (seed, pass, item) triple, the way the fleet draws
 * its per-request jitter: an engine seeded by streamRng per draw
 * (arg 0) against the keyed streamGaussian (arg 1). `per_draw` is the
 * time of one draw.
 */
void
BM_StreamDraw(benchmark::State &state)
{
    constexpr std::uint64_t kDraws = 1024;
    const bool keyed = state.range(0) != 0;
    std::uint64_t pass = 0;
    for (auto _ : state) {
        double sum = 0.0;
        if (keyed) {
            for (std::uint64_t i = 0; i < kDraws; ++i)
                sum += streamGaussian(0x5eed, pass, i);
        } else {
            for (std::uint64_t i = 0; i < kDraws; ++i)
                sum += streamRng(0x5eed, pass, i).gaussian();
        }
        benchmark::DoNotOptimize(sum);
        ++pass;
    }
    state.SetLabel(keyed ? "streamGaussian" : "streamRng");
    state.counters["per_draw"] = benchmark::Counter(
        static_cast<double>(kDraws),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_StreamDraw)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/**
 * Shot noise at the sensor's means: the electron counts of 16
 * rendered 3 x 32 x 32 frames under the default SensorParams.
 */
void
BM_KeyedPoisson(benchmark::State &state)
{
    const noise::SensorParams sensor;
    Rng rng(11);
    std::vector<double> means;
    for (std::size_t f = 0; f < 16; ++f) {
        const Tensor frame = data::renderShape(
            f % data::kShapeClasses, data::ShapesParams{}, rng);
        for (float v : frame.vec()) {
            means.push_back(
                std::pow(std::clamp(static_cast<double>(v), 0.0, 1.0),
                         sensor.gamma) *
                sensor.fullWellElectrons);
        }
    }
    std::uint64_t key = 0;
    for (auto _ : state) {
        std::int64_t sum = 0;
        for (std::size_t i = 0; i < means.size(); ++i)
            sum += keyedPoisson(key, i, means[i]);
        benchmark::DoNotOptimize(sum);
        ++key;
    }
    state.counters["draws"] = benchmark::Counter(
        static_cast<double>(means.size()),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_KeyedPoisson)->Unit(benchmark::kMicrosecond);

/** The sensor front end on one rendered 3 x 32 x 32 frame. */
void
BM_SensorSampling(benchmark::State &state)
{
    noise::SensorSamplingLayer layer("s", noise::SensorParams{}, Rng(12));
    Rng rng(13);
    const Tensor x = data::renderShape(0, data::ShapesParams{}, rng);
    Tensor y;
    for (auto _ : state) {
        layer.forward({&x}, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.counters["pixels"] = benchmark::Counter(
        static_cast<double>(x.size()),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SensorSampling)->Unit(benchmark::kMicrosecond);

void
BM_QuantizationNoiseLayer(benchmark::State &state)
{
    noise::QuantizationNoiseLayer layer("q", 4, Rng(7));
    Rng rng(8);
    Tensor x(Shape(1, 64, 57, 57));
    x.fillGaussian(rng, 0.0f, 1.0f);
    Tensor y;
    for (auto _ : state) {
        layer.forward({&x}, y);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_QuantizationNoiseLayer);

/**
 * Batched forward through the depth-4 MiniGoogLeNet analog partition
 * under an ExecContext with Arg(0) threads. Run with Arg(1) for the
 * serial baseline; the "items/s" counter makes the serial-vs-parallel
 * comparison directly readable.
 */
void
BM_MiniPartitionForward(benchmark::State &state)
{
    const std::size_t threads =
        static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kBatch = 16;

    Rng rng(10);
    auto net = models::buildMiniGoogLeNetPrefix(4, rng);
    Tensor x(Shape(kBatch, 3, models::kMiniInputSize,
                   models::kMiniInputSize));
    x.fillGaussian(rng, 0.5f, 0.25f);

    ThreadPool pool(threads);
    ExecContext ctx(pool);
    for (auto _ : state) {
        const Tensor &y = net->forward(x, ctx);
        benchmark::DoNotOptimize(y.data());
    }
    state.counters["items/s"] = benchmark::Counter(
        static_cast<double>(kBatch),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MiniPartitionForward)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_RenderShape(benchmark::State &state)
{
    Rng rng(9);
    std::size_t label = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(data::renderShape(
            label++ % data::kShapeClasses, data::ShapesParams{},
            rng));
    }
}
BENCHMARK(BM_RenderShape);

} // namespace

int
main(int argc, char **argv)
{
    // Lower the repo-wide `--csv <path>` flag onto the benchmark
    // library's CSV file reporter (see micro_kernels.cc).
    static std::string out_flag;
    static char fmt_flag[] = "--benchmark_out_format=csv";
    if (std::string path = stripCsvFlag(argc, argv); !path.empty()) {
        out_flag = "--benchmark_out=" + path;
        argv[argc++] = out_flag.data();
        argv[argc++] = fmt_flag;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
