/**
 * @file
 * Layer probes of the traced run. Each probe calls one module's public
 * functions the way the served path does and times every call from
 * benchmark code:
 *
 *  - redeye: a fresh RedEyeDevice per frame, seeded as the device
 *    stage seeds it; the constructor, each ColumnArray step of the
 *    depth-1 prefix, and RedEyeDevice::run on a second fresh device;
 *  - nn: the bypass host path's full MiniGoogLeNet and the depth-1
 *    tail under ExecContext::setLayerTimer, summed per block;
 *  - tensor: kernels::gemm on the network's GEMM shapes.
 *
 * The redeye and nn probes also time the served stage closure
 * (makeVisionStages' worker, as a runner builds it) on the same frame,
 * right after their own calls. The probe must produce the same output
 * and account for that time within a factor of kCoverageFactor, or it
 * is not measuring the served path. Timing the two side by side keeps
 * the ratio clear of the host's speed drift over seconds; it reads
 * 0.96-1.02 on a quiet host, but other tenants' bursts move the
 * medians of a few calls by more than 15%, so the check only catches
 * a probe that times another path or the served work twice.
 */

#include <array>
#include <cmath>
#include <functional>

#include "analog/process.hh"
#include "core/exec.hh"
#include "core/rng.hh"
#include "core/workspace.hh"
#include "json.hh"
#include "models/mini_googlenet.hh"
#include "nn/conv.hh"
#include "nn/pool.hh"
#include "nn/serialize.hh"
#include "perf.hh"
#include "redeye/device.hh"
#include "sim/pretrained.hh"
#include "tensor/kernels.hh"

namespace redeye::perf {

namespace {

using Worker = std::function<void(stream::StreamFrame &)>;

constexpr std::uint32_t kProbeLane = 8;
constexpr double kCoverageFactor = 1.5;

double
msBetween(std::int64_t from, std::int64_t to)
{
    return static_cast<double>(to - from) / 1e6;
}

/**
 * Note the probe / served-stage time ratio; outside [1/kCoverageFactor,
 * kCoverageFactor] it is a violation unless @p lenient (smoke runs
 * time one or two calls).
 */
void
checkCoverage(const std::string &what, const std::vector<double> &probe_ms,
              const std::vector<double> &served_ms, bool lenient, Result &r)
{
    const double ratio = median(probe_ms) / median(served_ms);
    r.note(what + "_probe_coverage", ratio, "ratio");
    if (!lenient && !(ratio >= 1.0 / kCoverageFactor &&
                      ratio <= kCoverageFactor))
        r.violate(what + " probe covers " + number(ratio) +
                  " of the served stage's time");
}

/** The first @p count replay frames after the served sensor stage. */
std::vector<Tensor>
sampledFrames(const Worker &sensor, std::size_t count)
{
    stream::ShapesReplaySource replay(
        stream::makeReplayDataset(kReplayPerClass, kReplaySeed));
    std::vector<Tensor> frames;
    for (std::size_t i = 0; i < count; ++i) {
        stream::StreamFrame f;
        replay.fill(i, f);
        sensor(f);
        frames.push_back(f.image);
    }
    return frames;
}

/**
 * Device probe; returns each frame's exported features. The layer
 * chain must reproduce RedEyeDevice::run bit for bit, and the served
 * device stage must export the same features.
 */
std::vector<Tensor>
redeyeProbe(const stream::VisionConfig &cfg, const Worker &stage,
            const std::vector<Tensor> &frames, bool lenient,
            SpanBuffer &spans, Result &r)
{
    // As the device stage's worker builds them (stream/vision.cc).
    Rng init(cfg.weightSeed);
    auto net = models::buildMiniGoogLeNet(cfg.classes, init);
    nn::copyWeightsByName(*net, *cfg.weights);
    const std::vector<std::string> layers =
        models::miniGoogLeNetAnalogLayers(cfg.depth);
    if (layers != std::vector<std::string>{"conv1", "conv1/relu",
                                           "pool1"})
        r.violate("redeye probe: expected the depth-1 prefix");
    arch::ColumnArrayConfig array;
    array.columns = models::kMiniInputSize;
    array.convSnrDb = cfg.convSnrDb;
    array.weightBits = cfg.weightBits;
    array.adcBits = cfg.adcBits;
    auto &conv1 = static_cast<nn::ConvolutionLayer &>(net->layer("conv1"));
    auto &pool1 = static_cast<nn::MaxPoolLayer &>(net->layer("pool1"));
    const nn::ConvParams &cp = conv1.convParams();

    std::vector<double> ctor, conv, pool, adc, run, probe, served;
    std::vector<Tensor> features;
    double conv_macs = 0.0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const std::uint64_t seed = streamRng(cfg.deviceSeed, 0, i).raw();
        const std::int64_t t0 = nowNs();
        arch::RedEyeDevice steps(array, analog::ProcessParams::typical(),
                                 Rng(seed));
        const std::int64_t t1 = nowNs();
        const Tensor c = steps.array().runConvolution(frames[i], conv1,
                                                      /*rectify=*/true);
        const std::int64_t t2 = nowNs();
        const Tensor p = steps.array().runMaxPool(c, pool1);
        const std::int64_t t3 = nowNs();
        const Tensor q = steps.array().runQuantization(p);
        const std::int64_t t4 = nowNs();
        arch::RedEyeDevice device(array, analog::ProcessParams::typical(),
                                  Rng(seed));
        const std::int64_t t5 = nowNs();
        arch::DeviceRun out = device.run(*net, layers, frames[i]);
        const std::int64_t t6 = nowNs();
        stream::StreamFrame f;
        f.index = i;
        f.image = frames[i];
        stage(f);
        const std::int64_t t7 = nowNs();

        const std::string at = "redeye probe: frame " + std::to_string(i);
        if (q.vec() != out.features.vec())
            r.violate(at + ": layer chain differs from RedEyeDevice::run");
        if (f.features.vec() != out.features.vec())
            r.violate(at + ": the device stage exported other features");
        const std::int32_t frame =
            spans.add("probe.redeye.frame", i, -1, kProbeLane, t0, t7);
        spans.add("redeye.device_ctor", i, frame, kProbeLane, t0, t1);
        spans.add("redeye.conv1", i, frame, kProbeLane, t1, t2);
        spans.add("redeye.pool1", i, frame, kProbeLane, t2, t3);
        spans.add("redeye.adc", i, frame, kProbeLane, t3, t4);
        spans.add("redeye.device_ctor", i, frame, kProbeLane, t4, t5);
        spans.add("redeye.device_run", i, frame, kProbeLane, t5, t6);
        spans.add("probe.redeye.served_stage", i, frame, kProbeLane, t6,
                  t7);
        ctor.push_back(msBetween(t0, t1));
        ctor.push_back(msBetween(t4, t5));
        conv.push_back(msBetween(t1, t2));
        pool.push_back(msBetween(t2, t3));
        adc.push_back(msBetween(t3, t4));
        run.push_back(msBetween(t5, t6));
        probe.push_back(msBetween(t4, t6));
        served.push_back(msBetween(t6, t7));
        conv_macs = static_cast<double>(c.size()) *
                    static_cast<double>(frames[i].shape().c * cp.kernelH *
                                        cp.kernelW);
        features.push_back(std::move(out.features));
    }
    r.set("redeye.device_ctor_ms", median(ctor));
    r.set("redeye.conv1_ms", median(conv));
    r.set("redeye.pool1_ms", median(pool));
    r.set("redeye.adc_ms", median(adc));
    r.set("redeye.device_run_ms", median(run));
    r.set("redeye.conv1_mmac_per_s", conv_macs / median(conv) / 1e3);
    checkCoverage("redeye", probe, served, lenient, r);
    return features;
}

/** MiniGoogLeNet blocks, by layer-name prefix; the rest is "head". */
constexpr std::size_t kHead = 6;
constexpr std::size_t kTail = 7;
constexpr const char *kBlockPrefix[kHead] = {
    "conv1", "pool1", "conv2", "pool2", "inception_a", "inception_b"};
constexpr const char *kBlockSpan[kTail + 1] = {
    "nn.full.conv1",       "nn.full.pool1",       "nn.full.conv2",
    "nn.full.pool2",       "nn.full.inception_a", "nn.full.inception_b",
    "nn.full.head",        "nn.tail"};
constexpr const char *kBlockMetric[kTail + 1] = {
    "nn.full.conv1_ms",       "nn.full.pool1_ms",
    "nn.full.conv2_ms",       "nn.full.pool2_ms",
    "nn.full.inception_a_ms", "nn.full.inception_b_ms",
    "nn.full.head_ms",        "nn.tail_ms"};

std::size_t
blockOf(const std::string &layer)
{
    for (std::size_t b = 0; b < kHead; ++b) {
        if (layer.rfind(kBlockPrefix[b], 0) == 0)
            return b;
    }
    return kHead;
}

/** Index of the largest logit. */
std::int32_t
argmax(const Tensor &logits)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < logits.size(); ++i) {
        if (logits[i] > logits[best])
            best = i;
    }
    return static_cast<std::int32_t>(best);
}

/**
 * Digital probe: the full network on sampled frames (the bypass host
 * path, checked against the served bypass host stage) and the depth-1
 * tail on the device probe's features.
 */
void
nnProbe(const stream::VisionConfig &cfg, const Worker &bypass_host,
        const std::vector<Tensor> &frames,
        const std::vector<Tensor> &features, std::size_t forwards,
        bool lenient, SpanBuffer &spans, Result &r)
{
    // The host worker's networks and serial context (stream/vision.cc).
    Rng init(cfg.weightSeed);
    auto full = models::buildMiniGoogLeNet(cfg.classes, init);
    nn::copyWeightsByName(*full, *cfg.weights);
    const Shape cut =
        full->nodeShape(models::miniGoogLeNetAnalogLayers(cfg.depth).back());
    auto tail =
        models::buildMiniGoogLeNetTail(cfg.depth, cfg.classes, cut, init);
    nn::copyWeightsByName(*tail, *full);
    Workspace workspace(1);
    ExecContext ctx;
    ctx.setWorkspace(&workspace);

    std::array<double, kTail + 1> seconds{};
    std::vector<std::int32_t> layer_spans;
    bool tail_pass = false;
    std::uint64_t item = 0;
    ctx.setLayerTimer([&](const std::string &layer, double s) {
        const std::size_t b = tail_pass ? kTail : blockOf(layer);
        seconds[b] += s;
        const std::int64_t end = nowNs();
        layer_spans.push_back(spans.add(kBlockSpan[b], item, -1,
                                        kProbeLane,
                                        end - std::llround(s * 1e9), end));
    });
    // One timed forward; returns its span.
    const auto forward = [&](nn::Network &net, const Tensor &in,
                             const char *span) {
        seconds.fill(0.0);
        layer_spans.clear();
        const std::int64_t t0 = nowNs();
        const std::int32_t predicted = argmax(net.forward(in, ctx));
        const std::int32_t f =
            spans.add(span, item, -1, kProbeLane, t0, nowNs());
        for (const std::int32_t s : layer_spans)
            spans.setParent(s, f);
        return std::pair{f, predicted};
    };

    // Two passes before timing settle activation plans and arenas.
    for (int k = 0; k < 2; ++k) {
        forward(*full, frames.front(), "nn.warmup");
        forward(*tail, features.front(), "nn.warmup");
    }
    std::array<std::vector<double>, kTail> full_ms;
    std::vector<double> probe, served;
    for (item = 0; item < forwards; ++item) {
        const Tensor &in = frames[item % frames.size()];
        const auto [span, predicted] = forward(*full, in, "nn.full.forward");
        double sum = 0.0;
        for (std::size_t b = 0; b < kTail; ++b) {
            full_ms[b].push_back(seconds[b] * 1e3);
            sum += seconds[b] * 1e3;
        }
        stream::StreamFrame f;
        f.index = item;
        f.features = in;
        f.analogBypassed = true;
        const std::int64_t t0 = nowNs();
        bypass_host(f);
        const std::int64_t t1 = nowNs();
        spans.add("probe.nn.served_stage", item, span, kProbeLane, t0, t1);
        probe.push_back(sum);
        served.push_back(msBetween(t0, t1));
        if (f.predicted != predicted)
            r.violate("nn probe: the host stage predicted otherwise on "
                      "forward " + std::to_string(item));
    }
    tail_pass = true;
    std::vector<double> tail_ms;
    for (item = 0; item < forwards; ++item) {
        forward(*tail, features[item % features.size()], "nn.tail.forward");
        tail_ms.push_back(seconds[kTail] * 1e3);
    }
    for (std::size_t b = 0; b < kTail; ++b)
        r.set(kBlockMetric[b], median(full_ms[b]));
    r.set(kBlockMetric[kTail], median(tail_ms));
    checkCoverage("nn", probe, served, lenient, r);
}

struct GemmShape {
    const char *metric;
    const char *span;
    std::size_t m, k, n;
};

/** bench/micro_kernels' shapes: conv lowerings and the classifier. */
constexpr GemmShape kGemmShapes[] = {
    {"tensor.gemm_gflops.conv1_5x5", "tensor.gemm.conv1_5x5", 32, 75,
     1024},
    {"tensor.gemm_gflops.conv2_3x3", "tensor.gemm.conv2_3x3", 48, 144, 225},
    {"tensor.gemm_gflops.inception_a_3x3", "tensor.gemm.inception_a_3x3",
     32, 144, 49},
    {"tensor.gemm_gflops.inception_b_3x3", "tensor.gemm.inception_b_3x3",
     48, 216, 49},
    {"tensor.gemm_gflops.classifier_fc_b16",
     "tensor.gemm.classifier_fc_b16", 16, 128, 10},
};

void
gemmProbe(std::size_t batches, std::uint64_t seed, SpanBuffer &spans,
          Result &r)
{
    Rng rng(seedFor(seed, 0x6e33));
    for (const GemmShape &g : kGemmShapes) {
        std::vector<float> a(g.m * g.k), b(g.k * g.n), c(g.m * g.n);
        for (float &v : a)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float &v : b)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        const auto product = [&] {
            kernels::gemm(a.data(), {g.m, g.k}, b.data(), {g.k, g.n},
                          c.data());
        };
        product();

        // Against a double-precision product, within the repo's
        // golden bound (k + 2) * eps * sum |a||b|.
        const double eps = std::numeric_limits<float>::epsilon();
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < g.m; ++i) {
            for (std::size_t j = 0; j < g.n; ++j) {
                double exact = 0.0;
                double magnitude = 0.0;
                for (std::size_t p = 0; p < g.k; ++p) {
                    const double term =
                        static_cast<double>(a[i * g.k + p]) *
                        b[p * g.n + j];
                    exact += term;
                    magnitude += std::fabs(term);
                }
                const double bound =
                    static_cast<double>(g.k + 2) * eps * magnitude;
                wrong += std::fabs(c[i * g.n + j] - exact) > bound;
            }
        }
        if (wrong)
            r.violate(std::string(g.span) + ": " + std::to_string(wrong) +
                      " elements outside the error bound");

        // Batches of back-to-back calls long enough to time well.
        std::vector<double> ns_per_call;
        for (std::size_t batch = 0; batch < batches; ++batch) {
            std::size_t calls = 0;
            const std::int64_t t0 = nowNs();
            std::int64_t t1 = t0;
            while (t1 - t0 < 2'000'000) {
                product();
                ++calls;
                t1 = nowNs();
            }
            spans.add(g.span, batch, -1, kProbeLane, t0, t1);
            ns_per_call.push_back(static_cast<double>(t1 - t0) /
                                  static_cast<double>(calls));
        }
        r.set(g.metric, 2.0 * static_cast<double>(g.m * g.k * g.n) /
                            median(ns_per_call));
    }
}

} // namespace

void
runLayerProbes(const RunSpec &spec, Result &r)
{
    const std::shared_ptr<nn::Network> weights =
        sim::pretrainedMiniGoogLeNet(spec.weightsPath).net;
    const stream::VisionConfig analog = visionConfig(false, weights);
    const std::vector<stream::StageSpec> analog_stages =
        stream::makeVisionStages(analog);
    const std::vector<stream::StageSpec> bypass_stages =
        stream::makeVisionStages(visionConfig(true, weights));

    const std::vector<Tensor> frames = sampledFrames(
        analog_stages[0].makeWorker(0), spec.smoke ? 1 : 8);
    const std::vector<Tensor> features =
        redeyeProbe(analog, analog_stages[1].makeWorker(0), frames,
                    spec.smoke, *spec.spans, r);
    nnProbe(analog, bypass_stages[2].makeWorker(0), frames, features,
            spec.smoke ? 2 : 32, spec.smoke, *spec.spans, r);
    gemmProbe(spec.smoke ? 1 : 9, spec.seed, *spec.spans, r);
}

} // namespace redeye::perf
