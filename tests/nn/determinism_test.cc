/**
 * @file
 * Thread-count determinism of the execution-context API.
 *
 * The contract (core/exec.hh): forward activations — including the
 * stochastic noise layers — are bit-identical at any thread count;
 * backward parameter gradients are deterministic for a fixed thread
 * count.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/exec.hh"
#include "core/rng.hh"
#include "core/workspace.hh"
#include "nn/activation.hh"
#include "nn/conv.hh"
#include "nn/dropout.hh"
#include "nn/inner_product.hh"
#include "nn/lrn.hh"
#include "nn/network.hh"
#include "nn/pool.hh"
#include "nn/softmax.hh"
#include "noise/gaussian_layer.hh"
#include "noise/quantization_layer.hh"
#include "noise/sensor_noise.hh"
#include "tensor/kernels.hh"

namespace redeye {
namespace nn {
namespace {

constexpr std::uint64_t kWeightSeed = 0xbeef;

/**
 * Small classifier exercising every parallelized layer kind plus the
 * three stochastic noise layers: the sensor at its head, then Gaussian
 * and quantization noise. Identical calls produce identical nets.
 */
std::unique_ptr<Network>
buildNet()
{
    Rng rng(kWeightSeed);
    auto net = std::make_unique<Network>("det");
    net->setInputShape(Shape(1, 3, 16, 16));
    net->add(std::make_unique<noise::SensorSamplingLayer>(
                 "s0", noise::SensorParams{}, Rng(0x44)),
             {kInputName});
    auto &c1 = static_cast<ConvolutionLayer &>(
        net->add(std::make_unique<ConvolutionLayer>(
            "c1", ConvParams::square(8, 3, 1, 1))));
    c1.initHe(rng);
    net->add(std::make_unique<noise::GaussianNoiseLayer>(
        "g1", 30.0, Rng(0x11)));
    net->add(std::make_unique<ReluLayer>("r1"));
    net->add(std::make_unique<LrnLayer>("n1", LrnParams{}));
    net->add(std::make_unique<MaxPoolLayer>("p1",
                                            PoolParams{2, 2, 0}));
    net->add(std::make_unique<noise::QuantizationNoiseLayer>(
        "q1", 6, Rng(0x22)));
    net->add(std::make_unique<DropoutLayer>("d1", 0.3f, Rng(0x33)));
    auto &fc = static_cast<InnerProductLayer &>(
        net->add(std::make_unique<InnerProductLayer>("fc", 10)));
    fc.initHe(rng);
    net->add(std::make_unique<SoftmaxLayer>("sm"));
    return net;
}

Tensor
testInput()
{
    Rng rng(0x77);
    Tensor x(Shape(8, 3, 16, 16));
    x.fillGaussian(rng, 0.5f, 0.25f);
    return x;
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

void
expectActivationsMatch(Network &a, Network &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string &name = a.layerAt(i).name();
        EXPECT_TRUE(bitIdentical(a.activation(name),
                                 b.activation(name)))
            << "layer '" << name << "' diverges";
    }
}

TEST(DeterminismTest, ForwardBitIdenticalOneVsEightThreads)
{
    auto serial_net = buildNet();
    auto pooled_net = buildNet();
    const Tensor x = testInput();

    serial_net->forward(x); // serial-context overload

    ThreadPool pool(8);
    ExecContext ctx(pool);
    pooled_net->forward(x, ctx);

    expectActivationsMatch(*serial_net, *pooled_net);
}

TEST(DeterminismTest, ForwardBitIdenticalAcrossThreadCounts)
{
    auto ref_net = buildNet();
    const Tensor x = testInput();
    ref_net->forward(x);
    const Tensor ref = ref_net->activation("sm");

    for (std::size_t threads : {2, 3, 5, 16}) {
        auto net = buildNet();
        ThreadPool pool(threads);
        ExecContext ctx(pool);
        net->forward(x, ctx);
        EXPECT_TRUE(bitIdentical(ref, net->activation("sm")))
            << "diverges at " << threads << " threads";
    }
}

TEST(DeterminismTest, RepeatedForwardDrawsFreshNoiseDeterministically)
{
    auto serial_net = buildNet();
    auto pooled_net = buildNet();
    const Tensor x = testInput();

    ThreadPool pool(8);
    ExecContext ctx(pool);

    serial_net->forward(x);
    const Tensor serial_first = serial_net->activation("g1");
    serial_net->forward(x);
    const Tensor serial_second = serial_net->activation("g1");

    pooled_net->forward(x, ctx);
    const Tensor pooled_first = pooled_net->activation("g1");
    pooled_net->forward(x, ctx);
    const Tensor pooled_second = pooled_net->activation("g1");

    // Pass counter advances: successive forwards draw fresh noise.
    EXPECT_FALSE(bitIdentical(serial_first, serial_second));
    // Yet each pass matches its same-numbered pass at any thread
    // count.
    EXPECT_TRUE(bitIdentical(serial_first, pooled_first));
    EXPECT_TRUE(bitIdentical(serial_second, pooled_second));
}

TEST(DeterminismTest, TrainingModeDropoutMasksMatchAcrossThreads)
{
    auto serial_net = buildNet();
    auto pooled_net = buildNet();
    const Tensor x = testInput();
    serial_net->setTraining(true);
    pooled_net->setTraining(true);

    ThreadPool pool(8);
    ExecContext ctx(pool);
    serial_net->forward(x);
    pooled_net->forward(x, ctx);
    expectActivationsMatch(*serial_net, *pooled_net);
}

TEST(DeterminismTest, BackwardDeterministicAtFixedThreadCount)
{
    auto net_a = buildNet();
    auto net_b = buildNet();
    const Tensor x = testInput();

    ThreadPool pool_a(4);
    ThreadPool pool_b(4);
    ExecContext ctx_a(pool_a);
    ExecContext ctx_b(pool_b);

    net_a->forward(x, ctx_a);
    net_b->forward(x, ctx_b);

    Tensor gy(net_a->activation("sm").shape(), 1.0f);
    net_a->zeroGrads();
    net_b->zeroGrads();
    const Tensor &gx_a = net_a->backward(gy, ctx_a);
    const Tensor &gx_b = net_b->backward(gy, ctx_b);

    EXPECT_TRUE(bitIdentical(gx_a, gx_b));
    const auto grads_a = net_a->paramGrads();
    const auto grads_b = net_b->paramGrads();
    ASSERT_EQ(grads_a.size(), grads_b.size());
    for (std::size_t i = 0; i < grads_a.size(); ++i)
        EXPECT_TRUE(bitIdentical(*grads_a[i], *grads_b[i]))
            << "parameter gradient " << i << " diverges";
}

/**
 * Kernel-backend extension of the determinism contract: each GEMM
 * backend must be bit-identical across thread counts (gemm calls are
 * single-threaded and chunking only partitions independent rows),
 * while the two backends may differ from each other only within
 * floating-point re-association tolerance.
 */
TEST(DeterminismTest, KernelBackendsBitIdenticalAcrossThreadCounts)
{
    const Tensor x = testInput();
    Tensor per_backend[2];

    for (kernels::Backend backend : {kernels::Backend::Reference,
                                     kernels::Backend::Blocked}) {
        kernels::setBackend(backend);

        auto serial_net = buildNet();
        serial_net->forward(x); // 1 thread
        const Tensor serial = serial_net->activation("sm");

        auto pooled_net = buildNet();
        ThreadPool pool(4);
        ExecContext ctx(pool);
        pooled_net->forward(x, ctx); // 4 threads
        EXPECT_TRUE(bitIdentical(serial,
                                 pooled_net->activation("sm")))
            << kernels::backendName(backend)
            << " backend diverges between 1 and 4 threads";

        per_backend[backend == kernels::Backend::Blocked] = serial;
    }
    kernels::clearBackendOverride();

    // Backends agree within tolerance (post-softmax outputs in
    // [0, 1]; re-association error is far below 1e-4).
    ASSERT_EQ(per_backend[0].size(), per_backend[1].size());
    for (std::size_t i = 0; i < per_backend[0].size(); ++i)
        EXPECT_NEAR(per_backend[0][i], per_backend[1][i], 1e-4f)
            << "backends diverge beyond tolerance at " << i;
}

/**
 * Batched-lowering extension of the contract: with a Workspace
 * attached, conv lowers the whole batch into one arena buffer and
 * issues a single gemmBatch (and the blocked backend fans the column
 * slivers over the pool). Every (backend, batch size, thread count)
 * combination must reproduce the plain serial forward bit for bit.
 */
TEST(DeterminismTest, WorkspaceBatchedLoweringBitIdentical)
{
    for (kernels::Backend backend : {kernels::Backend::Reference,
                                     kernels::Backend::Blocked}) {
        kernels::setBackend(backend);
        for (std::size_t batch : {1u, 4u, 16u}) {
            Rng rng(0x77 ^ batch);
            Tensor x(Shape(batch, 3, 16, 16));
            x.fillGaussian(rng, 0.5f, 0.25f);

            auto ref_net = buildNet();
            ref_net->forward(x); // serial, no workspace
            const Tensor &ref = ref_net->activation("sm");

            for (std::size_t threads : {2u, 8u}) {
                auto net = buildNet();
                ThreadPool pool(threads);
                Workspace ws(pool.threads());
                ExecContext ctx(pool);
                ctx.setWorkspace(&ws);
                net->forward(x, ctx);
                EXPECT_TRUE(bitIdentical(ref, net->activation("sm")))
                    << kernels::backendName(backend) << " batch "
                    << batch << " diverges at " << threads
                    << " threads";
            }
        }
    }
    kernels::clearBackendOverride();
}

TEST(DeterminismTest, ConstNetworkViewsMatchMutableOnes)
{
    auto net = buildNet();
    const Network &cnet = *net;
    EXPECT_EQ(cnet.parameterCount(), net->parameterCount());
    EXPECT_EQ(cnet.params().size(), net->params().size());
    EXPECT_EQ(cnet.paramGrads().size(), net->paramGrads().size());
    for (std::size_t i = 0; i < cnet.params().size(); ++i)
        EXPECT_EQ(cnet.params()[i], net->params()[i]);
}

} // namespace
} // namespace nn
} // namespace redeye
