/** @file Tests for the raw sensor sampling model. */

#include <cmath>

#include <gtest/gtest.h>

#include "core/stats.hh"
#include "noise/sensor_noise.hh"

namespace redeye {
namespace noise {
namespace {

SensorParams
quietSensor()
{
    SensorParams p;
    p.enablePoisson = false;
    p.enableFixedPattern = false;
    p.readNoiseSigma = 0.0;
    return p;
}

TEST(SensorTest, InverseGammaOnly)
{
    SensorSamplingLayer layer("s", quietSensor(), Rng(1));
    Tensor x(Shape(1, 1, 1, 3),
             std::vector<float>{0.0f, 0.5f, 1.0f});
    Tensor y;
    layer.forward({&x}, y);
    EXPECT_NEAR(y[0], 0.0f, 1e-6);
    EXPECT_NEAR(y[1], std::pow(0.5, 2.2), 1e-6);
    EXPECT_NEAR(y[2], 1.0f, 1e-6);
}

TEST(SensorTest, PoissonPreservesMeanAddsVariance)
{
    SensorParams p = quietSensor();
    p.enablePoisson = true;
    p.fullWellElectrons = 1000.0;
    SensorSamplingLayer layer("s", p, Rng(2));
    Tensor x(Shape(1, 1, 128, 128), 1.0f); // linear value 1.0
    Tensor y;
    layer.forward({&x}, y);
    RunningStat stat;
    stat.addRange(y.vec().begin(), y.vec().end());
    EXPECT_NEAR(stat.mean(), 1.0, 0.01);
    // Shot noise variance ~ N/well^2 = 1/1000.
    EXPECT_NEAR(stat.variance(), 1e-3, 3e-4);
}

TEST(SensorTest, PoissonAtFewElectronsHasFanoFactorOne)
{
    // A four-electron well puts the shot noise's mean below 10, where
    // the keyed sampler inverts instead of rejecting.
    SensorParams p = quietSensor();
    p.enablePoisson = true;
    p.fullWellElectrons = 4.0;
    SensorSamplingLayer layer("s", p, Rng(13));
    Tensor x(Shape(1, 1, 128, 128), 1.0f); // 4 electrons a pixel
    Tensor y;
    layer.forward({&x}, y);
    RunningStat electrons;
    for (float v : y.vec())
        electrons.add(4.0 * v);
    EXPECT_NEAR(electrons.mean(), 4.0, 0.06);
    EXPECT_NEAR(electrons.variance() / electrons.mean(), 1.0, 0.05);
}

TEST(SensorTest, LowLightIsNoisier)
{
    SensorParams bright = quietSensor();
    bright.enablePoisson = true;
    SensorParams dim = bright;
    dim.illuminationScale = 0.01; // ~1 lux

    SensorSamplingLayer lb("b", bright, Rng(3));
    SensorSamplingLayer ld("d", dim, Rng(3));
    Tensor x(Shape(1, 3, 64, 64), 0.8f);
    Tensor yb, yd;
    lb.forward({&x}, yb);
    ld.forward({&x}, yd);

    Tensor clean;
    SensorSamplingLayer ideal("i", quietSensor(), Rng(4));
    ideal.forward({&x}, clean);
    const double snr_bright = measureSnrDb(clean.vec(), yb.vec());
    const double snr_dim = measureSnrDb(clean.vec(), yd.vec());
    EXPECT_GT(snr_bright, snr_dim + 15.0);
}

TEST(SensorTest, FixedPatternIsStaticPerInstance)
{
    SensorParams p = quietSensor();
    p.enableFixedPattern = true;
    p.prnuSigma = 0.05;
    SensorSamplingLayer layer("s", p, Rng(5));
    Tensor x(Shape(1, 1, 16, 16), 1.0f);
    Tensor y1, y2;
    layer.forward({&x}, y1);
    layer.forward({&x}, y2);
    // Same die, same pattern: identical outputs without random noise.
    EXPECT_EQ(maxAbsDiff(y1, y2), 0.0f);
    // But the pattern itself varies across pixels.
    RunningStat stat;
    stat.addRange(y1.vec().begin(), y1.vec().end());
    EXPECT_GT(stat.stddev(), 0.01);
}

TEST(SensorTest, DifferentDiesDifferentPatterns)
{
    SensorParams p = quietSensor();
    p.enableFixedPattern = true;
    p.prnuSigma = 0.05;
    SensorSamplingLayer a("a", p, Rng(6));
    SensorSamplingLayer b("b", p, Rng(7));
    Tensor x(Shape(1, 1, 16, 16), 1.0f);
    Tensor ya, yb;
    a.forward({&x}, ya);
    b.forward({&x}, yb);
    EXPECT_GT(maxAbsDiff(ya, yb), 0.0f);
}

TEST(SensorTest, SetPassPinsTheNoiseStream)
{
    SensorParams p = quietSensor();
    p.enablePoisson = true;
    SensorSamplingLayer layer("s", p, Rng(8));
    Tensor x(Shape(1, 1, 16, 16), 0.5f);

    // The pass counter advances on every noisy forward...
    EXPECT_EQ(layer.pass(), 0u);
    Tensor pass0, pass1;
    layer.forward({&x}, pass0);
    layer.forward({&x}, pass1);
    EXPECT_EQ(layer.pass(), 2u);
    EXPECT_GT(maxAbsDiff(pass0, pass1), 0.0f); // fresh shot noise

    // ...and setPass() rewinds it: pass 1 replays exactly.
    layer.setPass(1);
    Tensor replay;
    layer.forward({&x}, replay);
    EXPECT_EQ(maxAbsDiff(replay, pass1), 0.0f);
}

TEST(SensorTest, ReplicasAgreeWhenKeyedByFrameIndex)
{
    // Two identically-seeded replicas (two stage workers) serve the
    // same frame index: with setPass() they realize identical noise
    // regardless of how many frames each has served before.
    SensorParams p = quietSensor();
    p.enablePoisson = true;
    p.enableFixedPattern = true;
    SensorSamplingLayer a("s", p, Rng(9));
    SensorSamplingLayer b("s", p, Rng(9));
    Tensor x(Shape(1, 1, 16, 16), 0.5f);

    Tensor scratch;
    for (int i = 0; i < 3; ++i)
        a.forward({&x}, scratch); // replica A is 3 frames ahead

    a.setPass(7);
    b.setPass(7);
    Tensor ya, yb;
    a.forward({&x}, ya);
    b.forward({&x}, yb);
    EXPECT_EQ(maxAbsDiff(ya, yb), 0.0f);
}

TEST(SensorTest, ExpectedSnrOrdering)
{
    SensorParams nominal;
    SensorParams dim = nominal;
    dim.illuminationScale = 0.01;
    SensorSamplingLayer ln("n", nominal, Rng(8));
    SensorSamplingLayer ld("d", dim, Rng(9));
    EXPECT_GT(ln.expectedSnrDb(), ld.expectedSnrDb());
    // Nominal conditions should comfortably exceed 25 dB.
    EXPECT_GT(ln.expectedSnrDb(), 25.0);
}

TEST(SensorTest, DisabledIsIdentity)
{
    SensorSamplingLayer layer("s", SensorParams{}, Rng(10));
    layer.setEnabled(false);
    Tensor x(Shape(1, 1, 4, 4), 0.3f);
    Tensor y;
    layer.forward({&x}, y);
    EXPECT_EQ(maxAbsDiff(x, y), 0.0f);
}

TEST(SensorTest, InvalidParamsFatal)
{
    SensorParams p;
    p.gamma = 0.0;
    EXPECT_EXIT(SensorSamplingLayer("s", p, Rng(11)),
                ::testing::ExitedWithCode(1), "gamma");
    SensorParams p2;
    p2.illuminationScale = 0.0;
    EXPECT_EXIT(SensorSamplingLayer("s", p2, Rng(12)),
                ::testing::ExitedWithCode(1), "illumination");
    // A negative sigma would mirror a pattern or switch noise off.
    SensorParams prnu;
    prnu.prnuSigma = -0.01;
    EXPECT_EXIT(SensorSamplingLayer("s", prnu, Rng(13)),
                ::testing::ExitedWithCode(1), "PRNU");
    SensorParams dsnu;
    dsnu.dsnuSigma = -0.002;
    EXPECT_EXIT(SensorSamplingLayer("s", dsnu, Rng(14)),
                ::testing::ExitedWithCode(1), "DSNU");
    SensorParams read;
    read.readNoiseSigma = -0.001;
    EXPECT_EXIT(SensorSamplingLayer("s", read, Rng(15)),
                ::testing::ExitedWithCode(1), "read noise");
}

} // namespace
} // namespace noise
} // namespace redeye
