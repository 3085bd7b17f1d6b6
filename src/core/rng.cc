#include "core/rng.hh"

namespace redeye {

namespace {

/** SplitMix64 as a generator: the uniforms of one keyedPoisson draw. */
class SplitMixSequence
{
  public:
    explicit SplitMixSequence(std::uint64_t seed) : state_(seed) {}

    /** Next uniform, strictly inside (0, 1). */
    double
    uniform()
    {
        const std::uint64_t h = splitmix64(state_);
        state_ += 0x9e3779b97f4a7c15ULL;
        return openUnitFromBits(h);
    }

  private:
    std::uint64_t state_;
};

/**
 * ln k! for integral @p k >= 0: a table below 10, else Stirling's
 * series for ln Gamma(k + 1) to the x^-9 term (truncation below 1e-14).
 */
double
lnFactorial(double k)
{
    static constexpr double kSmall[10] = {
        0.0,
        0.0,
        0.693147180559945309417,
        1.79175946922805500081,
        3.17805383034794561965,
        4.78749174278204599425,
        6.57925121201010099506,
        8.52516136106541430017,
        10.6046029027452502284,
        12.8018274800814696112,
    };
    if (k < 10.0)
        return kSmall[static_cast<int>(k)];
    const double x = k + 1.0;
    const double r2 = 1.0 / (x * x);
    const double series =
        (1.0 / 12.0 -
         r2 * (1.0 / 360.0 -
               r2 * (1.0 / 1260.0 - r2 * (1.0 / 1680.0 - r2 / 1188.0)))) /
        x;
    // 0.918... = ln(2 pi) / 2.
    return (x - 0.5) * std::log(x) - x + 0.91893853320467274178 + series;
}

} // namespace

std::int64_t
keyedPoisson(std::uint64_t key, std::uint64_t counter, double mean)
{
    if (mean <= 0.0)
        return 0;
    SplitMixSequence seq(keyedBits(key, 2 * counter + 1));
    if (mean < 10.0) {
        // The count of uniforms whose running product stays above
        // e^-mean.
        const double floor_p = std::exp(-mean);
        std::int64_t k = 0;
        for (double prod = seq.uniform(); prod > floor_p;
             prod *= seq.uniform())
            ++k;
        return k;
    }
    // PTRS: W. Hörmann, "The transformed rejection method for
    // generating Poisson random variables", Insurance: Mathematics and
    // Economics 12 (1993). Valid for mean >= 10.
    const double b = 0.931 + 2.53 * std::sqrt(mean);
    const double a = -0.059 + 0.02483 * b;
    const double v_r = 0.9277 - 3.6224 / (b - 2.0);
    for (;;) {
        const double u = seq.uniform() - 0.5;
        const double v = seq.uniform();
        const double us = 0.5 - std::fabs(u);
        const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
        // The squeeze accepts most draws before any log is taken.
        if (us >= 0.07 && v <= v_r)
            return static_cast<std::int64_t>(k);
        if (k < 0.0 || (us < 0.013 && v > us))
            continue;
        const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
        if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
            -mean + k * std::log(mean) - lnFactorial(k))
            return static_cast<std::int64_t>(k);
    }
}

} // namespace redeye
