/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the simulator draws from an explicit,
 * seeded Rng so that whole experiments are bit-reproducible. Rng
 * supports fork(), deriving an independent child stream, so modules
 * can be given private streams without coupling their consumption.
 *
 * ## Counter-based per-item streams
 *
 * Stochastic layers (Gaussian/quantization noise, the sensor
 * sampling model, dropout) do not draw from one sequential engine
 * across a batch. Instead each forward pass derives one independent
 * stream per batch item from a (seed, pass, item) counter triple:
 *
 *     stream(seed, pass, item) =
 *         Rng(splitmix64(seed ^ splitmix64(pass * kPassSalt + item)))
 *
 * where `seed` is the layer's private base seed, `pass` counts the
 * layer's noisy forward passes, and `item` is the batch index. The
 * scheme makes the realized noise
 *
 *  - independent of thread count and scheduling: item i's draws come
 *    from its own engine regardless of which worker runs it;
 *  - independent of batch partitioning order within a pass: draws for
 *    item i never consume state that item j produced;
 *  - fresh across passes: the pass counter advances per forward, so
 *    repeated evaluations of the same batch see new noise, exactly
 *    like the old sequential-engine behaviour.
 *
 * streamRng() below implements the derivation.
 *
 * ## Counter-keyed draws
 *
 * Where a layer needs one Gaussian per output element, an engine per
 * element is too dear (an mt19937_64 seeds 312 words). keyedGaussian()
 * instead hashes a (key, counter) pair straight into one N(0, 1)
 * sample, so every element's draw is a pure function of its own index
 * and the order elements are visited in cannot matter.
 */

#ifndef REDEYE_CORE_RNG_HH
#define REDEYE_CORE_RNG_HH

#include <cmath>
#include <cstdint>
#include <random>

namespace redeye {

/**
 * Seeded pseudo-random stream. Thin wrapper over std::mt19937_64 with
 * the distributions the simulator needs.
 */
class Rng
{
  public:
    /** Construct with an explicit seed (default fixed for tests). */
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

    /** Derive an independent child stream from this one. */
    Rng
    fork()
    {
        return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo,
                                                           hi)(engine_);
    }

    /**
     * Gaussian with the given mean and standard deviation (>= 0).
     * Scales a standard normal draw: std::normal_distribution
     * requires stddev > 0, and a zero-sigma draw still consumes the
     * same engine words, so noise streams stay aligned.
     */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        return std::normal_distribution<double>()(engine_) * stddev +
               mean;
    }

    /** Poisson sample with the given mean (mean >= 0). */
    std::int64_t
    poisson(double mean)
    {
        if (mean <= 0.0)
            return 0;
        return std::poisson_distribution<std::int64_t>(mean)(engine_);
    }

    /** Bernoulli trial with success probability p. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine_);
    }

    /** Raw 64-bit draw. */
    std::uint64_t raw() { return engine_(); }

    /** Underlying engine, for use with std distributions. */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

/**
 * SplitMix64 finalizer: a bijective 64-bit mixer with full avalanche,
 * used to decorrelate counter-derived seeds.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Salt separating pass counters from item indices in streamRng(). */
inline constexpr std::uint64_t kPassSalt = 0x2545f4914f6cdd1dULL;

/**
 * Counter-based per-item stream: an Rng that depends only on the
 * (seed, pass, item) triple. See the file comment for the scheme and
 * its determinism guarantees.
 */
inline Rng
streamRng(std::uint64_t seed, std::uint64_t pass, std::uint64_t item)
{
    return Rng(splitmix64(seed ^ splitmix64(pass * kPassSalt + item)));
}

/**
 * Counter-keyed 64 random bits: a pure function of (@p key,
 * @p counter). The hash every counter-keyed draw is built from.
 */
inline std::uint64_t
keyedBits(std::uint64_t key, std::uint64_t counter)
{
    return splitmix64(key ^ splitmix64(counter));
}

/**
 * Counter-keyed standard normal: a pure function of (@p key,
 * @p counter). The hashes keyedBits(key, 2 counter) and
 * keyedBits(key, 2 counter + 1) give two 53-bit uniforms, and
 * Box–Muller turns them into one N(0, 1) sample. Distinct counters
 * under one key give independent draws.
 */
inline double
keyedGaussian(std::uint64_t key, std::uint64_t counter)
{
    const std::uint64_t h1 = keyedBits(key, 2 * counter);
    const std::uint64_t h2 = keyedBits(key, 2 * counter + 1);
    // u1 in (0, 1] keeps the logarithm finite; u2 in [0, 1).
    const double u1 = static_cast<double>((h1 >> 11) + 1) * 0x1p-53;
    const double u2 = static_cast<double>(h2 >> 11) * 0x1p-53;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(6.283185307179586 * u2);
}

} // namespace redeye

#endif // REDEYE_CORE_RNG_HH
