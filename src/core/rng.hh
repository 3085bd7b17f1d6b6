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
 * key per batch item from a (seed, pass, item) counter triple:
 *
 *     key(seed, pass, item) =
 *         splitmix64(seed ^ splitmix64(pass * kPassSalt + item))
 *
 * where `seed` is the layer's private base seed, `pass` counts the
 * layer's noisy forward passes, and `item` is the batch index. The key
 * seeds the item's engine or keys its counter-keyed draws (below).
 * The scheme makes the realized noise
 *
 *  - independent of thread count and scheduling: item i's draws come
 *    from its own key regardless of which worker runs it;
 *  - independent of batch partitioning order within a pass: draws for
 *    item i never consume state that item j produced;
 *  - fresh across passes: the pass counter advances per forward, so
 *    repeated evaluations of the same batch see new noise, exactly
 *    like the old sequential-engine behaviour.
 *
 * streamKey() below implements the derivation, and streamRng()
 * seeds an engine with it.
 *
 * ## Counter-keyed draws
 *
 * Where a layer needs one draw per output element, an engine per
 * element is too dear (an mt19937_64 seeds 312 words). The keyed
 * samplers instead hash a (key, counter) pair straight into one
 * sample, so every element's draw is a pure function of its own index
 * and the order elements are visited in cannot matter:
 *
 *  - keyedGaussian(key, c) is one hash, keyedBits(key, 2c), whose top
 *    52 bits go through the inverse normal CDF (Wichura's AS241). Its
 *    low 12 bits stay unread, and the comparator's coin takes bit 0.
 *  - keyedUniform(key, c) is the same hash's top 52 bits as a uniform
 *    strictly inside (0, 1): the uniform keyedGaussian(key, c) maps.
 *  - keyedPoisson(key, c, mean) draws its uniforms from a SplitMix64
 *    sequence seeded by keyedBits(key, 2c + 1), so it shares no hash
 *    with keyedGaussian(key, c).
 *
 * The sensor keys each image by streamKey(seed, pass, item) and draws
 * pixel i's shot and read noise at counter i.
 *
 * Where a triple needs a single number, streamGaussian() and
 * streamUniform() draw it at counter 0 of the triple's key instead of
 * seeding an engine for it. The fleet draws every per-request number
 * so: the Poisson arrival gaps, the device and host service jitter,
 * the failure and retry-backoff draws and the tuner's proxy noise.
 * streamRng() stays for draws that need a sequence, or that run once
 * per session or device (the fleet's class and device-health draws).
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

/** Salt separating pass counters from item indices in streamKey(). */
inline constexpr std::uint64_t kPassSalt = 0x2545f4914f6cdd1dULL;

/**
 * Key of the (seed, pass, item) triple: the seed of streamRng() and
 * the key of a layer's keyed draws for one item. See the file comment
 * for the scheme and its determinism guarantees.
 */
constexpr std::uint64_t
streamKey(std::uint64_t seed, std::uint64_t pass, std::uint64_t item)
{
    return splitmix64(seed ^ splitmix64(pass * kPassSalt + item));
}

/** Counter-based per-item stream: an Rng seeded by streamKey(). */
inline Rng
streamRng(std::uint64_t seed, std::uint64_t pass, std::uint64_t item)
{
    return Rng(streamKey(seed, pass, item));
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
 * The top 52 bits of @p h as a uniform strictly inside (0, 1):
 * (floor(h / 2^12) + 1/2) 2^-52, exact in a double. The map is
 * symmetric, openUnitFromBits(~h) = 1 - openUnitFromBits(h), and
 * leaves bits 0-11 of @p h unread. (53 bits would not do: (2^53 - 1)
 * + 1/2 rounds to 2^53, which maps to 1.)
 */
inline double
openUnitFromBits(std::uint64_t h)
{
    return (static_cast<double>(h >> 12) + 0.5) * 0x1p-52;
}

namespace detail {

/** Horner's rule c0 + r (c1 + r (c2 + ...)), each step one std::fma. */
inline double
horner(double, double c)
{
    return c;
}

template <typename... Cs>
inline double
horner(double r, double c, Cs... rest)
{
    return std::fma(horner(r, rest...), r, c);
}

} // namespace detail

/**
 * Standard normal quantile: z with Phi(z) = @p p, for p strictly
 * inside (0, 1). Wichura's AS241 (PPND16), a rational approximation
 * in three ranges accurate to about 1e-16 relative.
 *
 * Every multiply-add is an explicit std::fma. Left to the compiler,
 * -ffp-contract=fast fuses some steps at one call site and none when
 * it folds constants, so the same p could give two z.
 */
inline double
inverseNormalCdf(double p)
{
    using detail::horner;
    const double q = p - 0.5;
    if (std::fabs(q) <= 0.425) {
        const double r = std::fma(-q, q, 0.180625);
        return q *
               horner(r, 3.387132872796366608, 133.14166789178437745,
                      1971.5909503065514427, 13731.693765509461125,
                      45921.953931549871457, 67265.770927008700853,
                      33430.575583588128105, 2509.0809287301226727) /
               horner(r, 1.0, 42.313330701600911252,
                      687.1870074920579083, 5394.1960214247511077,
                      21213.794301586595867, 39307.89580009271061,
                      28729.085735721942674, 5226.495278852545925);
    }
    double r = std::sqrt(-std::log(q < 0.0 ? p : 1.0 - p));
    double z;
    if (r <= 5.0) {
        r -= 1.6;
        z = horner(r, 1.42343711074968357734, 4.6303378461565452959,
                   5.7694972214606914055, 3.64784832476320460504,
                   1.27045825245236838258, 0.24178072517745061177,
                   0.0227238449892691845833, 7.7454501427834140764e-4) /
            horner(r, 1.0, 2.05319162663775882187, 1.6763848301838038494,
                   0.68976733498510000455, 0.14810397642748007459,
                   0.0151986665636164571966, 5.475938084995344946e-4,
                   1.05075007164441684324e-9);
    } else {
        r -= 5.0;
        z = horner(r, 6.6579046435011037772, 5.4637849111641143699,
                   1.7848265399172913358, 0.29656057182850489123,
                   0.026532189526576123093, 0.0012426609473880784386,
                   2.71155556874348757815e-5, 2.01033439929228813265e-7) /
            horner(r, 1.0, 0.59983220655588793769,
                   0.13692988092273580531, 0.0148753612908506148525,
                   7.868691311456132591e-4, 1.8463183175100546818e-5,
                   1.4215117583164458887e-7, 2.04426310338993978564e-15);
    }
    return q < 0.0 ? -z : z;
}

/**
 * The bits-to-normal map behind keyedGaussian(): the inverse normal
 * CDF of openUnitFromBits(@p h). Odd in the bits,
 * gaussianFromBits(~h) = -gaussianFromBits(h), and bounded by
 * |Phi^-1(2^-53)| = 8.2095...
 */
inline double
gaussianFromBits(std::uint64_t h)
{
    return inverseNormalCdf(openUnitFromBits(h));
}

/**
 * A bound on |keyedGaussian()| over every 64-bit hash, with headroom
 * above the sampler's true maximum of 8.2095... A caller that skips a
 * draw because even a draw this large could not change its result
 * (the conv epilogue's clamp) stays exact under either rounding of a
 * fused multiply-add.
 */
inline constexpr double kKeyedGaussianMaxAbs = 8.25;

/**
 * Counter-keyed standard normal: a pure function of (@p key,
 * @p counter), gaussianFromBits(keyedBits(key, 2 counter)). Distinct
 * counters under one key give independent draws.
 */
inline double
keyedGaussian(std::uint64_t key, std::uint64_t counter)
{
    return gaussianFromBits(keyedBits(key, 2 * counter));
}

/**
 * Counter-keyed uniform strictly inside (0, 1): a pure function of
 * (@p key, @p counter), openUnitFromBits(keyedBits(key, 2 counter)).
 * It is the uniform that keyedGaussian(key, counter) maps through the
 * inverse normal CDF, so a key feeds the two at distinct counters.
 */
inline double
keyedUniform(std::uint64_t key, std::uint64_t counter)
{
    return openUnitFromBits(keyedBits(key, 2 * counter));
}

/**
 * Counter-keyed Poisson count of mean @p mean (0 when mean <= 0): a
 * pure function of (@p key, @p counter, @p mean). Exact: inversion by
 * multiplication below a mean of 10, Hörmann's transformed rejection
 * with squeeze (PTRS) above, with a Stirling-series log-factorial in
 * place of lgamma (which writes glibc's global signgam). The uniforms
 * come from a SplitMix64 sequence seeded by keyedBits(key,
 * 2 counter + 1).
 */
std::int64_t keyedPoisson(std::uint64_t key, std::uint64_t counter,
                          double mean);

/**
 * The one standard normal draw of a (seed, pass, item) triple:
 * keyedGaussian(streamKey(seed, pass, item), 0). Three hashes, where
 * streamRng(seed, pass, item).gaussian() seeds and twists a 312-word
 * engine for the same one number.
 */
inline double
streamGaussian(std::uint64_t seed, std::uint64_t pass, std::uint64_t item)
{
    return keyedGaussian(streamKey(seed, pass, item), 0);
}

/**
 * The one uniform draw, strictly inside (0, 1), of a (seed, pass,
 * item) triple: keyedUniform(streamKey(seed, pass, item), 0). It is
 * the uniform behind streamGaussian() of the same triple, so a caller
 * takes one or the other per triple.
 */
inline double
streamUniform(std::uint64_t seed, std::uint64_t pass, std::uint64_t item)
{
    return keyedUniform(streamKey(seed, pass, item), 0);
}

} // namespace redeye

#endif // REDEYE_CORE_RNG_HH
