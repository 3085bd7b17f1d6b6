/**
 * @file
 * Lightweight statistics accumulators used across the simulator for
 * signal/noise measurement and experiment reporting.
 */

#ifndef REDEYE_CORE_STATS_HH
#define REDEYE_CORE_STATS_HH

#include <cstddef>
#include <vector>

namespace redeye {

/**
 * Single-pass running mean/variance/extrema accumulator (Welford).
 */
class RunningStat
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double x);

    /** Fold a whole range of samples. */
    template <typename It>
    void
    addRange(It first, It last)
    {
        for (; first != last; ++first)
            add(static_cast<double>(*first));
    }

    /** Number of samples folded so far. */
    std::size_t count() const { return count_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (0 when fewer than 2 samples). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Mean of squared samples; the signal power for a zero-DC signal. */
    double meanSquare() const;

    /** Smallest sample seen (+inf when empty). */
    double min() const { return min_; }

    /** Largest sample seen (-inf when empty). */
    double max() const { return max_; }

    /** Reset to the empty state. */
    void reset();

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Exact p-th percentile (p in [0, 100]) of @p values using linear
 * interpolation between closest ranks (the "exclusive" convention of
 * most plotting packages is avoided; this matches numpy's default):
 * p = 0 yields the minimum, p = 100 the maximum. The input is copied
 * and partially sorted; fatal when @p values is empty.
 */
double percentile(std::vector<double> values, double p);

/**
 * Measured signal-to-noise ratio between a clean reference and a noisy
 * realization of the same signal, in dB. Returns +inf for identical
 * vectors and -inf for an all-zero reference with nonzero noise.
 */
double measureSnrDb(const std::vector<float> &clean,
                    const std::vector<float> &noisy);

} // namespace redeye

#endif // REDEYE_CORE_STATS_HH
