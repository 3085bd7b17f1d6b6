/**
 * @file
 * Mergeable log-bucketed histogram for fleet-scale latency metrics.
 *
 * Serving thousands of concurrent streams rules out the exact
 * percentile path (core/stats.hh keeps every sample); LogHistogram
 * instead folds samples into geometrically spaced buckets — constant
 * memory per stream — and two histograms with the same layout merge
 * by adding bucket counts. That makes per-class and fleet-wide
 * p50/p95/p99 computable from the same accumulators: aggregate views
 * are merges, never a second pass over raw samples.
 *
 * Buckets subdivide each octave (factor of 2) of [lo, hi) evenly in
 * log space, so the relative quantization error of a reconstructed
 * percentile is bounded by 2^(1/bucketsPerOctave) - 1 (about 9% at
 * the default 8 buckets per octave) regardless of the sample's
 * magnitude. Samples below `lo` land in a dedicated underflow
 * bucket, samples at or above `hi` in an overflow bucket; exact min,
 * max, count and sum are tracked alongside, so the mean is exact and
 * extreme percentiles clamp to observed extrema.
 */

#ifndef REDEYE_CORE_HIST_HH
#define REDEYE_CORE_HIST_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace redeye {

/** Mergeable histogram over geometric buckets of [lo, hi). */
class LogHistogram
{
  public:
    /**
     * @param lo Smallest resolvable value (> 0); lower bound of the
     * first regular bucket.
     * @param hi Upper edge of the last regular bucket (> lo).
     * @param buckets_per_octave Subdivisions of each factor-of-2 span
     * (>= 1); higher = finer percentile resolution.
     */
    LogHistogram(double lo, double hi,
                 unsigned buckets_per_octave = 8);

    /** Fold one sample (any finite value; negatives underflow). */
    void add(double x);

    /**
     * Fold @p other into this histogram. Both must share the exact
     * (lo, hi, buckets_per_octave) layout — merging differently
     * shaped histograms is a logic error and fatal.
     */
    void merge(const LogHistogram &other);

    /** True when @p other has the same bucket layout. */
    bool mergeableWith(const LogHistogram &other) const;

    /**
     * Approximate p-th percentile (p in [0, 100]) reconstructed from
     * the bucket counts: the bucket straddling the target rank is
     * interpolated geometrically, and the result is clamped into the
     * exact [min, max] observed. Fatal when empty.
     */
    double percentile(double p) const;

    /**
     * percentile() that tolerates an empty histogram: returns
     * @p fallback instead of fataling when no samples were folded.
     * The serving-report path uses this for QoS classes that
     * completed zero frames under total shed — a legitimate outcome
     * of an overload sweep, not an internal error.
     */
    double percentileOr(double p, double fallback = 0.0) const;

    /** Samples folded so far. */
    std::uint64_t count() const { return count_; }

    /** Exact arithmetic mean (0 when empty). */
    double mean() const;

    /** Exact smallest sample (+inf when empty). */
    double min() const { return min_; }

    /** Exact largest sample (-inf when empty). */
    double max() const { return max_; }

    /** Reset to the empty state (layout preserved). */
    void reset();

    /** Total buckets, including underflow and overflow. */
    std::size_t buckets() const { return counts_.size(); }

    /** Count in bucket @p i. */
    std::uint64_t bucketCount(std::size_t i) const;

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    unsigned bucketsPerOctave() const { return perOctave_; }

  private:
    std::size_t bucketOf(double x) const;

    /** Lower edge of regular bucket @p i (1-based, see bucketOf). */
    double bucketLo(std::size_t i) const;

    double lo_ = 0.0;
    double hi_ = 0.0;
    unsigned perOctave_ = 0;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace redeye

#endif // REDEYE_CORE_HIST_HH
