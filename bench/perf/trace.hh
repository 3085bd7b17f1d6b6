/**
 * @file
 * Span recording for perf_bench's traced runs.
 *
 * A SpanBuffer is a preallocated array of fixed-size records filled
 * from any thread without locks or allocation; a full buffer counts
 * the spans it could not keep instead of growing. Spans are recorded
 * only by benchmark code around calls into the library (stage
 * closures, layer timers, probes), and are written out once, at the
 * end of the run, as Chrome Trace Event JSON (chrome://tracing,
 * Perfetto).
 */

#ifndef REDEYE_BENCH_PERF_TRACE_HH
#define REDEYE_BENCH_PERF_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace redeye::perf {

/** One span. Times are steady_clock nanoseconds. */
struct Span {
    const char *name = nullptr; ///< static string
    std::uint64_t id = 0;       ///< frame index, rep or probe item
    std::int32_t parent = -1;   ///< index of the parent span; -1 = root
    std::uint32_t lane = 0;     ///< thread lane (Chrome "tid")
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Fixed-capacity, thread-safe span store. */
class SpanBuffer
{
  public:
    explicit SpanBuffer(std::size_t capacity) : spans_(capacity) {}

    SpanBuffer(const SpanBuffer &) = delete;
    SpanBuffer &operator=(const SpanBuffer &) = delete;

    /**
     * Record a span; returns its index, or -1 when the buffer is full
     * (the span is counted in dropped()). @p name must outlive the
     * buffer.
     */
    std::int32_t add(const char *name, std::uint64_t id,
                     std::int32_t parent, std::uint32_t lane,
                     std::int64_t start_ns, std::int64_t end_ns);

    /** Re-parent span @p index (links spans recorded before their
     * parent existed). */
    void setParent(std::int32_t index, std::int32_t parent);

    std::size_t size() const;
    const Span &operator[](std::size_t i) const { return spans_[i]; }
    std::uint64_t dropped() const { return dropped_.load(); }

    /**
     * Duration of span @p index minus the part of it covered by its
     * children (the union of their intervals, clipped to the span).
     * @p children lists the child indices of every span (see
     * childIndex()).
     */
    std::int64_t selfNs(
        std::int32_t index,
        const std::vector<std::vector<std::int32_t>> &children) const;

    /** Child lists of every span, by parent index. */
    std::vector<std::vector<std::int32_t>> childIndex() const;

    /** Write every span as Chrome Trace Event JSON; false on I/O
     * failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::atomic<std::size_t> next_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

/** Current steady_clock time in nanoseconds. */
std::int64_t nowNs();

} // namespace redeye::perf

#endif // REDEYE_BENCH_PERF_TRACE_HH
