#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "json.hh"

namespace redeye::perf {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int32_t
SpanBuffer::add(const char *name, std::uint64_t id, std::int32_t parent,
                std::uint32_t lane, std::int64_t start_ns,
                std::int64_t end_ns)
{
    const std::size_t i = next_.fetch_add(1);
    if (i >= spans_.size()) {
        dropped_.fetch_add(1);
        return -1;
    }
    spans_[i] = Span{name, id, parent, lane, start_ns, end_ns};
    return static_cast<std::int32_t>(i);
}

void
SpanBuffer::setParent(std::int32_t index, std::int32_t parent)
{
    if (index >= 0)
        spans_[static_cast<std::size_t>(index)].parent = parent;
}

std::size_t
SpanBuffer::size() const
{
    return std::min(next_.load(), spans_.size());
}

std::vector<std::vector<std::int32_t>>
SpanBuffer::childIndex() const
{
    std::vector<std::vector<std::int32_t>> children(size());
    for (std::size_t i = 0; i < size(); ++i) {
        const std::int32_t p = spans_[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < children.size())
            children[p].push_back(static_cast<std::int32_t>(i));
    }
    return children;
}

std::int64_t
SpanBuffer::selfNs(
    std::int32_t index,
    const std::vector<std::vector<std::int32_t>> &children) const
{
    const Span &s = spans_[static_cast<std::size_t>(index)];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::int32_t c : children[index]) {
        const std::int64_t lo = std::max(spans_[c].startNs, s.startNs);
        const std::int64_t hi = std::min(spans_[c].endNs, s.endNs);
        if (hi > lo)
            cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.startNs;
    for (const auto &[lo, hi] : cover) {
        const std::int64_t from = std::max(lo, reach);
        if (hi > from) {
            covered += hi - from;
            reach = hi;
        }
    }
    return (s.endNs - s.startNs) - covered;
}

bool
SpanBuffer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    std::int64_t origin = 0;
    for (std::size_t i = 0; i < size(); ++i) {
        if (i == 0 || spans_[i].startNs < origin)
            origin = spans_[i].startNs;
    }
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":" << quote(s.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
            << ",\"ts\":" << number((s.startNs - origin) / 1e3)
            << ",\"dur\":" << number((s.endNs - s.startNs) / 1e3)
            << ",\"args\":{\"span\":" << i << ",\"id\":" << s.id
            << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out.flush());
}

} // namespace redeye::perf
