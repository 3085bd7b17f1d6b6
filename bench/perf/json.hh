/**
 * @file
 * Minimal JSON for perf_bench: string/number formatting for the files
 * it writes, and a parser it uses to check them and to read the metric
 * names declared in BENCHMARK.json.
 */

#ifndef REDEYE_BENCH_PERF_JSON_HH
#define REDEYE_BENCH_PERF_JSON_HH

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace redeye::perf {

/** One parsed JSON value. */
struct Json {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> items;                           ///< Array
    std::vector<std::pair<std::string, Json>> members; ///< Object

    /** Member @p key of an object, or nullptr. */
    const Json *find(std::string_view key) const;
};

/**
 * Parse @p text as exactly one JSON value (surrounding whitespace
 * allowed). On failure returns nullopt and, when @p error is given,
 * says where.
 */
std::optional<Json> parseJson(std::string_view text,
                              std::string *error = nullptr);

/** @p s as a quoted, escaped JSON string. */
std::string quote(std::string_view s);

/** @p v with every digit it has ("%.17g"); non-finite values as null. */
std::string number(double v);

} // namespace redeye::perf

#endif // REDEYE_BENCH_PERF_JSON_HH
