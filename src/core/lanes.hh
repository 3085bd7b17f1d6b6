/**
 * @file
 * Portable SIMD lanes for the column kernels (DESIGN.md §15, "Column
 * lanes").
 *
 * A lane vector holds one value per output column of a row step:
 * eight doubles, eight 64-bit integers or eight floats. The types are
 * GCC/Clang vector extensions, so every operator acts lane by lane
 * with the scalar's IEEE semantics, and the compiler maps it onto
 * whatever vector width the target has; there are no intrinsics and
 * no ISA switches. A comparison yields a mask, all ones in the lanes
 * where it holds and zero elsewhere, and `mask ? a : b` selects lane
 * by lane.
 *
 * No function takes or returns a vector by value: how a 64-byte
 * vector crosses a call depends on whether the target has 512-bit
 * registers, and compilers warn at every such function. The helpers
 * below pass vectors by reference instead.
 */

#ifndef REDEYE_CORE_LANES_HH
#define REDEYE_CORE_LANES_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace redeye {
namespace lanes {

/** Lanes per vector: output columns decided per row step. */
inline constexpr std::size_t kWidth = 8;

using F64 = double __attribute__((vector_size(kWidth * sizeof(double))));
// long long, not std::int64_t: a comparison of doubles yields lanes of
// long long under Clang.
using I64 = long long
    __attribute__((vector_size(kWidth * sizeof(long long))));
using U64 = unsigned long long
    __attribute__((vector_size(kWidth * sizeof(long long))));
using F32 = float __attribute__((vector_size(kWidth * sizeof(float))));
using I32 = int __attribute__((vector_size(kWidth * sizeof(int))));

/** Lane l holds l. */
inline const U64 kIndex = {0, 1, 2, 3, 4, 5, 6, 7};
static_assert(kWidth == 8, "kIndex lists one entry per lane");

/** True if any lane of @p mask is set. */
inline bool
any(const I64 &mask)
{
    long long r = 0;
    for (std::size_t l = 0; l < kWidth; ++l)
        r |= mask[l];
    return r != 0;
}

/**
 * Load lanes [0, @p n) of @p v from @p p (n <= kWidth), zero above:
 * a row's last vector never reads past the row.
 */
template <typename V, typename T>
inline void
load(V &v, const T *p, std::size_t n = kWidth)
{
    if (n == kWidth) {
        std::memcpy(&v, p, sizeof v);
    } else {
        v = V{};
        for (std::size_t l = 0; l < n; ++l)
            v[l] = p[l];
    }
}

/** Store lanes [0, @p n) of @p v to @p p. */
template <typename V, typename T>
inline void
store(T *p, const V &v, std::size_t n = kWidth)
{
    if (n == kWidth) {
        std::memcpy(p, &v, sizeof v);
    } else {
        for (std::size_t l = 0; l < n; ++l)
            p[l] = v[l];
    }
}

/**
 * std::sqrt of every lane, in place: correctly rounded, as the
 * scalar.
 */
inline void
sqrt(F64 &v)
{
    for (std::size_t l = 0; l < kWidth; ++l)
        v[l] = std::sqrt(v[l]);
}

/**
 * keyedBits(@p key, counter) of every lane (core/rng.hh), in place:
 * @p bits holds the counters on entry and their hashes on return.
 */
inline void
keyedBits(std::uint64_t key, U64 &bits)
{
    // splitmix64() of every lane.
    const auto mix = [](U64 &x) {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        x ^= x >> 31;
    };
    mix(bits);
    bits ^= key;
    mix(bits);
}

} // namespace lanes
} // namespace redeye

#endif // REDEYE_CORE_LANES_HH
