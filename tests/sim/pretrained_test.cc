/** @file Tests for the pretrained recipe's held-out sets. */

#include <cstring>

#include <gtest/gtest.h>

#include "core/structural_hash.hh"
#include "sim/pretrained.hh"

namespace redeye {
namespace sim {
namespace {

/** Stable digest of a dataset: shape, every pixel's bits, labels. */
std::uint64_t
digest(const data::Dataset &ds)
{
    StructuralHasher h;
    const Shape &s = ds.images.shape();
    h.mix(s.n).mix(s.c).mix(s.h).mix(s.w);
    for (std::size_t i = 0; i < ds.images.size(); ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, ds.images.data() + i, sizeof bits);
        h.mix(bits);
    }
    for (const std::int32_t label : ds.labels)
        h.mixSigned(label);
    return h.digest();
}

/**
 * Each task's held-out set is the one its recipe draws: 20 per class,
 * right after the 80-per-class training draw. The digests pin it, so
 * accuracy measured on it stays comparable across changes. Rendering
 * it needs no weights, so this trains nothing.
 */
TEST(PretrainedHeldOutTest, StandardSetIsTheRecipes)
{
    const data::Dataset val =
        pretrainedHeldOutSet(PretrainedTask::Standard);
    EXPECT_EQ(val.size(), 20 * data::kShapeClasses);
    EXPECT_EQ(digest(val), 0x53f0ed7528eb07ecULL);
}

TEST(PretrainedHeldOutTest, HardSetIsTheRecipes)
{
    const data::Dataset val = pretrainedHeldOutSet(PretrainedTask::Hard);
    EXPECT_EQ(val.size(), 20 * data::kShapeClasses);
    EXPECT_EQ(digest(val), 0xe083562b53ff6bfcULL);
}

} // namespace
} // namespace sim
} // namespace redeye
