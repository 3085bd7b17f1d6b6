/** @file Tests for the synthetic shapes dataset. */

#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "core/structural_hash.hh"
#include "data/shapes_dataset.hh"

namespace redeye {
namespace data {
namespace {

/** Stable digest of a dataset: shape, every pixel's bits, labels. */
std::uint64_t
digest(const Dataset &ds)
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

TEST(ShapesTest, ClassNamesDistinct)
{
    std::set<std::string> names;
    for (std::size_t c = 0; c < kShapeClasses; ++c)
        names.insert(shapeClassName(c));
    EXPECT_EQ(names.size(), kShapeClasses);
}

TEST(ShapesTest, RenderedImageInRange)
{
    Rng rng(1);
    for (std::size_t c = 0; c < kShapeClasses; ++c) {
        const Tensor img = renderShape(c, ShapesParams{}, rng);
        EXPECT_EQ(img.shape(), Shape(1, 3, 32, 32));
        for (std::size_t i = 0; i < img.size(); ++i) {
            EXPECT_GE(img[i], 0.0f);
            EXPECT_LE(img[i], 1.0f);
        }
    }
}

TEST(ShapesTest, ImagesHaveContrast)
{
    Rng rng(2);
    for (std::size_t c = 0; c < kShapeClasses; ++c) {
        const Tensor img = renderShape(c, ShapesParams{}, rng);
        // A degenerate flat image would defeat classification.
        float lo = 1.0f, hi = 0.0f;
        for (std::size_t i = 0; i < img.size(); ++i) {
            lo = std::min(lo, img[i]);
            hi = std::max(hi, img[i]);
        }
        EXPECT_GT(hi - lo, 0.1f) << shapeClassName(c);
    }
}

TEST(ShapesTest, GeneratorBalancedAndShuffled)
{
    Rng rng(3);
    const Dataset ds = generateShapes(20, ShapesParams{}, rng);
    EXPECT_EQ(ds.size(), 200u);
    std::vector<std::size_t> counts(kShapeClasses, 0);
    for (auto label : ds.labels)
        ++counts[static_cast<std::size_t>(label)];
    for (auto c : counts)
        EXPECT_EQ(c, 20u);
    // Shuffled: the first ten labels are not 0..9 in order.
    bool ordered = true;
    for (std::size_t i = 0; i < kShapeClasses; ++i)
        ordered &= ds.labels[i] == static_cast<std::int32_t>(i);
    EXPECT_FALSE(ordered);
}

TEST(ShapesTest, DeterministicForSeed)
{
    Rng a(7), b(7);
    const Dataset da = generateShapes(5, ShapesParams{}, a);
    const Dataset db = generateShapes(5, ShapesParams{}, b);
    EXPECT_EQ(da.labels, db.labels);
    EXPECT_EQ(maxAbsDiff(da.images, db.images), 0.0f);
}

TEST(ShapesTest, ExamplesVaryWithinClass)
{
    Rng rng(4);
    const Tensor a = renderShape(0, ShapesParams{}, rng);
    const Tensor b = renderShape(0, ShapesParams{}, rng);
    EXPECT_GT(maxAbsDiff(a, b), 0.05f);
}

TEST(ShapesTest, MakeBatchCopiesSelection)
{
    Rng rng(5);
    const Dataset ds = generateShapes(4, ShapesParams{}, rng);
    const Dataset batch = makeBatch(ds, {3, 0, 7});
    EXPECT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch.labels[0], ds.labels[3]);
    EXPECT_EQ(batch.labels[2], ds.labels[7]);
    EXPECT_EQ(maxAbsDiff(batch.images.slice(1), ds.images.slice(0)),
              0.0f);
}

TEST(ShapesTest, BatchIndexOutOfRangePanics)
{
    Rng rng(6);
    const Dataset ds = generateShapes(2, ShapesParams{}, rng);
    EXPECT_DEATH(makeBatch(ds, {1000}), "out of range");
}

TEST(ShapesTest, CustomImageSize)
{
    Rng rng(7);
    ShapesParams p;
    p.imageSize = 64;
    const Tensor img = renderShape(3, p, rng);
    EXPECT_EQ(img.shape(), Shape(1, 3, 64, 64));
}

/**
 * The renderer's output, bit for bit: two examples of every class
 * under the standard parameters, under the hard ones (which draw
 * distractor blobs) and at a 64-pixel image size. The training,
 * held-out and replay sets are all rendered by it, so any moved bit
 * fails here first.
 */
TEST(ShapesTest, RenderedBitsArePinned)
{
    Rng standard_rng(0xda7a);
    EXPECT_EQ(digest(generateShapes(2, ShapesParams{}, standard_rng)),
              0x780596f0a6d14000ULL);
    Rng hard_rng(0xda7b);
    EXPECT_EQ(digest(generateShapes(2, ShapesParams::hard(), hard_rng)),
              0xf5228077eabe1523ULL);
    Rng large_rng(0xda7c);
    ShapesParams large;
    large.imageSize = 64;
    EXPECT_EQ(digest(generateShapes(2, large, large_rng)),
              0xb0890385ba24da13ULL);
}

TEST(ShapesTest, InvalidLabelFatal)
{
    Rng rng(8);
    EXPECT_EXIT(renderShape(kShapeClasses, ShapesParams{}, rng),
                ::testing::ExitedWithCode(1), "out of range");
}

} // namespace
} // namespace data
} // namespace redeye
