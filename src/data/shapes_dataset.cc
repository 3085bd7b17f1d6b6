#include "data/shapes_dataset.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/logging.hh"

namespace redeye {
namespace data {

namespace {

struct Rgb {
    double r, g, b;
};

/** Random saturated-ish color. */
Rgb
randomColor(Rng &rng)
{
    return {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
            rng.uniform(0.0, 1.0)};
}

double
luminance(const Rgb &c)
{
    return 0.299 * c.r + 0.587 * c.g + 0.114 * c.b;
}

/** Geometric context for one rendered example. */
struct Geometry {
    double cx, cy;   ///< center in [0, 1] image coordinates
    double scale;    ///< characteristic radius in [0, 1] units
    double ca, sa;   ///< cosine and sine of the rotation
    double phase;    ///< pattern phase
    double period;   ///< pattern period
};

/**
 * Coverage of pixel (u, v) (in [0,1] coordinates) by the class's
 * foreground, in [0, 1].
 */
double
coverage(std::size_t label, double u, double v, const Geometry &g)
{
    // Rotate into the shape frame.
    const double du = u - g.cx;
    const double dv = v - g.cy;
    const double x = g.ca * du + g.sa * dv;
    const double y = -g.sa * du + g.ca * dv;

    auto soft = [](double signed_dist, double softness = 0.02) {
        // 1 inside, 0 outside, smooth edge.
        return std::clamp(0.5 - signed_dist / softness, 0.0, 1.0);
    };

    switch (label) {
      case 0: // filled disk
        return soft(std::hypot(x, y) - g.scale);
      case 1: // filled square
        return soft(std::max(std::fabs(x), std::fabs(y)) - g.scale);
      case 2: { // triangle (upward)
        const double d1 = y - g.scale * 0.8;
        const double d2 = -y - 1.7 * x - g.scale * 0.6;
        const double d3 = -y + 1.7 * x - g.scale * 0.6;
        return soft(std::max({d1, d2, d3}));
      }
      case 3: // ring
        return soft(std::fabs(std::hypot(x, y) - g.scale) -
                    g.scale * 0.3);
      case 4: { // cross
        const double arm = g.scale * 0.35;
        const double in_h = std::max(std::fabs(x) - g.scale,
                                     std::fabs(y) - arm);
        const double in_v = std::max(std::fabs(y) - g.scale,
                                     std::fabs(x) - arm);
        return soft(std::min(in_h, in_v));
      }
      case 5: // horizontal stripes
        return std::sin((v + g.phase) * 2.0 * M_PI / g.period) > 0.0
                   ? 1.0
                   : 0.0;
      case 6: // vertical stripes
        return std::sin((u + g.phase) * 2.0 * M_PI / g.period) > 0.0
                   ? 1.0
                   : 0.0;
      case 7: { // checkerboard
        const auto iu = static_cast<long>(
            std::floor((u + g.phase) / g.period));
        const auto iv = static_cast<long>(
            std::floor((v + g.phase) / g.period));
        return (iu + iv) % 2 == 0 ? 1.0 : 0.0;
      }
      case 8: // diagonal bar
        return soft(std::fabs(y) - g.scale * 0.25);
      case 9: { // dot grid
        const double pu = std::fmod(u + g.phase, g.period) -
                          g.period / 2.0;
        const double pv = std::fmod(v + g.phase, g.period) -
                          g.period / 2.0;
        return soft(std::hypot(pu, pv) - g.period * 0.28);
      }
      default:
        panic("unknown shape class ", label);
    }
}

} // namespace

const char *
shapeClassName(std::size_t label)
{
    static const char *names[kShapeClasses] = {
        "disk", "square", "triangle", "ring", "cross",
        "h-stripes", "v-stripes", "checker", "bar", "dots"};
    panic_if(label >= kShapeClasses, "label ", label, " out of range");
    return names[label];
}

Tensor
renderShape(std::size_t label, const ShapesParams &params, Rng &rng)
{
    fatal_if(label >= kShapeClasses, "label ", label, " out of range");
    const std::size_t s = params.imageSize;
    fatal_if(s < 8, "image size too small: ", s);

    // Foreground/background colors with a bounded contrast gap:
    // rescale the background along the fg->bg chord until the
    // luminance gap hits a target inside [minContrast, maxContrast].
    Rgb fg = randomColor(rng);
    Rgb bg = randomColor(rng);
    {
        double gap = std::fabs(luminance(fg) - luminance(bg));
        if (gap < 1e-3) {
            bg.r = std::clamp(fg.r + 0.5, 0.0, 1.0);
            bg.g = std::clamp(fg.g - 0.5, 0.0, 1.0);
            bg.b = fg.b;
            gap = std::fabs(luminance(fg) - luminance(bg));
        }
        const double target = rng.uniform(params.minContrast,
                                          params.maxContrast);
        const double scale = target / std::max(gap, 1e-6);
        bg.r = std::clamp(fg.r + (bg.r - fg.r) * scale, 0.0, 1.0);
        bg.g = std::clamp(fg.g + (bg.g - fg.g) * scale, 0.0, 1.0);
        bg.b = std::clamp(fg.b + (bg.b - fg.b) * scale, 0.0, 1.0);
    }

    // Clutter: faint distractor blobs under the class shape.
    struct Blob {
        double cx, cy, r;
        Rgb color;
    };
    std::vector<Blob> blobs;
    const auto n_blobs = rng.poisson(params.distractors);
    for (std::int64_t i = 0; i < n_blobs; ++i) {
        Blob b;
        b.cx = rng.uniform(0.0, 1.0);
        b.cy = rng.uniform(0.0, 1.0);
        b.r = rng.uniform(0.04, 0.12);
        // Distractors live in the same low-contrast band as the
        // foreground so they genuinely compete with it.
        b.color = {std::clamp(bg.r + rng.uniform(-0.2, 0.2), 0.0,
                              1.0),
                   std::clamp(bg.g + rng.uniform(-0.2, 0.2), 0.0,
                              1.0),
                   std::clamp(bg.b + rng.uniform(-0.2, 0.2), 0.0,
                              1.0)};
        blobs.push_back(b);
    }

    Geometry g;
    g.cx = rng.uniform(0.35, 0.65);
    g.cy = rng.uniform(0.35, 0.65);
    g.scale = rng.uniform(0.18, 0.32);
    const double angle = rng.uniform(0.0, 2.0 * M_PI);
    g.ca = std::cos(angle);
    g.sa = std::sin(angle);
    g.phase = rng.uniform(0.0, 1.0);
    g.period = rng.uniform(0.18, 0.30);

    Tensor img(Shape(1, 3, s, s));
    const std::size_t plane = s * s;
    float *out = img.data(); // channel 0 of the current pixel
    for (std::size_t py = 0; py < s; ++py) {
        const double v = (static_cast<double>(py) + 0.5) /
                         static_cast<double>(s);
        for (std::size_t px = 0; px < s; ++px, ++out) {
            const double u = (static_cast<double>(px) + 0.5) /
                             static_cast<double>(s);
            Rgb base = bg;
            for (const Blob &b : blobs) {
                const double d = std::hypot(u - b.cx, v - b.cy);
                const double ba = std::clamp(
                    0.5 - (d - b.r) / 0.02, 0.0, 1.0);
                base.r += (b.color.r - base.r) * ba;
                base.g += (b.color.g - base.g) * ba;
                base.b += (b.color.b - base.b) * ba;
            }
            const double a = coverage(label, u, v, g);
            const Rgb c = {base.r + (fg.r - base.r) * a,
                           base.g + (fg.g - base.g) * a,
                           base.b + (fg.b - base.b) * a};
            const double n0 = rng.gaussian(0.0,
                                           params.pixelNoiseSigma);
            const double n1 = rng.gaussian(0.0,
                                           params.pixelNoiseSigma);
            const double n2 = rng.gaussian(0.0,
                                           params.pixelNoiseSigma);
            out[0] = static_cast<float>(std::clamp(c.r + n0, 0.0, 1.0));
            out[plane] =
                static_cast<float>(std::clamp(c.g + n1, 0.0, 1.0));
            out[2 * plane] =
                static_cast<float>(std::clamp(c.b + n2, 0.0, 1.0));
        }
    }
    return img;
}

Dataset
generateShapes(std::size_t per_class, const ShapesParams &params,
               Rng &rng)
{
    fatal_if(per_class == 0, "need at least one example per class");
    const std::size_t total = per_class * kShapeClasses;
    const std::size_t s = params.imageSize;

    Dataset ds;
    ds.images = Tensor(Shape(total, 3, s, s));
    ds.labels.resize(total);

    // Shuffled example order.
    std::vector<std::size_t> order(total);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng.engine());

    const std::size_t slice = ds.images.shape().sliceSize();
    for (std::size_t i = 0; i < total; ++i) {
        const std::size_t label = i % kShapeClasses;
        const Tensor img = renderShape(label, params, rng);
        const std::size_t dst = order[i];
        std::memcpy(ds.images.data() + dst * slice, img.data(),
                    slice * sizeof(float));
        ds.labels[dst] = static_cast<std::int32_t>(label);
    }
    return ds;
}

Dataset
makeBatch(const Dataset &source, const std::vector<std::size_t> &indices)
{
    fatal_if(indices.empty(), "empty batch");
    const Shape &ss = source.images.shape();
    Dataset batch;
    batch.images = Tensor(Shape(indices.size(), ss.c, ss.h, ss.w));
    batch.labels.resize(indices.size());
    const std::size_t slice = ss.sliceSize();
    for (std::size_t i = 0; i < indices.size(); ++i) {
        panic_if(indices[i] >= source.size(), "batch index ",
                 indices[i], " out of range");
        std::memcpy(batch.images.data() + i * slice,
                    source.images.data() + indices[i] * slice,
                    slice * sizeof(float));
        batch.labels[i] = source.labels[indices[i]];
    }
    return batch;
}

} // namespace data
} // namespace redeye
