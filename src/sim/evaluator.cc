#include "sim/evaluator.hh"

#include <algorithm>
#include <numeric>

#include "core/logging.hh"
#include "nn/network.hh"
#include "nn/softmax.hh"

namespace redeye {
namespace sim {

namespace {

/** Base seed of the raw sampling model's noise. */
constexpr std::uint64_t kSensorSeed = 0x5e9505;

} // namespace

EvalResult
evaluate(nn::Network &net, const data::Dataset &dataset,
         const EvalOptions &options)
{
    fatal_if(dataset.size() == 0, "empty dataset");
    fatal_if(options.batchSize == 0, "batch size must be positive");

    const std::size_t limit =
        options.maxImages == 0
            ? dataset.size()
            : std::min(options.maxImages, dataset.size());

    std::optional<noise::SensorSamplingLayer> sensor;
    if (options.sensor) {
        sensor.emplace("@eval_sensor", *options.sensor,
                       Rng(kSensorSeed));
    }

    ThreadPool pool(resolveThreadCount(options.threads));
    ExecContext ctx(pool);

    net.setTraining(false);
    EvalResult result;
    std::size_t top1_hits = 0;
    std::size_t topn_hits = 0;

    for (std::size_t start = 0; start < limit;
         start += options.batchSize) {
        const std::size_t count = std::min(options.batchSize,
                                           limit - start);
        std::vector<std::size_t> idx(count);
        std::iota(idx.begin(), idx.end(), start);
        data::Dataset batch = data::makeBatch(dataset, idx);

        Tensor input = batch.images;
        if (sensor) {
            std::vector<const Tensor *> ins{&batch.images};
            sensor->forward(ins, input, ctx);
        }

        const Tensor &scores = net.forward(input, ctx);
        const Shape &os = scores.shape();
        panic_if(os.h != 1 || os.w != 1,
                 "classifier output must be (n, classes, 1, 1), got ",
                 os.str());

        for (std::size_t i = 0; i < count; ++i) {
            const float *row = scores.data() + i * os.c;
            const std::int32_t label = batch.labels[i];
            if (nn::topNContains(row, os.c, label, 1))
                ++top1_hits;
            if (nn::topNContains(row, os.c, label, options.topN))
                ++topn_hits;
        }
        result.images += count;
    }

    result.top1 = static_cast<double>(top1_hits) /
                  static_cast<double>(result.images);
    result.topN = static_cast<double>(topn_hits) /
                  static_cast<double>(result.images);
    return result;
}

} // namespace sim
} // namespace redeye
