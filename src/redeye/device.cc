#include "redeye/device.hh"

#include <cmath>
#include <set>
#include <sstream>

#include "core/content_cache.hh"
#include "core/logging.hh"
#include "core/structural_hash.hh"
#include "nn/concat.hh"
#include "nn/lrn.hh"
#include "nn/network.hh"
#include "noise/snr.hh"

namespace redeye {
namespace arch {

namespace {

/** Layer kinds the analog array can realize. */
bool
analogExecutable(nn::LayerKind kind)
{
    switch (kind) {
      case nn::LayerKind::Convolution:
      case nn::LayerKind::ReLU:
      case nn::LayerKind::MaxPool:
      case nn::LayerKind::AvgPool:
      case nn::LayerKind::LRN:
      case nn::LayerKind::Concat:
        return true;
      default:
        return false;
    }
}

/**
 * Structural validation of the requested partition against @p net:
 * every named layer exists and is analog-executable, every consumed
 * activation is produced inside the partition (or is the sensor
 * input), and at least one layer executes.
 */
Status
validatePartition(nn::Network &net,
                  const std::vector<std::string> &analog_layers)
{
    std::set<std::string> wanted(analog_layers.begin(),
                                 analog_layers.end());
    for (const auto &name : analog_layers) {
        if (!net.hasLayer(name)) {
            return Status::invalidArgument("network has no layer '" +
                                           name + "'");
        }
    }

    std::set<std::string> produced{std::string(nn::kInputName)};
    std::size_t executed = 0;
    for (std::size_t i = 0; i < net.size(); ++i) {
        nn::Layer &layer = net.layerAt(i);
        if (!wanted.count(layer.name()))
            continue;
        if (!analogExecutable(layer.kind())) {
            return Status::invalidArgument(
                "RedEye device cannot execute layer '" +
                layer.name() + "' of kind " +
                nn::layerKindName(layer.kind()));
        }
        for (const auto &name : net.inputsOf(i)) {
            if (!produced.count(name)) {
                return Status::invalidArgument(
                    "analog layer consumes '" + name +
                    "', which is not in the partition");
            }
        }
        produced.insert(layer.name());
        ++executed;
    }
    if (executed == 0) {
        return Status::invalidArgument(
            "partition executed no layers");
    }
    return Status();
}

/**
 * Process-wide memo of structurally valid (topology, partition)
 * pairs, keyed by partitionKey(). Devices are constructed per frame
 * on the serving path, so an instance-local memo would never hit;
 * validity is a pure function of structure, so the memo is safe to
 * share. Only successes are recorded — failures stay on the slow
 * path and re-derive their diagnostic.
 */
ContentCache<bool> g_validated;

std::uint64_t
partitionKey(const nn::Network &net,
             const std::vector<std::string> &analog_layers)
{
    StructuralHasher h(/*salt=*/0x50617274u); // 'Part'
    h.mix(net.structuralHash());
    h.mix(analog_layers.size());
    for (const auto &name : analog_layers)
        h.mixString(name);
    return h.digest();
}

} // namespace

RedEyeDevice::RedEyeDevice(ColumnArrayConfig config,
                           analog::ProcessParams process, Rng rng)
    : array_(config, process, rng.fork()), rng_(rng)
{
}

StatusOr<DeviceRun>
RedEyeDevice::tryRun(nn::Network &net,
                     const std::vector<std::string> &analog_layers,
                     const Tensor &input)
{
    if (input.shape().n != 1) {
        return Status::invalidArgument(
            "device executes one frame at a time, got batch of " +
            std::to_string(input.shape().n));
    }
    const std::uint64_t vkey = partitionKey(net, analog_layers);
    if (!g_validated.find(vkey)) {
        RETURN_IF_ERROR(validatePartition(net, analog_layers));
        g_validated.insert(vkey, true);
    }

    std::set<std::string> wanted(analog_layers.begin(),
                                 analog_layers.end());

    array_.resetEnergy();
    DeviceRun result;
    // One output per executed layer at most: emplace_back never
    // reallocates, so the pointers in acts stay valid.
    std::vector<Tensor> outputs;
    outputs.reserve(wanted.size());
    std::map<std::string, const Tensor *> acts;
    const Tensor *last = &input;
    // The last conv output the array clamped at 0 for a folded ReLU.
    const Tensor *clamped = nullptr;

    // Validation guarantees every fetched activation exists.
    auto fetch = [&](const std::string &name) -> const Tensor & {
        if (name == nn::kInputName)
            return input;
        auto it = acts.find(name);
        panic_if(it == acts.end(), "validated partition missing '",
                 name, "'");
        return *it->second;
    };

    for (std::size_t i = 0; i < net.size(); ++i) {
        nn::Layer &layer = net.layerAt(i);
        if (!wanted.count(layer.name()))
            continue;
        const auto inputs = net.inputsOf(i);
        Tensor out;
        const Tensor *served = nullptr; // an existing tensor, as is
        bool rectify = false;

        switch (layer.kind()) {
          case nn::LayerKind::Convolution: {
            auto &conv = static_cast<nn::ConvolutionLayer &>(layer);
            // Fold an immediately following in-partition ReLU.
            if (i + 1 < net.size()) {
                nn::Layer &next = net.layerAt(i + 1);
                if (next.kind() == nn::LayerKind::ReLU &&
                    wanted.count(next.name())) {
                    rectify = true;
                }
            }
            out = array_.runConvolution(fetch(inputs[0]), conv,
                                        rectify);
            break;
          }
          case nn::LayerKind::ReLU: {
            // Folded into the conv it reads, which already clamped at
            // 0: serve the conv's tensor. Otherwise clip a buffered
            // tensor.
            const Tensor &x = fetch(inputs[0]);
            if (&x == clamped) {
                served = &x;
                break;
            }
            out = x;
            for (std::size_t k = 0; k < out.size(); ++k)
                out[k] = std::max(0.0f, out[k]);
            break;
          }
          case nn::LayerKind::MaxPool: {
            auto &pool = static_cast<nn::MaxPoolLayer &>(layer);
            out = array_.runMaxPool(fetch(inputs[0]), pool);
            break;
          }
          case nn::LayerKind::AvgPool: {
            // Lowered to a uniform-weight convolution on hardware;
            // functionally: exact mean + conv-module noise.
            std::vector<const Tensor *> ins{&fetch(inputs[0])};
            layer.forward(ins, out);
            const double rms = std::sqrt(
                out.vec().empty()
                    ? 0.0
                    : [&] {
                          double s = 0.0;
                          for (float v : out.vec())
                              s += static_cast<double>(v) * v;
                          return s / static_cast<double>(out.size());
                      }());
            const double sigma = noise::noiseSigmaForSnr(
                rms, array_.config().convSnrDb);
            for (std::size_t k = 0; k < out.size(); ++k) {
                out[k] += static_cast<float>(
                    rng_.gaussian(0.0, sigma));
            }
            break;
          }
          case nn::LayerKind::LRN: {
            // Realized as conv-module weight renormalization: exact
            // math plus module noise at the programmed SNR.
            std::vector<const Tensor *> ins{&fetch(inputs[0])};
            layer.forward(ins, out);
            double s = 0.0;
            for (float v : out.vec())
                s += static_cast<double>(v) * v;
            const double rms = out.size()
                                   ? std::sqrt(s /
                                               static_cast<double>(
                                                   out.size()))
                                   : 0.0;
            const double sigma = noise::noiseSigmaForSnr(
                rms, array_.config().convSnrDb);
            for (std::size_t k = 0; k < out.size(); ++k) {
                out[k] += static_cast<float>(
                    rng_.gaussian(0.0, sigma));
            }
            break;
          }
          case nn::LayerKind::Concat: {
            auto &concat = static_cast<nn::ConcatLayer &>(layer);
            std::vector<const Tensor *> ins;
            for (const auto &name : inputs)
                ins.push_back(&fetch(name));
            concat.forward(ins, out);
            break;
          }
          default:
            panic("validated partition reached unsupported layer '",
                  layer.name(), "'");
        }

        result.executedLayers.push_back(layer.name());
        if (!served)
            served = &outputs.emplace_back(std::move(out));
        if (rectify)
            clamped = served;
        last = acts[layer.name()] = served;
    }

    result.features = array_.runQuantization(*last);
    result.energy = array_.energy();
    result.forcedDecisions = array_.forcedDecisions();
    return result;
}

DeviceRun
RedEyeDevice::run(nn::Network &net,
                  const std::vector<std::string> &analog_layers,
                  const Tensor &input)
{
    StatusOr<DeviceRun> result = tryRun(net, analog_layers, input);
    fatal_if(!result.ok(), result.status().message());
    return std::move(result.value());
}

} // namespace arch
} // namespace redeye
