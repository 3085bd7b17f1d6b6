#include "redeye/compiler.hh"

#include <cmath>
#include <set>
#include <sstream>

#include "core/logging.hh"
#include "core/structural_hash.hh"
#include "nn/conv.hh"
#include "nn/lrn.hh"
#include "nn/network.hh"
#include "nn/pool.hh"

namespace redeye {
namespace arch {

namespace {

/** Per-item input shape of node @p i (single-input layers). */
Shape
soleInputShape(nn::Network &net, std::size_t i)
{
    const auto inputs = net.inputsOf(i);
    panic_if(inputs.size() != 1, "layer '", net.layerAt(i).name(),
             "' has ", inputs.size(), " inputs");
    return net.nodeShape(inputs[0]);
}

/** Quantize a float tensor to signed 8-bit codes at +-absMax. */
double
emit8Bit(const Tensor &t, std::vector<std::int8_t> &out)
{
    const float amax = t.absMax();
    const double scale = amax > 0.0f ? amax / 127.0 : 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const double code = scale > 0.0
                                ? std::round(t[i] / scale)
                                : 0.0;
        out.push_back(static_cast<std::int8_t>(code));
    }
    return scale;
}

/** Build the fixed-point kernel image of a convolution. */
void
quantizeKernel(nn::ConvolutionLayer &conv, Instruction &instr)
{
    instr.kernelImage.reserve(instr.kernelBytes);
    instr.kernelScale = emit8Bit(conv.weights(), instr.kernelImage);
    if (conv.convParams().bias)
        instr.biasScale = emit8Bit(conv.biases(), instr.kernelImage);
    panic_if(instr.kernelImage.size() != instr.kernelBytes,
             "kernel image size ", instr.kernelImage.size(),
             " != accounted bytes ", instr.kernelBytes);
}

/** InvalidArgument with a streamed message. */
template <typename... Args>
Status
reject(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return Status::invalidArgument(oss.str());
}

/** Reject zero-sized (degenerate) layer shapes. */
Status
checkShapes(const std::string &layer, const Shape &in,
            const Shape &out)
{
    if (in.size() == 0) {
        return reject("layer '", layer, "' has a zero-sized input "
                      "shape (", in.c, "x", in.h, "x", in.w, ")");
    }
    if (out.size() == 0) {
        return reject("layer '", layer, "' has a zero-sized output "
                      "shape (", out.c, "x", out.h, "x", out.w, ")");
    }
    return Status();
}

/** Reject window geometries that exceed their padded input. */
Status
checkWindow(const std::string &layer, const Shape &in,
            std::size_t kernel_h, std::size_t kernel_w,
            std::size_t pad_h, std::size_t pad_w)
{
    if (kernel_h == 0 || kernel_w == 0)
        return reject("layer '", layer, "' has a zero-sized kernel");
    if (kernel_h > in.h + 2 * pad_h || kernel_w > in.w + 2 * pad_w) {
        return reject("layer '", layer, "': kernel ", kernel_h, "x",
                      kernel_w, " is larger than the padded input ",
                      in.h + 2 * pad_h, "x", in.w + 2 * pad_w);
    }
    return Status();
}

} // namespace

StatusOr<Program>
compileOrStatus(nn::Network &net,
                const std::vector<std::string> &analog_layers,
                const RedEyeConfig &config)
{
    if (analog_layers.empty())
        return reject("cannot compile an empty partition");
    if (config.adcBits < 1 || config.adcBits > 10) {
        return reject("ADC resolution must be in [1, 10], got ",
                      config.adcBits);
    }

    std::set<std::string> wanted(analog_layers.begin(),
                                 analog_layers.end());
    for (const auto &name : analog_layers) {
        if (!net.hasLayer(name)) {
            return reject("network '", net.name(),
                          "' has no layer '", name, "'");
        }
    }

    std::vector<Instruction> instrs;
    Shape cut_shape;
    std::size_t last_conv_idx = 0;
    bool have_conv = false;

    for (std::size_t i = 0; i < net.size(); ++i) {
        nn::Layer &layer = net.layerAt(i);
        if (!wanted.count(layer.name()))
            continue;

        const Shape in_shape = layer.kind() == nn::LayerKind::Concat
                                   ? Shape()
                                   : soleInputShape(net, i);
        const Shape out_shape = net.nodeShape(layer.name());
        if (layer.kind() != nn::LayerKind::Concat) {
            RETURN_IF_ERROR(
                checkShapes(layer.name(), in_shape, out_shape));
        }
        cut_shape = out_shape;

        switch (layer.kind()) {
          case nn::LayerKind::Convolution: {
            auto &conv = static_cast<nn::ConvolutionLayer &>(layer);
            const auto &p = conv.convParams();
            if (p.groups != 1 && in_shape.c % p.groups != 0) {
                return reject("conv '", layer.name(),
                              "': bad grouping");
            }
            RETURN_IF_ERROR(checkWindow(layer.name(), in_shape,
                                        p.kernelH, p.kernelW, p.padH,
                                        p.padW));
            Instruction instr;
            instr.kind = ModuleKind::Convolution;
            instr.layer = layer.name();
            instr.inShape = in_shape;
            instr.outShape = out_shape;
            instr.kernelH = p.kernelH;
            instr.kernelW = p.kernelW;
            instr.strideH = p.strideH;
            instr.strideW = p.strideW;
            instr.padH = p.padH;
            instr.padW = p.padW;
            instr.taps = (in_shape.c / p.groups) * p.kernelH *
                         p.kernelW;
            instr.macs = out_shape.size() * instr.taps;
            instr.snrDb = config.snrForLayer(layer.name());
            // 8-bit weights + biases in the kernel SRAM; emit the
            // fixed-point kernel image the weight bus distributes.
            instr.kernelBytes = p.outChannels * instr.taps +
                                (p.bias ? p.outChannels : 0);
            quantizeKernel(conv, instr);
            instrs.push_back(instr);
            last_conv_idx = instrs.size() - 1;
            have_conv = true;
            break;
          }
          case nn::LayerKind::ReLU: {
            if (!have_conv) {
                return reject("ReLU '", layer.name(),
                              "' has no preceding convolutional "
                              "module to fold into");
            }
            instrs[last_conv_idx].rectify = true;
            break;
          }
          case nn::LayerKind::LRN: {
            if (!have_conv) {
                return reject("LRN '", layer.name(),
                              "' has no preceding convolutional "
                              "module to fold into");
            }
            auto &lrn = static_cast<nn::LrnLayer &>(layer);
            Instruction &conv = instrs[last_conv_idx];
            conv.normalize = true;
            // Weight renormalization costs one multiply per channel
            // window tap per output.
            conv.macs += out_shape.size() *
                         lrn.lrnParams().localSize;
            break;
          }
          case nn::LayerKind::MaxPool: {
            auto &pool = static_cast<nn::MaxPoolLayer &>(layer);
            const auto &p = pool.poolParams();
            RETURN_IF_ERROR(checkWindow(layer.name(), in_shape,
                                        p.kernel, p.kernel, p.pad,
                                        p.pad));
            Instruction instr;
            instr.kind = ModuleKind::MaxPooling;
            instr.layer = layer.name();
            instr.inShape = in_shape;
            instr.outShape = out_shape;
            instr.poolKernel = p.kernel;
            instr.poolStride = p.stride;
            instr.poolPad = p.pad;
            instr.comparisons = out_shape.size() *
                                (p.kernel * p.kernel - 1);
            instrs.push_back(instr);
            break;
          }
          case nn::LayerKind::AvgPool: {
            auto &pool = static_cast<nn::AvgPoolLayer &>(layer);
            const auto &p = pool.poolParams();
            RETURN_IF_ERROR(checkWindow(layer.name(), in_shape,
                                        p.kernel, p.kernel, p.pad,
                                        p.pad));
            // Lowered to a convolution with uniform 1/k^2 weights.
            Instruction instr;
            instr.kind = ModuleKind::Convolution;
            instr.layer = layer.name();
            instr.inShape = in_shape;
            instr.outShape = out_shape;
            instr.kernelH = p.kernel;
            instr.kernelW = p.kernel;
            instr.strideH = p.stride;
            instr.strideW = p.stride;
            instr.padH = p.pad;
            instr.padW = p.pad;
            instr.taps = p.kernel * p.kernel;
            instr.macs = out_shape.size() * instr.taps;
            instr.snrDb = config.snrForLayer(layer.name());
            instr.kernelBytes = 1; // one shared uniform weight
            instr.kernelImage = {127};
            instr.kernelScale =
                1.0 / (static_cast<double>(p.kernel * p.kernel) *
                       127.0);
            instrs.push_back(instr);
            last_conv_idx = instrs.size() - 1;
            have_conv = true;
            break;
          }
          case nn::LayerKind::Concat:
            // Pure flow control: branches land in adjacent buffer
            // regions; no module engagement.
            break;
          case nn::LayerKind::GaussianNoise:
          case nn::LayerKind::QuantizationNoise:
            // Simulation-only layers; physical RedEye has no
            // corresponding module.
            break;
          default:
            return reject("RedEye cannot execute layer '",
                          layer.name(), "' of kind ",
                          nn::layerKindName(layer.kind()),
                          "; cut the partition before it");
        }
    }

    if (instrs.empty())
        return reject("partition produced no instructions");

    Instruction quant;
    quant.kind = ModuleKind::Quantization;
    quant.layer = "@readout";
    quant.inShape = cut_shape;
    quant.outShape = cut_shape;
    quant.adcBits = config.adcBits;
    quant.conversions = cut_shape.size();
    instrs.push_back(quant);

    Program prog;
    for (auto &instr : instrs)
        prog.append(std::move(instr));
    return prog;
}

Program
compile(nn::Network &net,
        const std::vector<std::string> &analog_layers,
        const RedEyeConfig &config)
{
    StatusOr<Program> prog =
        compileOrStatus(net, analog_layers, config);
    fatal_if(!prog.ok(), prog.status().message());
    return std::move(prog.value());
}

std::uint64_t
programKey(const nn::Network &net,
           const std::vector<std::string> &analog_layers,
           const RedEyeConfig &config)
{
    StructuralHasher h(/*salt=*/0x50726f67u); // 'Prog'
    h.mix(net.structuralHash());
    h.mix(analog_layers.size());
    for (const auto &name : analog_layers)
        h.mixString(name);
    h.mix(config.adcBits)
        .mixDouble(config.convSnrDb)
        .mixDouble(config.frameRate)
        .mixDouble(config.controllerClockHz)
        .mixDouble(config.controllerPowerPerHz)
        .mix(config.columns);
    // std::map iterates in key order: deterministic across processes.
    h.mix(config.layerSnrDb.size());
    for (const auto &[layer, snr] : config.layerSnrDb) {
        h.mixString(layer);
        h.mixDouble(snr);
    }
    return h.digest();
}

StatusOr<std::shared_ptr<const Program>>
ProgramCache::compileOrStatus(
    nn::Network &net, const std::vector<std::string> &analog_layers,
    const RedEyeConfig &config)
{
    const std::uint64_t key = programKey(net, analog_layers, config);
    if (const auto *cached = programs_.find(key))
        return *cached;
    // Compile outside the cache's lock; the compiler is pure, so a
    // racing duplicate compilation yields an identical program.
    StatusOr<Program> prog =
        arch::compileOrStatus(net, analog_layers, config);
    if (!prog.ok())
        return prog.status();
    return programs_.insert(
        key, std::make_shared<const Program>(std::move(prog.value())));
}

} // namespace arch
} // namespace redeye
