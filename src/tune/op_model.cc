#include "tune/op_model.hh"

#include "core/logging.hh"
#include "models/mini_googlenet.hh"
#include "models/partition.hh"
#include "nn/network.hh"
#include "redeye/energy_model.hh"
#include "redeye/scheduler.hh"
#include "system/jetson.hh"

namespace redeye {
namespace tune {

OpModelCache::OpModelCache(nn::Network &net,
                           std::shared_ptr<arch::ProgramCache>
                               programs,
                           Config config)
    : net_(net), programs_(std::move(programs)),
      config_(config),
      fullMacs_(static_cast<double>(net.totalMacs())),
      depth5TailMacs_(static_cast<double>(models::digitalTailMacs(
          net, models::miniGoogLeNetAnalogLayers(5))))
{
    fatal_if(programs_ == nullptr,
             "OpModelCache needs a program cache");
}

OpModelCache::OpModelCache(nn::Network &net,
                           std::shared_ptr<arch::ProgramCache>
                               programs)
    : OpModelCache(net, std::move(programs), Config())
{
}

OpModel
deviceModel(nn::Network &net, arch::ProgramCache &programs,
            const OperatingPoint &op, unsigned adc_boost_bits)
{
    OpModel m;
    m.op = op;

    const std::vector<std::string> analog_layers =
        models::miniGoogLeNetAnalogLayers(op.depth);

    arch::RedEyeConfig device;
    device.adcBits = op.adcBits;
    device.convSnrDb = op.snrDb;
    device.columns = models::kMiniInputSize;

    auto prog = programs.compileOrStatus(net, analog_layers, device);
    fatal_if(!prog.ok(), "operating point ", op.str(),
             " does not compile: ", prog.status().message());
    m.program = std::move(prog.value());
    m.deviceS =
        arch::scheduleProgram(*m.program, device).frameLatencyS;
    m.analogJ = arch::RedEyeModel(*m.program, device)
                    .estimateFrame()
                    .energy.totalJ();

    arch::RedEyeConfig remap_cfg = device;
    remap_cfg.adcBits += adc_boost_bits;
    auto remap = programs.compileOrStatus(net, analog_layers, remap_cfg);
    fatal_if(!remap.ok(), "remap variant of ", op.str(),
             " does not compile: ", remap.status().message());
    m.remapProgram = std::move(remap.value());
    m.remapDeviceS =
        arch::scheduleProgram(*m.remapProgram, remap_cfg)
            .frameLatencyS;
    m.remapAnalogJ = arch::RedEyeModel(*m.remapProgram, remap_cfg)
                         .estimateFrame()
                         .energy.totalJ();
    return m;
}

OpModel
OpModelCache::build(const OperatingPoint &op) const
{
    OpModel m = deviceModel(net_, *programs_, op, config_.adcBoostBits);

    // Calibrate the Jetson GPU's MACs->time line once from the
    // paper's two measured anchors (full network, depth-5 tail), then
    // evaluate at *this* cut's tail — so moving layers into analog
    // really shrinks the modeled digital spend, which is the whole
    // energy argument for the depth knob.
    const double tail_macs = static_cast<double>(models::digitalTailMacs(
        net_, models::miniGoogLeNetAnalogLayers(op.depth)));
    sys::JetsonTk1 host(sys::JetsonParams::paper(
        sys::JetsonProcessor::GPU, fullMacs_, depth5TailMacs_));
    m.hostTailS = host.executionTimeS(tail_macs);
    m.hostTailJ = host.executionEnergyJ(tail_macs);
    m.hostFullS = host.executionTimeS(fullMacs_);
    m.hostFullJ = host.executionEnergyJ(fullMacs_);
    return m;
}

const OpModel &
OpModelCache::fetch(const OperatingPoint &op)
{
    return models_.fetch(operatingPointKey(op),
                         [&] { return build(op); });
}

OpCost
OpModelCache::costFor(const OperatingPoint &op,
                      stream::DegradeMode mode)
{
    const OpModel &m = fetch(op);
    OpCost cost;
    switch (mode) {
      case stream::DegradeMode::Normal:
        cost.energyJ = m.analogJ + m.hostTailJ;
        cost.timeS = m.deviceS + m.hostTailS;
        break;
      case stream::DegradeMode::Remap:
        cost.energyJ = m.remapAnalogJ + m.hostTailJ;
        cost.timeS = m.remapDeviceS + m.hostTailS;
        break;
      case stream::DegradeMode::Bypass:
        cost.energyJ = m.hostFullJ;
        cost.timeS = m.hostFullS;
        break;
    }
    return cost;
}

} // namespace tune
} // namespace redeye
