#include "stream/degrade.hh"

#include <algorithm>
#include <sstream>

#include "core/logging.hh"
#include "core/structural_hash.hh"

namespace redeye {
namespace stream {

const char *
degradeModeName(DegradeMode mode)
{
    switch (mode) {
      case DegradeMode::Normal:
        return "normal";
      case DegradeMode::Remap:
        return "remap";
      case DegradeMode::Bypass:
        return "bypass";
    }
    return "?";
}

std::string
DegradePlan::str() const
{
    std::ostringstream oss;
    oss << degradeModeName(mode);
    if (mode == DegradeMode::Remap) {
        oss << ": " << suspectColumns.size()
            << " suspect columns remapped";
        if (adcBits)
            oss << ", adc -> " << adcBits << "b";
    } else if (mode == DegradeMode::Bypass) {
        oss << ": " << suspectColumns.size()
            << " suspect columns, analog stage bypassed";
    }
    return oss.str();
}

DegradePlan
planDegradation(const ProbeReport &probe,
                const arch::ColumnArrayConfig &array_config,
                const DegradationPolicyConfig &config)
{
    const std::size_t columns = array_config.columns;
    fatal_if(probe.columnError.size() != columns,
             "probe covered ", probe.columnError.size(),
             " columns, array has ", columns);

    DegradePlan plan;
    plan.suspectColumns = probe.suspectColumns;
    if (plan.suspectColumns.empty())
        return plan; // Normal

    const double fraction =
        static_cast<double>(plan.suspectColumns.size()) /
        static_cast<double>(columns);
    if (fraction >= config.bypassSuspectFraction) {
        plan.mode = DegradeMode::Bypass;
        return plan;
    }

    // Remap: serve every logical position from a healthy column.
    // Healthy positions keep their own column (their buffered samples
    // stay local); suspect positions borrow healthy columns
    // round-robin, spreading the doubled-up work evenly.
    std::vector<bool> suspect(columns, false);
    for (std::size_t s : plan.suspectColumns)
        suspect[s] = true;
    std::vector<std::size_t> healthy;
    for (std::size_t c = 0; c < columns; ++c) {
        if (!suspect[c])
            healthy.push_back(c);
    }
    panic_if(healthy.empty(), "remap with no healthy columns");

    plan.mode = DegradeMode::Remap;
    plan.columnMap.resize(columns);
    std::size_t next = 0;
    for (std::size_t c = 0; c < columns; ++c) {
        if (!suspect[c]) {
            plan.columnMap[c] = c;
        } else {
            plan.columnMap[c] = healthy[next % healthy.size()];
            ++next;
        }
    }

    if (config.adcBoostBits > 0) {
        plan.adcBits = std::min(10u, array_config.adcBits +
                                         config.adcBoostBits);
    }
    return plan;
}

std::uint64_t
degradePlanKey(std::uint64_t epoch,
               const arch::ColumnArrayConfig &array_config,
               const DegradationPolicyConfig &config)
{
    StructuralHasher h(/*salt=*/0x44677264u); // 'Dgrd'
    h.mix(epoch);
    h.mix(array_config.columns)
        .mixDouble(array_config.convSnrDb)
        .mix(array_config.weightBits)
        .mix(array_config.adcBits);
    h.mix(config.probePeriod)
        .mixDouble(config.bypassSuspectFraction)
        .mix(config.adcBoostBits);
    return h.digest();
}

} // namespace stream
} // namespace redeye
