/**
 * @file
 * Content-addressed per-operating-point serving models.
 *
 * A retune changes what a frame costs: a new SNR/ADC/depth triple
 * means a different compiled program (redeye/compiler.hh), a
 * different module schedule (service time), different analog energy,
 * and — through the depth — a different digital tail, priced on the
 * Jetson TK1 GPU (system/jetson.hh). OpModelCache derives all of
 * those numbers once per distinct operating point, compiling through
 * the *shared* ProgramCache, and keeps them under the operating
 * point's stable key (operatingPointKey). The device half comes from
 * deviceModel(), which the fleet engine's class models call too; only
 * the host halves differ (DESIGN.md §11).
 *
 * This is the cache re-keying half of the auto-tuner's contract: an
 * operating-point change makes the session's next lookup miss and
 * compile exactly its own entry — nothing is flushed, previous
 * entries stay warm (a scene that returns re-hits its old key), and
 * no stale plan can be served because the key *is* the operating
 * point.
 *
 * Like the fleet engine's per-class models, the cache serves the
 * mini-GoogLeNet topology (models/mini_googlenet.hh); only the
 * operating point varies across entries, so the network's structural
 * hash is shared and the ProgramCache dedupes across every consumer
 * in the process.
 */

#ifndef REDEYE_TUNE_OP_MODEL_HH
#define REDEYE_TUNE_OP_MODEL_HH

#include <cstdint>
#include <memory>

#include "core/content_cache.hh"
#include "redeye/compiler.hh"
#include "stream/degrade.hh"
#include "tune/operating_point.hh"

namespace redeye {

namespace nn {
class Network;
}

namespace tune {

/** Analytic serving numbers of one operating point. */
struct OpModel {
    OperatingPoint op;

    /** The compiled analog program (shared ProgramCache entry). */
    std::shared_ptr<const arch::Program> program;

    /** The Remap variant: same cut, ADC boosted the way
     * stream::planDegradation programs it. */
    std::shared_ptr<const arch::Program> remapProgram;

    double deviceS = 0.0;      ///< healthy analog frame time
    double remapDeviceS = 0.0; ///< ADC-boosted frame time
    double analogJ = 0.0;      ///< healthy analog frame energy
    double remapAnalogJ = 0.0; ///< ADC-boosted frame energy
    double hostTailS = 0.0;    ///< digital tail time at this depth
    double hostTailJ = 0.0;
    double hostFullS = 0.0;    ///< full network (bypass) time
    double hostFullJ = 0.0;
};

/** Per-frame cost of serving an operating point in a mode. */
struct OpCost {
    double energyJ = 0.0; ///< analog + host energy per frame
    double timeS = 0.0;   ///< unloaded service time per frame
};

/**
 * The device half of @p op's serving model: the program, then its
 * Remap variant (ADC raised by @p adc_boost_bits), compiled through
 * @p programs and priced by schedule and energy model. Host fields
 * stay zero. A non-compilable operating point is fatal.
 */
OpModel deviceModel(nn::Network &net, arch::ProgramCache &programs,
                    const OperatingPoint &op, unsigned adc_boost_bits);

/** OpModels under operatingPointKey() (core/content_cache.hh). */
class OpModelCache
{
  public:
    struct Config {
        /** Extra ADC bits of the Remap variant
         * (DegradationPolicyConfig::adcBoostBits). */
        unsigned adcBoostBits = 2;
    };

    /**
     * @param net The served topology; must outlive the cache. All
     * entries compile prefixes of this network.
     * @param programs Shared compilation cache; compiled programs of
     * every entry are fetched through (and so deduped with) it.
     */
    OpModelCache(nn::Network &net,
                 std::shared_ptr<arch::ProgramCache> programs,
                 Config config);
    OpModelCache(nn::Network &net,
                 std::shared_ptr<arch::ProgramCache> programs);

    /**
     * The model of @p op, built on first request. The returned
     * reference is stable for the cache's lifetime (entries are
     * never evicted). A non-compilable operating point is fatal —
     * bounds are expected to keep the search inside the compilable
     * box.
     */
    const OpModel &fetch(const OperatingPoint &op);

    /**
     * Per-frame serving cost of @p op under @p mode: Normal =
     * analog + digital tail, Remap = boosted analog + tail (the
     * device-specific dead-column stretch is the caller's), Bypass =
     * full network on the host.
     */
    OpCost costFor(const OperatingPoint &op,
                   stream::DegradeMode mode);

    std::uint64_t hits() const { return models_.hits(); }
    std::uint64_t misses() const { return models_.misses(); }
    std::size_t size() const { return models_.size(); }

    const arch::ProgramCache &programs() const { return *programs_; }

  private:
    OpModel build(const OperatingPoint &op) const;

    nn::Network &net_;
    std::shared_ptr<arch::ProgramCache> programs_;
    Config config_;
    double fullMacs_ = 0.0;
    double depth5TailMacs_ = 0.0; ///< paper calibration anchor
    ContentCache<OpModel> models_;
};

} // namespace tune
} // namespace redeye

#endif // REDEYE_TUNE_OP_MODEL_HH
