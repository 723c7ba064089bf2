/**
 * @file
 * Public entry point of the AMOS reproduction: the end-to-end
 * compilation flow of Fig. 2 of the paper.
 *
 *   software definition  ->  mapping generation  ->  validation
 *        -> exploration (model + tuning) -> implementation
 *
 * Typical use:
 *
 *   auto hw = amos::hw::v100();
 *   auto conv = amos::ops::makeConv2d({...});
 *   amos::Compiler compiler(hw);
 *   auto result = compiler.compile(conv);
 *   std::cout << result.report();
 *
 * The compiler owns the hardware description; compile() returns the
 * best mapping + schedule found together with the simulated latency
 * and the exploration trace.
 */

#ifndef AMOS_AMOS_AMOS_HH
#define AMOS_AMOS_AMOS_HH

#include <optional>
#include <string>

#include "amos/cache.hh"
#include "explore/stats.hh"
#include "explore/tuner.hh"
#include "graph/network.hh"
#include "hw/hardware.hh"
#include "ops/operators.hh"
#include "schedule/profile.hh"

namespace amos {

/** Outcome of compiling one operator. */
struct CompileResult
{
    /// False when the operator has no valid mapping on the target;
    /// latency then refers to the scalar fallback.
    bool tensorized = false;

    /// True when a valid mapping exists but AMOS's own scalar code
    /// was faster and shipped instead (degenerate-padding cases).
    bool usedScalarCode = false;

    double cycles = 0.0;
    double milliseconds = 0.0;
    double gflops = 0.0; ///< useful flops over achieved runtime

    std::size_t mappingsExplored = 0;
    int measurements = 0;

    std::string mappingSignature;
    std::string computeMapping;
    std::string memoryMapping;
    std::string pseudoCode;

    TuneResult tuning; ///< full tuner output incl. trace and plan

    /** Multi-line human-readable summary. */
    std::string report() const;
};

/**
 * Re-execute a persisted tuning outcome: instantiate the entry's
 * mapping on the hardware, lower and simulate the cached schedule,
 * and package a CompileResult — no exploration, so the whole replay
 * costs a single simulator run. nullopt when the entry is stale
 * (intrinsic absent or mapping no longer valid). Every cache hit,
 * from amos_cli --cache and from the serve layer's tiers, funnels
 * through here.
 */
std::optional<CompileResult> replayCacheEntry(
    const CacheEntry &entry, const TensorComputation &comp,
    const HardwareSpec &hw);

/**
 * The inverse of replayCacheEntry: the record a compile leaves in
 * the tuning-record store (winning intrinsic, mapping, schedule and
 * tuned cycles); nullopt when the result holds no tensorized plan.
 */
std::optional<CacheEntry> cacheEntryOf(const CompileResult &result);

/** The AMOS compiler for a fixed hardware target. */
class Compiler
{
  public:
    explicit Compiler(HardwareSpec hw, TuneOptions options = {})
        : _hw(std::move(hw)), _options(options)
    {}

    const HardwareSpec &hardware() const { return _hw; }
    const TuneOptions &options() const { return _options; }

    /**
     * Compile one operator: enumerate + validate mappings, explore
     * mappings x schedules, simulate, and package the winner.
     */
    CompileResult compile(const TensorComputation &comp) const;

    /**
     * Count the valid mappings of an operator on this target
     * (Table 6 / Sec. 7.5 experiments).
     */
    std::size_t countMappings(const TensorComputation &comp) const;

    /** Compile a whole network (Sec. 7.4). */
    NetworkResult compileNetwork(const Network &net) const;

  private:
    HardwareSpec _hw;
    TuneOptions _options;
};

} // namespace amos

#endif // AMOS_AMOS_AMOS_HH
