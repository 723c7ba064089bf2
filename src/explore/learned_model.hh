/**
 * @file
 * Learned cost model (the "Learn Algo." box of the paper's Fig. 2):
 * a ridge regression over kernel-profile features, trained online on
 * the (profile, measured-cycles) pairs the tuner accumulates, and
 * stacked on top of the analytic model (whose prediction is itself a
 * feature). Mirrors the statistical-cost-model-plus-analysis recipe
 * of AutoTVM/Ansor that AMOS plugs into.
 */

#ifndef AMOS_EXPLORE_LEARNED_MODEL_HH
#define AMOS_EXPLORE_LEARNED_MODEL_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "hw/hardware.hh"
#include "schedule/profile.hh"
#include "support/json.hh"

namespace amos {

/** Online ridge-regression cost model over profile features. */
class LearnedModel
{
  public:
    /**
     * Feature vector of a kernel profile: log-scaled structural and
     * traffic quantities plus the analytic model's estimate.
     */
    static std::vector<double> features(const KernelProfile &prof,
                                        const HardwareSpec &hw);

    /** Number of features (including the bias term). */
    static std::size_t featureCount();

    /** Record one measured sample. */
    void addSample(const KernelProfile &prof, const HardwareSpec &hw,
                   double measured_cycles);

    /**
     * Fit ridge regression on log(cycles). No-op below the minimum
     * sample count.
     */
    void fit(double ridge = 1e-3);

    /** True once fit() has produced usable weights. */
    bool trained() const { return _trained; }

    std::size_t sampleCount() const { return _targets.size(); }

    /**
     * Predict cycles for a profile. Falls back to the analytic model
     * until trained.
     */
    double predictCycles(const KernelProfile &prof,
                         const HardwareSpec &hw) const;

    /** Minimum samples before fit() produces weights. */
    static constexpr std::size_t kMinSamples = 8;

    /** Schema tag stamped into every snapshot document. */
    static constexpr const char *kSnapshotSchema =
        "amos-learned-model-v1";

    /** Number of samples the current weights were fitted on. */
    std::size_t fittedSamples() const { return _fittedSamples; }

    /**
     * Serialise the fitted weights (not the raw samples — snapshots
     * are a screening artifact, not a training checkpoint). Requires
     * trained().
     */
    Json toJson() const;

    /**
     * Deserialise a snapshot. nullopt — never a throw — on any
     * corruption: wrong root kind, missing/mismatched schema tag,
     * wrong feature count, wrong weight count, or non-finite
     * weights. Callers fall back to the analytic model.
     */
    static std::optional<LearnedModel> fromJson(const Json &json);

    /**
     * Atomically save a snapshot file (writeFileAtomic), then remove
     * the temps of `path` that writers which died mid-save left
     * behind (removeOrphanTemps).
     */
    void saveFile(const std::string &path) const;

    /**
     * Load a snapshot file. nullopt (with a warning) on an
     * unreadable, unparseable, or corrupt file — hot paths must
     * degrade to analytic screening, never crash.
     */
    static std::optional<LearnedModel>
    loadFile(const std::string &path);

    /**
     * Stable content digest of the snapshot (FNV-1a over the JSON
     * dump, hex). Distinguishes snapshots in cache keys: two models
     * with identical weights share a digest.
     */
    std::string digest() const;

  private:
    std::vector<std::vector<double>> _samples;
    std::vector<double> _targets; ///< log(cycles)
    std::vector<double> _weights;
    bool _trained = false;
    std::size_t _fittedSamples = 0;
};

} // namespace amos

#endif // AMOS_EXPLORE_LEARNED_MODEL_HH
