/**
 * @file
 * Warm-start exploration benchmark: how much of a cold search's
 * budget does shape-transfer seeding save?
 *
 * Cold-tunes a family of donor shapes, then tunes held-out family
 * members twice — cold (random generation 0) and warm (generation 0
 * seeded from the nearest donor winners) — and records the
 * best-so-far-vs-generation curve of each run. The headline number
 * is the generation fraction: the first warm generation whose
 * incumbent matches the cold run's *final* best, over the cold run's
 * generation count (target: <= 0.5).
 *
 * Both searches are deterministic (fixed seeds), so the curves and
 * the generation fraction are machine-independent; the *_eps
 * throughputs are wall-clock and gated by check_regression.py like
 * every other bench. Exits non-zero when the warm search needs more
 * than half the cold budget, so CI fails on a seeding regression.
 *
 * Prints a human table to stderr, the standard envelope to stdout,
 * and writes BENCH_warmstart.json ($AMOS_BENCH_DIR or the working
 * directory).
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "explore/tuner.hh"
#include "explore/warm_start.hh"
#include "ops/operators.hh"

namespace {

using namespace amos;
using Clock = std::chrono::steady_clock;

/** Conv family: rich mapping pools make generation 0 expensive. */
TensorComputation
familyConv(std::int64_t batch, std::int64_t cout)
{
    ops::ConvParams pr;
    pr.batch = batch;
    pr.in_channels = 32;
    pr.out_channels = cout;
    pr.out_h = 14;
    pr.out_w = 14;
    pr.kernel_h = 3;
    pr.kernel_w = 3;
    return ops::makeConv2d(pr);
}

/** Best-so-far curve: the incumbent after each main-loop generation. */
std::vector<double>
searchCurve(const TuneResult &result)
{
    std::vector<double> curve;
    for (const auto &row : result.telemetry)
        if (row.phase == "search")
            curve.push_back(row.bestMeasuredCycles);
    return curve;
}

/** First 1-based generation whose incumbent is <= target cycles. */
std::size_t
generationsToReach(const std::vector<double> &curve, double target)
{
    for (std::size_t i = 0; i < curve.size(); ++i)
        if (curve[i] <= target)
            return i + 1;
    return curve.size();
}

Json
curveJson(const std::vector<double> &curve)
{
    Json arr = Json::array();
    for (double v : curve)
        arr.push(Json(v));
    return arr;
}

struct TargetResult
{
    std::string name;
    TuneResult cold;
    TuneResult warm;
    double coldSeconds = 0.0;
    double warmSeconds = 0.0;
    double genFraction = 1.0;
    /// False when the cold search already converges in generation
    /// 1: there is no budget left for seeding to save, so the
    /// fraction is 1.0 by construction and the gate skips it.
    bool qualifies = false;
};

} // namespace

int
main(int argc, char **argv)
{
    bool tiny = argc > 1 && std::string(argv[1]) == "--tiny";
    const int reps = tiny ? 1 : 3;
    auto hw = hw::v100();
    TuneOptions base = bench::benchTuning();

    // Donor family: cold-tune once; each winner becomes a seed.
    std::vector<std::pair<std::int64_t, std::int64_t>> donor_shapes =
        {{4, 32}, {8, 32}, {16, 32}, {8, 64}};
    std::vector<WarmSeed> donors;
    for (auto [batch, cout] : donor_shapes) {
        auto comp = familyConv(batch, cout);
        auto result = tune(comp, hw, base);
        expect(result.tensorizable, "bench_warmstart: donor shape "
                                    "failed to tensorize");
        WarmSeed seed;
        seed.sourceKey = TuningCache::keyFor(comp, hw);
        seed.intrinsicName = result.bestPlan->intrinsic().name();
        seed.mapping = result.bestPlan->mapping();
        seed.schedule = result.bestSchedule;
        donors.push_back(std::move(seed));
    }

    // Held-out family members: same operator family, new dims.
    std::vector<std::pair<std::int64_t, std::int64_t>> targets = {
        {6, 32}, {12, 32}, {8, 48}};
    if (tiny)
        targets.resize(1);

    std::fprintf(stderr, "%-14s %12s %12s %8s %8s %8s\n", "target",
                 "cold cycles", "warm cycles", "cold gen",
                 "warm gen", "frac");
    std::vector<TargetResult> results;
    double cold_total_s = 0.0, warm_total_s = 0.0;
    for (auto [batch, cout] : targets) {
        auto comp = familyConv(batch, cout);
        TargetResult row;
        row.name = "conv2d_b" + std::to_string(batch) + "_c" +
                   std::to_string(cout);

        TuneOptions warm_options = base;
        warm_options.warmStart.mode = WarmStartMode::Neighbors;
        warm_options.warmStart.seeds =
            nearestSeeds(shapeFeatureOf(comp, hw), donors);

        // Best-of-reps wall clock; the search outcome is identical
        // every rep (fixed seed), so only the timing varies.
        double cold_s = 0.0, warm_s = 0.0;
        for (int r = 0; r < reps; ++r) {
            auto t0 = Clock::now();
            row.cold = tune(comp, hw, base);
            double s = std::chrono::duration<double>(Clock::now() -
                                                     t0)
                           .count();
            cold_s = r == 0 ? s : std::min(cold_s, s);
            t0 = Clock::now();
            row.warm = tune(comp, hw, warm_options);
            s = std::chrono::duration<double>(Clock::now() - t0)
                    .count();
            warm_s = r == 0 ? s : std::min(warm_s, s);
        }
        row.coldSeconds = cold_s;
        row.warmSeconds = warm_s;
        cold_total_s += cold_s;
        warm_total_s += warm_s;

        // Curve-to-curve comparison: the cold run's final *search*
        // incumbent, not its post-exploit best — both runs get the
        // same exploit refinement after the GA ends.
        auto cold_curve = searchCurve(row.cold);
        auto warm_curve = searchCurve(row.warm);
        double cold_final =
            cold_curve.empty() ? row.cold.bestCycles
                               : cold_curve.back();
        auto cold_gens = generationsToReach(cold_curve, cold_final);
        auto warm_gens = generationsToReach(warm_curve, cold_final);
        bool reached = !warm_curve.empty() &&
                       warm_curve[warm_gens - 1] <= cold_final;
        row.genFraction =
            reached ? static_cast<double>(warm_gens) /
                          static_cast<double>(
                              std::max<std::size_t>(cold_gens, 1))
                    : 1.0;
        row.qualifies = cold_gens >= 2;

        std::fprintf(stderr, "%-14s %12.0f %12.0f %8zu %8zu %8.2f\n",
                     row.name.c_str(), row.cold.bestCycles,
                     row.warm.bestCycles, cold_gens, warm_gens,
                     row.genFraction);
        results.push_back(std::move(row));
    }

    bench::BenchReport report("warmstart", reps);
    report.setConfig("family", Json("conv2d, v100, cin=32, 14x14x3x3"));
    report.setConfig("donors", Json(static_cast<std::int64_t>(
                                   donor_shapes.size())));
    report.setConfig("tuning", Json("population=20 generations=8 "
                                    "measureTopK=6 seed=2022"));
    report.setConfig("tiny", Json(tiny));

    double worst_fraction = 0.0;
    std::size_t qualifying = 0;
    Json rows = Json::array();
    for (const auto &row : results) {
        Json entry = Json::object();
        entry.set("target", Json(row.name));
        entry.set("cold_curve", curveJson(searchCurve(row.cold)));
        entry.set("warm_curve", curveJson(searchCurve(row.warm)));
        entry.set("cold_best_cycles", Json(row.cold.bestCycles));
        entry.set("warm_best_cycles", Json(row.warm.bestCycles));
        entry.set("cold_measurements",
                  Json(static_cast<std::int64_t>(
                      row.cold.measurements)));
        entry.set("warm_measurements",
                  Json(static_cast<std::int64_t>(
                      row.warm.measurements)));
        entry.set("warm_seeded", Json(static_cast<std::int64_t>(
                                     row.warm.warmStartSeeded)));
        entry.set("gen_fraction", Json(row.genFraction));
        entry.set("gate_qualifies", Json(row.qualifies));
        rows.push(std::move(entry));
        if (row.qualifies) {
            ++qualifying;
            worst_fraction =
                std::max(worst_fraction, row.genFraction);
        }
    }
    report.setMetric("targets", std::move(rows));
    report.setMetric("worst_gen_fraction", Json(worst_fraction));
    report.setMetric("gate_qualifying_targets",
                     Json(static_cast<std::int64_t>(qualifying)));
    // Gated throughputs: whole-family compile rate, cold vs warm.
    report.setMetric("cold_compile_eps",
                     Json(static_cast<double>(results.size()) /
                          cold_total_s));
    report.setMetric("warm_compile_eps",
                     Json(static_cast<double>(results.size()) /
                          warm_total_s));

    std::printf("%s\n", report.toJson().dump().c_str());
    report.write();

    // The tentpole's acceptance bar: the warm search reaches the
    // cold search's final incumbent within half the generations on
    // every family member whose cold search actually progresses
    // (cold runs that converge in generation 1 leave nothing to
    // save). Deterministic, so a failure here is a seeding
    // regression, not noise.
    if (qualifying == 0) {
        std::fprintf(stderr,
                     "FAIL: no target's cold search progressed "
                     "past generation 1 — gate has no signal\n");
        return 1;
    }
    if (worst_fraction > 0.5) {
        std::fprintf(stderr,
                     "FAIL: warm search needed %.2f of the cold "
                     "generation budget (limit 0.5)\n",
                     worst_fraction);
        return 1;
    }
    return 0;
}
