/**
 * @file
 * traced: replay a workload's generated requests in-process, the way
 * CompileService serves them, with a span around every call into a
 * layer's public function. Spans stay in memory and are printed once
 * at the end; nothing inside the library is instrumented.
 *
 *   --workload cold|hotset
 *   --requests FILE      the workload's request lines
 *   --budget-s S         stop starting requests after S seconds
 *   --store-dir DIR      hotset: fresh copy of the pre-built store
 *   --mem-capacity M     hotset: memory-tier entries
 *
 * Prints {"spans":[..],"requests":[{idx,id,signature,cycles,
 * served_by,plans,screened,measured,generations,reused,neighbors,
 * seeded,bytes}],"warmed":N}.
 */

#include <iostream>
#include <optional>
#include <sstream>

#include "amos/amos.hh"
#include "baselines/baselines.hh"
#include "harness.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"
#include "serve/tiered_cache.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace pbench {

namespace {

using amos::Json;

/** The enumeration tune() performs: every matching intrinsic's plans. */
std::vector<amos::MappingPlan>
enumerateForTarget(const amos::TensorComputation &comp,
                   const amos::HardwareSpec &hw,
                   const amos::TuneOptions &options)
{
    std::vector<amos::MappingPlan> plans;
    for (const auto &intr : hw.intrinsics) {
        if (comp.inputs().size() != intr.compute.numSrcs() ||
            comp.combine() != intr.compute.combine())
            continue;
        for (auto &plan :
             amos::enumeratePlans(comp, intr, options.mappingOptions))
            plans.push_back(std::move(plan));
    }
    return plans;
}

/** Compiler::compile's packaging of a tuner outcome. */
amos::CompileResult
finish(const amos::TensorComputation &comp, const amos::HardwareSpec &hw,
       amos::TuneResult tuned)
{
    amos::CompileResult result;
    result.tuning = tuned;
    auto scalar =
        amos::baselines::scalarExecution(comp, hw, 0.6, "amos-scalar");
    if (!tuned.tensorizable) {
        result.cycles = scalar.cycles;
        result.milliseconds = scalar.milliseconds;
    } else {
        result.tensorized = true;
        result.cycles = tuned.bestCycles;
        if (scalar.cycles < result.cycles) {
            result.cycles = scalar.cycles;
            result.usedScalarCode = true;
        }
        result.milliseconds = amos::cyclesToMs(result.cycles, hw);
        result.mappingsExplored = tuned.numMappings;
        result.measurements = tuned.measurements;
        result.mappingSignature = tuned.mappingSignature;
        result.computeMapping = tuned.computeMapping;
        if (tuned.bestPlan) {
            result.memoryMapping = tuned.bestPlan->memoryMappingString();
            result.pseudoCode = amos::renderPseudoCode(
                *tuned.bestPlan, tuned.bestSchedule, hw);
        }
    }
    result.gflops = static_cast<double>(comp.flopCount()) /
                    (result.milliseconds * 1e6);
    return result;
}

/** Per-call cost probes on candidate pairs drawn like the tuner's. */
void
probeCalls(SpanLog &log, const std::string &id,
           const std::vector<amos::MappingPlan> &plans,
           const amos::HardwareSpec &hw, std::uint64_t seed, int pairs)
{
    for (int j = 0; j < pairs; ++j) {
        amos::Rng rng(amos::mixSeed(seed, static_cast<std::uint64_t>(j),
                                    0));
        const auto &plan = plans[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(plans.size()) - 1))];
        auto sched = amos::sampleSchedule(plan, rng);
        {
            Scoped s(log, "probe.schedule.expert", id);
            amos::expertSchedule(plan, hw);
        }
        amos::KernelProfile prof;
        {
            Scoped s(log, "probe.schedule.lower", id);
            prof = amos::lowerKernel(plan, sched, hw);
        }
        {
            Scoped s(log, "probe.model.estimate", id);
            amos::modelCycles(prof, hw);
        }
        {
            Scoped s(log, "probe.sim.simulate", id);
            amos::simulateKernel(prof, hw);
        }
    }
}

Json
telemetryRow(const amos::TuneResult &tuned, std::size_t plans)
{
    std::int64_t screened = 0, reused = 0, generations = 0;
    for (const auto &row : tuned.telemetry) {
        screened += row.populationSize;
        reused += row.measuredReused;
        if (row.phase == "search")
            ++generations;
    }
    Json out = Json::object();
    out.set("plans", Json(static_cast<std::int64_t>(plans)));
    out.set("screened", Json(screened));
    out.set("measured", Json(tuned.measurements));
    out.set("generations", Json(generations));
    out.set("reused", Json(reused));
    out.set("neighbors", Json(tuned.warmStartNeighbors));
    out.set("seeded", Json(tuned.warmStartSeeded));
    return out;
}

} // namespace

int
runTraced(const Args &args)
{
    const bool hotset = args.str("workload") == "hotset";
    const auto lines = readLines(args.str("requests"));
    const double budget = args.num("budget-s", 5.0);
    // cold: per-call cost probes per request, on candidate pairs
    // drawn as the tuner draws them.
    const int pairs = 8;

    SpanLog log;
    std::optional<amos::serve::TieredCache> cache;
    std::size_t warmed = 0;
    if (hotset) {
        amos::serve::TieredCache::Options copt;
        copt.diskDir = args.str("store-dir");
        copt.memoryCapacity =
            static_cast<std::size_t>(args.num("mem-capacity", 64));
        cache.emplace(copt);
        Scoped s(log, "cache.warm");
        warmed = cache->warm();
    }

    Json requests = Json::array();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (secondsBetween(start, Clock::now()) > budget)
            break;
        const std::string rid = std::to_string(i);
        Json row = Json::object();
        std::vector<amos::MappingPlan> plans;
        amos::HardwareSpec hw;
        std::uint64_t seed = 0;
        {
            Scoped root(log, "request", rid);
            amos::serve::CompileRequest req;
            {
                Scoped s(log, "serve.parse");
                req = amos::serve::CompileRequest::fromJson(
                    Json::parse(lines[i]));
            }
            seed = req.seed;
            std::optional<amos::TensorComputation> comp;
            amos::TuneOptions options;
            std::string key;
            amos::WarmStartMode mode = amos::WarmStartMode::Off;
            {
                Scoped s(log, "serve.resolve");
                comp = amos::serve::computationFromRequest(req);
                hw = amos::serve::hardwareFromRequest(req);
                options = amos::serve::tuneOptionsFromRequest(req);
                if (hotset) {
                    // The server runs with --warm-start neighbors.
                    mode = req.warmStart.empty()
                               ? amos::WarmStartMode::Neighbors
                               : *amos::warmStartModeFromName(
                                     req.warmStart);
                    std::ostringstream k;
                    k << amos::TuningCache::keyFor(*comp, hw) << "/g"
                      << req.generations << "_s" << req.seed;
                    if (mode != amos::WarmStartMode::Off)
                        k << "/w" << amos::warmStartModeName(mode);
                    key = k.str();
                }
            }

            amos::serve::ServeOutcome outcome;
            outcome.ok = true;
            std::optional<amos::CacheEntry> entry;
            if (hotset) {
                auto tier = amos::serve::TieredCache::Tier::None;
                int g = log.open("cache.get", "");
                entry = cache->get(key, &tier);
                log.close(g);
                log.rename(g, tier == amos::serve::TieredCache::Tier::
                                          Memory
                                  ? "cache.get_memory"
                              : tier == amos::serve::TieredCache::Tier::
                                            Disk
                                  ? "cache.get_disk"
                                  : "cache.get_miss");
                if (entry) {
                    Scoped s(log, "amos.replay");
                    auto replayed =
                        amos::replayCacheEntry(*entry, *comp, hw);
                    amos::expect(replayed.has_value(),
                                 "stale store entry for ", key);
                    outcome.result = std::move(*replayed);
                    outcome.servedBy =
                        tier == amos::serve::TieredCache::Tier::Memory
                            ? "memory"
                            : "disk";
                }
            }
            if (!entry) {
                options.warmStart.mode = mode;
                if (mode != amos::WarmStartMode::Off)
                    options.warmStart.patience = amos::kWarmStartPatience;
                if (hotset && amos::warmStartUsesNeighbors(mode)) {
                    std::vector<std::pair<std::string, amos::CacheEntry>>
                        snap;
                    {
                        Scoped s(log, "cache.snapshot");
                        snap = cache->snapshotMemory();
                    }
                    Scoped s(log, "warm_start.nearest");
                    std::vector<amos::WarmSeed> donors;
                    donors.reserve(snap.size());
                    for (auto &[donorKey, e] : snap) {
                        amos::WarmSeed seed;
                        seed.sourceKey = donorKey;
                        seed.intrinsicName = e.intrinsicName;
                        seed.mapping = e.mapping;
                        seed.schedule = e.schedule;
                        donors.push_back(std::move(seed));
                    }
                    options.warmStart.seeds = amos::nearestSeeds(
                        amos::shapeFeatureOf(*comp, hw),
                        std::move(donors));
                }
                {
                    Scoped s(log, "mapping.enumerate");
                    plans = enumerateForTarget(*comp, hw, options);
                }
                amos::TuneResult tuned;
                {
                    Scoped s(log, "explore.tune");
                    tuned = amos::tuneWithPlans(plans, hw, options);
                }
                row = telemetryRow(tuned, plans.size());
                {
                    Scoped s(log, "amos.finish");
                    outcome.result = finish(*comp, hw, std::move(tuned));
                }
                outcome.servedBy = "compile";
                if (hotset && outcome.result.tensorized &&
                    outcome.result.tuning.bestPlan) {
                    Scoped s(log, "cache.put");
                    amos::CacheEntry put;
                    put.intrinsicName =
                        outcome.result.tuning.bestPlan->intrinsic().name();
                    put.mapping = outcome.result.tuning.bestPlan->mapping();
                    put.schedule = outcome.result.tuning.bestSchedule;
                    put.cycles = outcome.result.tuning.bestCycles;
                    cache->put(key, put);
                }
            }
            std::string text;
            {
                Scoped s(log, "serve.serialize");
                text = outcome.toJson(req.id).dump();
            }
            row.set("idx", Json(static_cast<std::int64_t>(i)));
            row.set("id", Json(req.id));
            row.set("signature", Json(outcome.result.mappingSignature));
            row.set("cycles", Json(outcome.result.cycles));
            row.set("served_by", Json(outcome.servedBy));
            row.set("bytes", Json(static_cast<std::int64_t>(text.size())));
        }
        if (!hotset && !plans.empty())
            probeCalls(log, rid, plans, hw, seed, pairs);
        requests.push(std::move(row));
    }

    Json out = Json::object();
    out.set("spans", log.toJson());
    out.set("requests", std::move(requests));
    out.set("warmed", Json(static_cast<std::int64_t>(warmed)));
    std::cout << out.dump() << std::endl;
    return 0;
}

} // namespace pbench
