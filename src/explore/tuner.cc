#include "tuner.hh"

#include "explore/learned_model.hh"
#include "schedule/profile.hh"
#include "support/thread_pool.hh"
#include "support/trace.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "support/logging.hh"

namespace amos {

namespace {

/** One member of the genetic population. */
struct Candidate
{
    std::size_t mappingIndex = 0;
    Schedule schedule;
    double modelCycles = std::numeric_limits<double>::infinity();
    double simCycles = std::numeric_limits<double>::quiet_NaN();
    /// modelCycles holds this genome's screen. Survivors keep it
    /// across generations; every child starts unscreened.
    bool screened = false;

    bool measured() const { return !std::isnan(simCycles); }

    /** Genome identity: same mapping and same schedule. */
    bool
    sameGenome(const Candidate &other) const
    {
        return mappingIndex == other.mappingIndex &&
               schedule == other.schedule;
    }

    /** Fitness key: measured cycles when known, model otherwise. */
    double
    fitness() const
    {
        return measured() ? simCycles : modelCycles;
    }
};

/**
 * Per-candidate RNG stream. Every random draw of the tuner depends
 * only on (seed, candidate index, generation) — never on a shared
 * generator whose state would depend on evaluation order — so the
 * search trajectory is bit-identical for every thread count.
 */
Rng
candidateRng(const TuneOptions &options, std::size_t index,
             int generation)
{
    return Rng(mixSeed(options.seed, index,
                       static_cast<std::uint64_t>(generation)));
}

/**
 * Indices 0..n-1 ordered by ascending key, ties broken by index:
 * a total order, so the ranking is unambiguous regardless of the
 * sort algorithm or how the keys were produced.
 */
template <typename Key>
std::vector<std::size_t>
sortedOrder(std::size_t n, Key key)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  double ka = key(a), kb = key(b);
                  if (ka != kb)
                      return ka < kb;
                  return a < b;
              });
    return order;
}

/**
 * What a search spent, including its exploit sub-searches: profiles
 * lowered, model screens run, screens skipped because the survivor's
 * screen could not change. Reported as explore.tune span args.
 */
struct SearchCounts
{
    std::int64_t lowered = 0;
    std::int64_t screened = 0;
    std::int64_t screenSkipped = 0;

    SearchCounts &
    operator+=(const SearchCounts &other)
    {
        lowered += other.lowered;
        screened += other.screened;
        screenSkipped += other.screenSkipped;
        return *this;
    }
};

/** tuneWithPlans, reporting what the search spent into `counts`. */
TuneResult
searchPlans(const std::vector<MappingPlan> &plans, const HardwareSpec &hw,
            const TuneOptions &options, SearchCounts &counts)
{
    TuneResult result;
    if (plans.empty())
        return result;
    result.tensorizable = true;
    result.numMappings = plans.size();

    TraceSpan tune_span("explore.tune", "explore");
    tune_span.arg("mappings",
                  static_cast<std::int64_t>(plans.size()));
    tune_span.arg("generations",
                  static_cast<std::int64_t>(options.generations));
    tune_span.arg("hw", hw.name);

    const int num_threads = options.numThreads;

    // Warm start (neighbor seeding): translate donor genomes onto
    // this plan pool. Translation is serial and depends only on
    // (seeds, plans), never on thread count; duplicates collapse so
    // a seed never crowds out more than one random slot.
    std::vector<Candidate> warm_genomes;
    if (warmStartUsesNeighbors(options.warmStart.mode)) {
        result.warmStartNeighbors =
            static_cast<int>(options.warmStart.seeds.size());
        for (const auto &seed : options.warmStart.seeds) {
            auto slot = translateSeed(seed, plans);
            if (!slot)
                continue;
            Candidate c;
            c.mappingIndex = slot->first;
            c.schedule = std::move(slot->second);
            if (std::any_of(warm_genomes.begin(), warm_genomes.end(),
                            [&c](const Candidate &w) {
                                return w.sameGenome(c);
                            }))
                continue;
            warm_genomes.push_back(std::move(c));
            if (warm_genomes.size() >=
                static_cast<std::size_t>(std::max(0, options.population)))
                break;
        }
        result.warmStartSeeded =
            static_cast<int>(warm_genomes.size());
    }

    // --- Stage 0 (the paper's Sec. 5.3 flow): enumerate every
    // mapping, pair each with the expert schedule heuristic, and let
    // the performance model screen the whole pool; random samples
    // add schedule diversity. Warm seeds occupy the fixed slots just
    // after the expert-scheduled plans — slot assignment is by index,
    // so the pool is identical at every thread count. The best-
    // predicted candidates are measured and the population is trimmed
    // by fitness.
    std::size_t pool_size =
        plans.size() +
        static_cast<std::size_t>(std::max(0, options.population));
    std::vector<Candidate> population(pool_size);
    parallelFor(
        pool_size,
        [&](std::size_t i) {
            Candidate &c = population[i];
            if (i < plans.size()) {
                c.mappingIndex = i;
                c.schedule = expertSchedule(plans[i], hw);
            } else if (i < plans.size() + warm_genomes.size()) {
                c = warm_genomes[i - plans.size()];
            } else {
                Rng rng = candidateRng(options, i, 0);
                c.mappingIndex = static_cast<std::size_t>(
                    rng.uniformInt(
                        0,
                        static_cast<std::int64_t>(plans.size()) - 1));
                c.schedule = sampleSchedule(plans[c.mappingIndex],
                                            rng);
            }
        },
        num_threads);

    double best_cycles = std::numeric_limits<double>::infinity();
    Candidate best;
    SimResult best_sim;
    int step = 0;

    LearnedModel learned;

    // Warm start (model snapshot): a pre-trained screen replaces the
    // analytic fallback from generation 0. The snapshot is copied
    // once here and stays fixed for the whole run — only the online
    // path (useLearnedModel) ever refits, so a given (seed, snapshot)
    // pair always walks the same trajectory.
    const bool warm_model =
        warmStartUsesModel(options.warmStart.mode) &&
        options.warmStart.model && options.warmStart.model->trained();
    if (warm_model)
        learned = *options.warmStart.model;
    const bool screen_learned = options.useLearnedModel || warm_model;

    // Model screening of the population. lowerKernel and both cost
    // models are pure functions of (plan, schedule, hw, model state),
    // and each body writes only its own candidate, so the fan-out is
    // race-free and order-independent. A survivor's screen can change
    // only when the online learned model refits between generations;
    // under the analytic model or a fixed snapshot it is kept.
    auto evaluate_population = [&]() {
        TraceSpan eval_span("explore.model_eval", "explore");
        std::vector<std::size_t> todo;
        todo.reserve(population.size());
        for (std::size_t i = 0; i < population.size(); ++i)
            if (options.useLearnedModel || !population[i].screened)
                todo.push_back(i);
        eval_span.arg("candidates",
                      static_cast<std::int64_t>(todo.size()));
        // Counted here, in serial code, so the counts are identical
        // at every thread count.
        counts.screened += static_cast<std::int64_t>(todo.size());
        counts.lowered += static_cast<std::int64_t>(todo.size());
        counts.screenSkipped +=
            static_cast<std::int64_t>(population.size() - todo.size());
        parallelFor(
            todo.size(),
            [&](std::size_t t) {
                Candidate &c = population[todo[t]];
                auto prof =
                    lowerKernel(plans[c.mappingIndex], c.schedule, hw);
                c.modelCycles =
                    screen_learned && learned.trained()
                        ? learned.predictCycles(prof, hw)
                        : modelCycles(prof, hw);
                c.screened = true;
            },
            num_threads);
    };

    /// Best measured candidate per mapping: drives the exploitation
    /// ranking and the runners-up reported for explainability.
    std::unordered_map<std::size_t, Candidate> mapping_best;

    // Measure a batch: simulate every selected candidate in parallel,
    // then fold the outcomes into the archive serially in selection
    // order, so the trace, the incumbent, and the learned-model
    // sample set are identical to a one-at-a-time run.
    auto measure_batch = [&](const std::vector<std::size_t>
                                 &selected) {
        if (options.cancel)
            options.cancel->checkpoint("mapping exploration");
        TraceSpan measure_span("explore.measure", "explore");
        measure_span.arg("batch", static_cast<std::int64_t>(
                                      selected.size()));
        counts.lowered += static_cast<std::int64_t>(selected.size());
        std::vector<KernelProfile> profs(selected.size());
        std::vector<SimResult> sims(selected.size());
        parallelFor(
            selected.size(),
            [&](std::size_t k) {
                const Candidate &c = population[selected[k]];
                profs[k] =
                    lowerKernel(plans[c.mappingIndex], c.schedule, hw);
                sims[k] = simulateKernel(profs[k], hw);
            },
            num_threads);
        for (std::size_t k = 0; k < selected.size(); ++k) {
            Candidate &c = population[selected[k]];
            const SimResult &sim = sims[k];
            c.simCycles = sim.cycles;
            ++result.measurements;
            if (options.useLearnedModel && sim.schedulable)
                learned.addSample(profs[k], hw, sim.cycles);
            if (options.sampleSink && sim.schedulable)
                options.sampleSink->addSample(profs[k], hw,
                                              sim.cycles);
            if (sim.schedulable) {
                auto it = mapping_best.find(c.mappingIndex);
                if (it == mapping_best.end() ||
                    sim.cycles < it->second.simCycles)
                    mapping_best[c.mappingIndex] = c;
            }
            // Strict < keeps the earliest candidate on ties: the
            // winner is reduced by (cycles, selection order).
            if (sim.schedulable && sim.cycles < best_cycles) {
                best_cycles = sim.cycles;
                best = c;
                best_sim = sim;
            }
            if (std::isfinite(c.modelCycles) &&
                std::isfinite(sim.cycles)) {
                result.trace.push_back({++step, c.mappingIndex,
                                        c.modelCycles, sim.cycles,
                                        best_cycles});
            }
        }
    };

    // Early-stop bookkeeping for warm-start patience: the incumbent
    // at the last improving generation and the stall count since.
    double patience_best = std::numeric_limits<double>::infinity();
    int patience_stall = 0;

    // The oversized stage-0 pool shrinks through selection until the
    // working population size is reached.
    for (int gen = 0; gen < options.generations; ++gen) {
        if (options.cancel)
            options.cancel->checkpoint("mapping exploration");
        TraceSpan gen_span("explore.generation", "explore");
        gen_span.arg("gen", static_cast<std::int64_t>(gen));
        evaluate_population();

        // Model screening: measure the best-predicted unmeasured
        // candidates on the simulator.
        auto order = sortedOrder(population.size(), [&](std::size_t i) {
            return population[i].modelCycles;
        });
        // The screening generation measures every mapping once (the
        // paper enumerates all valid mappings and evaluates each):
        // AMOS's total budget scales with the pool size, while the
        // fixed-mapping ablations get the same *per-mapping* depth.
        // Warm seeding replaces that full-pool sweep with the seeded
        // genomes — the donor already told us which mappings win, so
        // the big generation-0 measurement bill is the latency cut.
        int budget =
            gen == 0 ? static_cast<int>(warm_genomes.empty()
                                            ? plans.size()
                                            : warm_genomes.size()) +
                           options.measureTopK
                     : options.measureTopK;
        std::vector<std::size_t> selected;
        if (gen == 0) {
            // Warm seeds are always measured first, in seed order:
            // their real cycles must enter the archive even when the
            // model screen ranks them poorly on the new shape.
            for (std::size_t j = 0; j < warm_genomes.size(); ++j)
                selected.push_back(plans.size() + j);
        }
        for (auto idx : order) {
            if (static_cast<int>(selected.size()) >= budget)
                break;
            if (population[idx].measured())
                continue;
            if (gen == 0 && idx >= plans.size() &&
                idx < plans.size() + warm_genomes.size())
                continue; // already force-selected above
            selected.push_back(idx);
        }
        // Archive hits: candidates that carried an earlier
        // measurement into this generation, so screening them again
        // cost nothing (the tuner's measurement cache at work).
        int reused = static_cast<int>(std::count_if(
            population.begin(), population.end(),
            [](const Candidate &c) { return c.measured(); }));
        measure_batch(selected);

        if (options.useLearnedModel)
            learned.fit();

        // Telemetry row for this generation. Everything here is
        // derived from the ordered serial state, so the rows are
        // bit-identical for every thread count.
        {
            GenerationTelemetry row;
            row.generation = gen;
            row.populationSize =
                static_cast<int>(population.size());
            // Distinct mappings and genomes: sort by (mapping,
            // schedule) and count the runs.
            std::vector<const Candidate *> genomes;
            genomes.reserve(population.size());
            double pred_best =
                std::numeric_limits<double>::infinity();
            double pred_sum = 0.0;
            std::size_t pred_n = 0;
            for (const auto &c : population) {
                genomes.push_back(&c);
                if (std::isfinite(c.modelCycles)) {
                    pred_best = std::min(pred_best, c.modelCycles);
                    pred_sum += c.modelCycles;
                    ++pred_n;
                }
            }
            std::sort(genomes.begin(), genomes.end(),
                      [](const Candidate *a, const Candidate *b) {
                          if (a->mappingIndex != b->mappingIndex)
                              return a->mappingIndex < b->mappingIndex;
                          return a->schedule < b->schedule;
                      });
            for (std::size_t g = 0; g < genomes.size(); ++g) {
                if (g == 0 || genomes[g]->mappingIndex !=
                                  genomes[g - 1]->mappingIndex)
                    ++row.distinctMappings;
                if (g == 0 || !genomes[g]->sameGenome(*genomes[g - 1]))
                    ++row.distinctGenomes;
            }
            row.measuredNew = static_cast<int>(selected.size());
            row.measuredReused = reused;
            row.bestPredictedCycles =
                std::isfinite(pred_best) ? pred_best : 0.0;
            row.meanPredictedCycles =
                pred_n ? pred_sum / static_cast<double>(pred_n)
                       : 0.0;
            row.bestMeasuredCycles =
                std::isfinite(best_cycles) ? best_cycles : 0.0;
            double meas_sum = 0.0;
            std::size_t meas_n = 0;
            for (auto idx : selected) {
                double cycles = population[idx].simCycles;
                if (std::isfinite(cycles)) {
                    meas_sum += cycles;
                    ++meas_n;
                }
            }
            row.meanMeasuredCycles =
                meas_n ? meas_sum / static_cast<double>(meas_n)
                       : 0.0;
            result.telemetry.push_back(std::move(row));
        }

        // Warm-start patience: stop once the incumbent has not
        // improved for `patience` consecutive generations. Driven
        // entirely by the ordered serial incumbent, so the stopping
        // generation is thread-count invariant.
        if (options.warmStart.patience > 0) {
            if (best_cycles < patience_best) {
                patience_best = best_cycles;
                patience_stall = 0;
            } else if (++patience_stall >=
                       options.warmStart.patience) {
                break;
            }
        }

        // Selection: keep the better half by (fitness, index).
        auto rank = sortedOrder(population.size(), [&](std::size_t i) {
            return population[i].fitness();
        });
        std::size_t survivors = std::min(
            population.size(),
            std::max<std::size_t>(2, population.size() / 2));
        std::vector<Candidate> kept;
        kept.reserve(survivors);
        for (std::size_t r = 0; r < survivors; ++r)
            kept.push_back(std::move(population[rank[r]]));
        population = std::move(kept);

        // Reproduction: crossover within a mapping, mutation, the
        // occasional mapping hop, and fresh immigrants. Each child
        // draws from its own (seed, slot, generation) stream and
        // reads only the const parent pool, so children can be
        // produced concurrently. A child is a fresh Candidate that
        // takes only a genome from its parents: it starts unscreened
        // and unmeasured.
        std::size_t target = std::max(
            population.size(),
            static_cast<std::size_t>(std::max(0, options.population)));
        std::vector<Candidate> next(target);
        std::copy(population.begin(), population.end(), next.begin());
        parallelFor(
            target - population.size(),
            [&](std::size_t offset) {
                std::size_t slot = population.size() + offset;
                Rng rng = candidateRng(options, slot, gen + 1);
                Candidate &child = next[slot];
                double roll = rng.uniformReal();
                if (roll < 0.4 && population.size() >= 2) {
                    // Crossover between two parents; schedules are
                    // only compatible within the same mapping.
                    const Candidate &a = rng.choice(population);
                    const Candidate &b = rng.choice(population);
                    child.mappingIndex = a.mappingIndex;
                    if (a.mappingIndex == b.mappingIndex) {
                        child.schedule = crossoverSchedules(
                            a.schedule, b.schedule, rng);
                    } else {
                        child.schedule = mutateSchedule(
                            plans[child.mappingIndex], a.schedule, rng);
                    }
                } else if (roll < 0.8) {
                    const Candidate &parent = rng.choice(population);
                    child.mappingIndex = parent.mappingIndex;
                    child.schedule = mutateSchedule(
                        plans[child.mappingIndex], parent.schedule, rng);
                } else {
                    // Immigrant: possibly a different mapping.
                    child.mappingIndex = static_cast<std::size_t>(
                        rng.uniformInt(
                            0, static_cast<std::int64_t>(
                                   plans.size()) - 1));
                    child.schedule = sampleSchedule(
                        plans[child.mappingIndex], rng);
                }
            },
            num_threads);
        population = std::move(next);
    }

    if (!std::isfinite(best_cycles)) {
        // Nothing schedulable was measured (e.g. every sampled
        // schedule blew the shared-memory budget): fall back to the
        // serial default schedule of the first mapping.
        Candidate c;
        c.mappingIndex = 0;
        c.schedule = defaultSchedule(plans[0]);
        auto prof = lowerKernel(plans[0], c.schedule, hw);
        ++counts.lowered;
        ++counts.screened;
        c.modelCycles = screen_learned && learned.trained()
                            ? learned.predictCycles(prof, hw)
                            : modelCycles(prof, hw);
        c.screened = true;
        population.push_back(std::move(c));
        measure_batch({population.size() - 1});
    }

    // --- Exploitation: rerun the full schedule search restricted to
    // the most promising mappings, so the flexible search never
    // trails a dedicated single-mapping tuner. (The paper's AMOS
    // similarly spends its trial budget proportionally to the size
    // of the space it explores.)
    if (options.exploitSteps > 0 && std::isfinite(best_cycles) &&
        plans.size() > 1) {
        TraceSpan exploit_span("explore.exploit", "explore");
        // Top three distinct mappings by their best measured cycles;
        // sorting (cycles, index) pairs makes the ranking total.
        std::vector<std::pair<double, std::size_t>> ranked;
        for (const auto &[idx, cand] : mapping_best)
            ranked.push_back({cand.simCycles, idx});
        std::sort(ranked.begin(), ranked.end());
        if (ranked.size() > 3)
            ranked.resize(3);

        TuneOptions sub = options;
        sub.exploitSteps = 0; // recursion base case
        // Seeds were translated for the *full* pool; inside the
        // single-plan sub-searches they would re-translate onto the
        // wrong indices. The model snapshot transfers unchanged.
        sub.warmStart.seeds.clear();
        for (const auto &[cycles, idx] : ranked) {
            if (options.cancel)
                options.cancel->checkpoint("mapping exploitation");
            std::vector<MappingPlan> one = {plans[idx]};
            SearchCounts sub_counts;
            auto subres = searchPlans(one, hw, sub, sub_counts);
            result.measurements += subres.measurements;
            counts += sub_counts;
            for (auto sub_step : subres.trace) {
                sub_step.mappingIndex = idx;
                sub_step.step = ++step;
                sub_step.bestSoFarCycles = std::min(
                    sub_step.bestSoFarCycles, best_cycles);
                result.trace.push_back(sub_step);
            }
            for (auto row : subres.telemetry) {
                row.phase = "exploit";
                result.telemetry.push_back(std::move(row));
            }
            if (subres.tensorizable) {
                // The exploit sub-search may have improved this
                // mapping's archive entry; the runners-up report
                // should reflect it.
                auto &cand = mapping_best[idx];
                if (subres.bestCycles < cand.simCycles) {
                    cand.mappingIndex = idx;
                    cand.schedule = subres.bestSchedule;
                    cand.simCycles = subres.bestCycles;
                    cand.modelCycles = subres.bestModelCycles;
                }
            }
            if (subres.tensorizable &&
                subres.bestCycles < best_cycles) {
                best_cycles = subres.bestCycles;
                best.mappingIndex = idx;
                best.schedule = subres.bestSchedule;
                best.modelCycles = subres.bestModelCycles;
                best_sim = subres.bestSim;
            }
        }
    }

    require(std::isfinite(best_cycles),
            "tune: no schedulable candidate found for ",
            plans[0].computation().name(), " on ", hw.name);

    // Runners-up: the best measured candidate of each non-winning
    // mapping, ranked by (cycles, index) so the list is total-ordered
    // and thread-count invariant.
    {
        std::vector<std::pair<double, std::size_t>> ranked;
        for (const auto &[idx, cand] : mapping_best)
            if (idx != best.mappingIndex)
                ranked.push_back({cand.simCycles, idx});
        std::sort(ranked.begin(), ranked.end());
        if (ranked.size() > 3)
            ranked.resize(3);
        for (const auto &[cycles, idx] : ranked) {
            const Candidate &cand = mapping_best.at(idx);
            RunnerUp up;
            up.mappingIndex = idx;
            up.plan = plans[idx];
            up.schedule = cand.schedule;
            up.measuredCycles = cand.simCycles;
            up.modelCycles = cand.modelCycles;
            result.runnersUp.push_back(std::move(up));
        }
    }

    result.bestMappingIndex = best.mappingIndex;
    result.bestSchedule = best.schedule;
    result.bestCycles = best_cycles;
    result.bestModelCycles = best.modelCycles;
    result.bestSim = best_sim;
    result.bestPlan = plans[best.mappingIndex];
    result.mappingSignature = plans[best.mappingIndex]
                                  .mapping()
                                  .signature(plans[best.mappingIndex]
                                                 .computation());
    result.computeMapping =
        plans[best.mappingIndex].computeMappingString();
    result.intrinsicName = plans[best.mappingIndex].intrinsic().name();
    tune_span.arg("lowered", counts.lowered);
    tune_span.arg("screened", counts.screened);
    tune_span.arg("screen_skipped", counts.screenSkipped);
    tune_span.arg("measured",
                  static_cast<std::int64_t>(result.measurements));
    return result;
}

} // namespace

TuneResult
tuneWithPlans(const std::vector<MappingPlan> &plans,
              const HardwareSpec &hw, const TuneOptions &options)
{
    SearchCounts counts;
    return searchPlans(plans, hw, options, counts);
}

TuneResult
tune(const TensorComputation &comp, const HardwareSpec &hw,
     const TuneOptions &options)
{
    // The mapping pool spans every intrinsic the accelerator exposes
    // (e.g. the three WMMA problem shapes): intrinsic selection is
    // explored jointly with iteration mapping and scheduling.
    std::vector<MappingPlan> plans;
    for (const auto &intr : hw.intrinsics) {
        if (comp.inputs().size() != intr.compute.numSrcs() ||
            comp.combine() != intr.compute.combine())
            continue;
        std::size_t budget = 0;
        if (options.maxMappings) {
            if (plans.size() >= options.maxMappings)
                break;
            budget = options.maxMappings - plans.size();
        }
        GeneratorOptions gen = options.mappingOptions;
        if (budget)
            gen.maxCandidates = budget;
        for (auto &plan : enumeratePlans(comp, intr, gen))
            plans.push_back(std::move(plan));
    }
    return tuneWithPlans(plans, hw, options);
}

TuneResult
tuneWithMapping(const MappingPlan &plan, const HardwareSpec &hw,
                const TuneOptions &options)
{
    std::vector<MappingPlan> plans = {plan};
    return tuneWithPlans(plans, hw, options);
}

} // namespace amos
