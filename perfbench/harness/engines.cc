/**
 * @file
 * engines: execution-engine throughput on five fixed kernels, each
 * with one fixed plan (the first enumerated plan on a dtype-legal
 * intrinsic, never a tuned one), through the reference, mapped-direct
 * and mapped-packed executors on four engine settings.
 *
 *   --setup-only        time set-up (plan build + JIT compile into
 *                       $AMOS_JIT_CACHE_DIR) and stop
 *   --budget-s S        measure in rounds over every row until S
 *                       seconds are spent (at least five rounds, so
 *                       that p99 has 1000 samples)
 *   --probe-dir DIR     also time ExecPlan construction, C emission,
 *                       and a cold then warm JIT compile through
 *                       private engines over DIR (traced run)
 *
 * Prints {"setup_s":..,"round_s":[..],"rows":[{"kernel","executor",
 * "engine","elements","rounds":[[s,..],..],"calib":[[before,after],..],
 * "tier","tier_ok","bit_identical"}],"cycles":{..},"max_rss_kb":..,
 * "spans":[..]}; "calib" holds the calibration loop's time (calib.cc)
 * just before and after the row in each round.
 * Every row is checked bit-identical against the interpreter run of
 * the same executor, and the tier that actually ran must be the one
 * requested.
 */

#include <sys/resource.h>

#include <iostream>

#include "codegen/exec_c.hh"
#include "harness.hh"
#include "hw/hardware.hh"
#include "isa/intrinsics.hh"
#include "jit/jit.hh"
#include "mapping/exec_plan.hh"
#include "mapping/execute.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "schedule/profile.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "tensor/reference.hh"

namespace pbench {

namespace {

struct Kernel
{
    std::string name;
    amos::TensorComputation comp;
    amos::Intrinsic intr;
    /// Target whose simulator prices the kernel (kernel_cycles).
    std::string hw;
};

std::vector<Kernel>
fixedKernels()
{
    using namespace amos;
    ops::ConvParams conv{1, 8, 16, 14, 14, 3, 3, 1, 1, DataType::F16};
    return {
        {"gemm", ops::makeGemm(64, 64, 64), isa::wmmaTiny(), "v100"},
        {"conv2d", ops::makeConv2d(conv), isa::wmmaTiny(), "v100"},
        {"gemv", ops::makeGemv(256, 256), isa::wmmaTiny(), "v100"},
        {"gemm_i8", ops::makeQuantizedGemm(64, 64, 64),
         isa::avx512Vnni(), "xeon"},
        {"conv2d_i8", ops::makeQuantizedConv2d(conv), isa::maliDot(),
         "mali"},
    };
}

struct Engine
{
    const char *name;
    amos::ExecEngine engine;
    int threads;
    const char *tier; ///< ExecReport::engine expected
    int reps;         ///< executions per row and round
};

const Engine kEngines[] = {
    {"interp", amos::ExecEngine::Interpreter, 1, "interpreter", 1},
    {"walk", amos::ExecEngine::Walk, 1, "walk", 3},
    {"walk_2t", amos::ExecEngine::Walk, 2, "walk", 3},
    {"jit", amos::ExecEngine::Jit, 1, "jit", 8},
};

const char *const kExecutors[] = {"reference", "direct", "packed"};

amos::ExecReport
execute(const std::string &executor, const amos::TensorComputation &comp,
        const amos::MappingPlan &plan,
        const std::vector<const amos::Buffer *> &inputs,
        amos::Buffer &out, const amos::ExecOptions &opts)
{
    if (executor == "reference")
        return amos::referenceExecute(comp, inputs, out, opts);
    if (executor == "direct")
        return amos::executeMappedDirect(plan, inputs, out, opts);
    return amos::executeMappedPacked(plan, inputs, out, opts);
}

amos::ExecOptions
optionsFor(const Engine &e)
{
    amos::ExecOptions opts;
    opts.engine = e.engine;
    opts.numThreads = e.threads;
    return opts;
}

/** Generated C source of one executor's JIT kernel. */
std::string
kernelSource(const std::string &executor, const Kernel &k,
             const amos::MappingPlan &plan)
{
    if (executor == "reference") {
        std::vector<amos::DataType> dtypes;
        for (const auto &in : k.comp.inputs())
            dtypes.push_back(in.decl.dtype());
        dtypes.push_back(k.comp.output().dtype());
        auto walk = amos::compileReferenceWalk(k.comp);
        amos::expect(walk.has_value(), "no reference walk for ", k.name);
        return amos::generateWalkKernelC(
            *walk, k.comp.combine(), k.comp.inputs().size(),
            "reference nest of " + k.comp.name(), dtypes);
    }
    amos::ExecPlan ep(plan);
    amos::expect(ep.compiled(), "plan of ", k.name,
                 " does not compile: ", ep.fallbackReason());
    if (executor == "direct")
        return amos::generateDirectKernelC(
            ep, "direct mapped nest of " + plan.computation().name());
    return amos::generatePackedKernelC(
        ep, "packed mapped nest of " + plan.computation().name());
}

/** Simulated cycles of the kernel on its target's own intrinsic. */
double
simulatedCycles(const Kernel &k)
{
    auto hw = amos::hw::byName(k.hw);
    auto plans = amos::enumeratePlans(k.comp, hw.primaryIntrinsic(), {});
    amos::expect(!plans.empty(), "no plan for ", k.name, " on ", k.hw);
    auto sched = amos::expertSchedule(plans[0], hw);
    auto prof = amos::lowerKernel(plans[0], sched, hw);
    return amos::simulateKernel(prof, hw).cycles;
}

} // namespace

int
runEngines(const Args &args)
{
    amos::jit::ensureLinked();
    const bool setupOnly = args.has("setup-only");
    const auto kernels = fixedKernels();

    // Set-up: plan build plus the one-off JIT compile of every
    // executor's kernel into the (fresh) JIT cache directory, between
    // two sets of calibration loops.
    amos::Json setupCalib = amos::Json::array();
    auto calibrateSetup = [&] {
        for (int i = 0; i < 5; ++i)
            setupCalib.push(amos::Json(calibrationSeconds()));
    };
    calibrateSetup();
    auto t0 = Clock::now();
    std::vector<amos::MappingPlan> plans;
    std::vector<std::vector<amos::Buffer>> inputs;
    for (const auto &k : kernels) {
        auto enumerated = amos::enumeratePlans(k.comp, k.intr, {});
        amos::expect(!enumerated.empty(), "no plan for ", k.name);
        plans.push_back(enumerated[0]);
        inputs.push_back(amos::makePatternInputs(k.comp, 2022));
    }
    auto ptrsOf = [&](std::size_t ki) {
        std::vector<const amos::Buffer *> ptrs;
        for (const auto &b : inputs[ki])
            ptrs.push_back(&b);
        return ptrs;
    };
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        amos::ExecPlan ep(plans[ki]);
        for (const char *executor : kExecutors) {
            amos::Buffer out(kernels[ki].comp.output());
            out.fill(0.0f);
            execute(executor, kernels[ki].comp, plans[ki], ptrsOf(ki),
                    out, optionsFor(kEngines[3]));
        }
    }
    const double setup = secondsBetween(t0, Clock::now());
    calibrateSetup();

    amos::Json result = amos::Json::object();
    result.set("setup_s", amos::Json(setup));
    result.set("setup_calib", std::move(setupCalib));
    if (setupOnly) {
        std::cout << result.dump() << std::endl;
        return 0;
    }

    // Rows run in interleaved rounds until the budget is spent, so a
    // slow spell of the machine hits every row alike instead of the
    // few rows that happened to run during it.
    struct Row
    {
        std::size_t kernel;
        const char *executor;
        const Engine *engine;
        amos::Buffer reference;
        amos::Json rounds = amos::Json::array();
        /// Calibration loop time before and after the row, per round.
        amos::Json calib = amos::Json::array();
        std::string tier = "interpreter";
        bool tierOk = true;
        bool identical = true;
    };
    std::vector<Row> table;
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        for (const char *executor : kExecutors) {
            amos::Buffer reference(kernels[ki].comp.output());
            reference.fill(0.0f);
            execute(executor, kernels[ki].comp, plans[ki], ptrsOf(ki),
                    reference, optionsFor(kEngines[0]));
            for (const auto &e : kEngines)
                table.push_back({ki, executor, &e, reference});
        }
    }
    const double budget = args.num("budget-s", 10.0);
    const int minRounds = 5;
    amos::Json roundSeconds = amos::Json::array();
    const auto measureStart = Clock::now();
    for (int round = 0;
         round < minRounds ||
         secondsBetween(measureStart, Clock::now()) < budget;
         ++round) {
        const auto roundStart = Clock::now();
        // One calibration loop between two rows serves as the "after"
        // of the one and the "before" of the other.
        double calibBefore = calibrationSeconds();
        for (auto &row : table) {
            const Kernel &k = kernels[row.kernel];
            const auto ptrs = ptrsOf(row.kernel);
            const auto opts = optionsFor(*row.engine);
            amos::Buffer out(k.comp.output());
            amos::Json times = amos::Json::array();
            amos::Json calib = amos::Json::array();
            calib.push(amos::Json(calibBefore));
            for (int r = 0; r < row.engine->reps; ++r) {
                out.fill(0.0f);
                auto s = Clock::now();
                auto report = execute(row.executor, k.comp,
                                      plans[row.kernel], ptrs, out, opts);
                times.push(amos::Json(secondsBetween(s, Clock::now())));
                row.tier = report.engine;
                row.tierOk = row.tierOk && report.engine == row.engine->tier;
                row.identical = row.identical && out.bitEqual(row.reference);
            }
            calibBefore = calibrationSeconds();
            calib.push(amos::Json(calibBefore));
            row.rounds.push(std::move(times));
            row.calib.push(std::move(calib));
        }
        roundSeconds.push(amos::Json(secondsBetween(roundStart, Clock::now())));
    }
    amos::Json rows = amos::Json::array();
    for (auto &row : table) {
        const Kernel &k = kernels[row.kernel];
        amos::Json out = amos::Json::object();
        out.set("kernel", amos::Json(k.name));
        out.set("executor", amos::Json(row.executor));
        out.set("engine", amos::Json(row.engine->name));
        out.set("elements",
                amos::Json(static_cast<double>(k.comp.totalIterations())));
        out.set("rounds", std::move(row.rounds));
        out.set("calib", std::move(row.calib));
        out.set("tier", amos::Json(row.tier));
        out.set("tier_ok", amos::Json(row.tierOk));
        out.set("bit_identical", amos::Json(row.identical));
        rows.push(std::move(out));
    }
    result.set("round_s", std::move(roundSeconds));
    result.set("rows", std::move(rows));

    amos::Json cycles = amos::Json::object();
    for (const auto &k : kernels)
        cycles.set(k.name, amos::Json(simulatedCycles(k)));
    result.set("cycles", std::move(cycles));

    if (args.has("probe-dir")) {
        // Per-layer probes: ExecPlan construction, C emission, and a
        // cold then warm JIT compile through private engines.
        SpanLog spans;
        amos::JitOptions jopt = amos::JitOptions::fromEnv();
        jopt.cacheDir = args.str("probe-dir");
        for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
            for (int r = 0; r < 5; ++r) {
                Scoped span(spans, "exec_plan.build", kernels[ki].name);
                amos::ExecPlan ep(plans[ki]);
            }
            for (const char *executor : kExecutors) {
                const std::string id =
                    kernels[ki].name + "." + executor;
                std::string source;
                {
                    Scoped span(spans, "codegen.emit", id);
                    source = kernelSource(executor, kernels[ki],
                                          plans[ki]);
                }
                std::string why;
                {
                    amos::JitEngine cold(jopt);
                    Scoped span(spans, "jit.compile", id);
                    amos::expect(cold.getOrCompile(source, &why) !=
                                     nullptr,
                                 "jit compile failed: ", why);
                }
                {
                    amos::JitEngine warm(jopt);
                    Scoped span(spans, "jit.load", id);
                    amos::expect(warm.getOrCompile(source, &why) !=
                                     nullptr,
                                 "jit load failed: ", why);
                }
            }
        }
        result.set("spans", spans.toJson());
    }

    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    result.set("max_rss_kb",
               amos::Json(static_cast<std::int64_t>(ru.ru_maxrss)));
    std::cout << result.dump() << std::endl;
    return 0;
}

} // namespace pbench
