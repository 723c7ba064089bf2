#include "amos.hh"

#include "support/str_utils.hh"

namespace amos {

std::string
CompileResult::report() const
{
    std::string out;
    out += tensorized ? "tensorized\n" : "scalar fallback\n";
    out += "  latency: " + fmtDouble(milliseconds, 4) + " ms (" +
           fmtDouble(cycles, 0) + " cycles, " +
           fmtDouble(gflops, 1) + " GFLOPS)\n";
    out += "  mappings explored: " +
           std::to_string(mappingsExplored) + ", measurements: " +
           std::to_string(measurements) + "\n";
    if (tensorized) {
        out += "  mapping: " + mappingSignature + "\n";
        out += "  compute: " + computeMapping + "\n";
    }
    return out;
}

CompileResult
Compiler::compile(const TensorComputation &comp) const
{
    CompileResult result;
    auto tuned = tune(comp, _hw, _options);
    result.tuning = tuned;

    if (!tuned.tensorizable) {
        auto res =
            baselines::scalarExecution(comp, _hw, 0.6, "amos-scalar");
        result.cycles = res.cycles;
        result.milliseconds = res.milliseconds;
        result.gflops =
            static_cast<double>(comp.flopCount()) /
            (result.milliseconds * 1e6);
        return result;
    }

    result.tensorized = true;
    result.cycles = tuned.bestCycles;

    // A valid mapping is not always a profitable one: degenerate
    // intrinsic dimensions (e.g. T2D at batch 1, where only the
    // batch iterator may feed i1) waste most of the problem size.
    // Like any complete compiler, AMOS ships the faster of its
    // tensorized and scalar code for the same operator.
    auto scalar =
        baselines::scalarExecution(comp, _hw, 0.6, "amos-scalar");
    if (scalar.cycles < result.cycles) {
        result.cycles = scalar.cycles;
        result.usedScalarCode = true;
    }

    result.milliseconds = cyclesToMs(result.cycles, _hw);
    result.gflops = static_cast<double>(comp.flopCount()) /
                    (result.milliseconds * 1e6);
    result.mappingsExplored = tuned.numMappings;
    result.measurements = tuned.measurements;
    result.mappingSignature = tuned.mappingSignature;
    result.computeMapping = tuned.computeMapping;
    if (tuned.bestPlan) {
        result.memoryMapping = tuned.bestPlan->memoryMappingString();
        result.pseudoCode = renderPseudoCode(
            *tuned.bestPlan, tuned.bestSchedule, _hw);
    }
    return result;
}

std::size_t
Compiler::countMappings(const TensorComputation &comp) const
{
    const auto &intr = _hw.primaryIntrinsic();
    if (comp.inputs().size() != intr.compute.numSrcs() ||
        comp.combine() != intr.compute.combine())
        return 0;
    return enumerateMappings(comp, intr, _options.mappingOptions)
        .size();
}

std::optional<CompileResult>
replayCacheEntry(const CacheEntry &entry,
                 const TensorComputation &comp,
                 const HardwareSpec &hw)
{
    auto plan = entry.instantiate(comp, hw);
    if (!plan)
        return std::nullopt;
    CompileResult result;
    result.tensorized = true;
    auto prof = lowerKernel(*plan, entry.schedule, hw);
    auto sim = simulateKernel(prof, hw);
    result.cycles = sim.cycles;
    auto scalar =
        baselines::scalarExecution(comp, hw, 0.6, "amos-scalar");
    if (scalar.cycles < result.cycles) {
        result.cycles = scalar.cycles;
        result.usedScalarCode = true;
    }
    result.milliseconds = cyclesToMs(result.cycles, hw);
    result.gflops = static_cast<double>(comp.flopCount()) /
                    (result.milliseconds * 1e6);
    result.mappingSignature = plan->mapping().signature(comp);
    result.computeMapping = plan->computeMappingString();
    result.memoryMapping = plan->memoryMappingString();
    result.pseudoCode = renderPseudoCode(*plan, entry.schedule, hw);

    // Re-materialise enough of the tuner outcome that downstream
    // consumers (explain reports, --emit-c) treat a cache replay
    // like a fresh compile. The trace and telemetry stay empty: no
    // search happened.
    result.tuning.tensorizable = true;
    result.tuning.bestPlan = *plan;
    result.tuning.bestSchedule = entry.schedule;
    result.tuning.bestCycles = sim.cycles;
    result.tuning.bestModelCycles =
        modelEstimate(prof, hw).totalCycles;
    result.tuning.bestSim = sim;
    result.tuning.mappingSignature = result.mappingSignature;
    result.tuning.computeMapping = result.computeMapping;
    result.tuning.intrinsicName = plan->intrinsic().name();
    return result;
}

std::optional<CacheEntry>
cacheEntryOf(const CompileResult &result)
{
    if (!result.tensorized || !result.tuning.bestPlan)
        return std::nullopt;
    CacheEntry entry;
    entry.intrinsicName = result.tuning.bestPlan->intrinsic().name();
    entry.mapping = result.tuning.bestPlan->mapping();
    entry.schedule = result.tuning.bestSchedule;
    entry.cycles = result.tuning.bestCycles;
    return entry;
}

NetworkResult
Compiler::compileNetwork(const Network &net) const
{
    NetworkCompileOptions options;
    options.tuning = _options;
    return amos::compileNetwork(net, _hw, NetworkCompiler::Amos,
                                options);
}

} // namespace amos
