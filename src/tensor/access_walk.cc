#include "access_walk.hh"

#include <algorithm>
#include <cmath>

#include "ir/affine.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace amos {

const char *
execEngineName(ExecEngine engine)
{
    switch (engine) {
      case ExecEngine::Auto: return "auto";
      case ExecEngine::Interpreter: return "interpreter";
      case ExecEngine::Walk: return "walk";
      case ExecEngine::Jit: return "jit";
    }
    return "auto";
}

std::optional<ExecEngine>
parseExecEngine(const std::string &name)
{
    if (name == "auto")
        return ExecEngine::Auto;
    if (name == "interpreter")
        return ExecEngine::Interpreter;
    if (name == "walk")
        return ExecEngine::Walk;
    if (name == "jit")
        return ExecEngine::Jit;
    return std::nullopt;
}

void
noteWalkRun(TraceSpan &span, const WalkRunStats &stats,
            int requestedThreads)
{
    auto &metrics = MetricsRegistry::global();
    metrics.counter("exec.compiled_runs").add();
    span.arg("engine", "compiled");
    span.arg("threads", static_cast<std::int64_t>(stats.threadsUsed));
    if (stats.loweredSweeps > 0)
        metrics.counter("exec.walk_lowered_runs")
            .add(static_cast<std::uint64_t>(stats.loweredSweeps));
    if (stats.tiledSweeps > 0)
        metrics.counter("exec.walk_tiled_runs")
            .add(static_cast<std::uint64_t>(stats.tiledSweeps));
    span.arg("walk_form", stats.tiledSweeps == 0
                              ? (stats.loweredSweeps == 0 ? "affine"
                                                          : "lowered")
                              : (stats.loweredSweeps == 0 ? "tiled"
                                                          : "mixed"));
    if (stats.threadsUsed > 1)
        metrics.counter("exec.parallel_runs").add();
    else if (ThreadPool::resolveThreads(requestedThreads) > 1)
        metrics.counter("exec.parallel_unsplittable").add();
}

void
AccessWalkPlan::finalize()
{
    for (const auto &c : clamps)
        require(c.quotientLevel < c.level && c.level < extents.size() &&
                    c.tile > 0,
                "AccessWalkPlan: clamp of level ", c.level,
                " on quotient level ", c.quotientLevel, " is malformed");
    for (auto &op : operands) {
        require(op.stride.size() == extents.size(),
                "AccessWalkPlan: operand has ", op.stride.size(),
                " strides for ", extents.size(), " levels");
        op.rollback.resize(op.stride.size());
        op.minAddr = op.base;
        op.maxAddr = op.base;
        for (std::size_t l = 0; l < extents.size(); ++l) {
            std::int64_t span = op.stride[l] * (extents[l] - 1);
            op.rollback[l] = span;
            if (span < 0)
                op.minAddr += span;
            else
                op.maxAddr += span;
        }
    }
}

std::int64_t
AccessWalkPlan::totalSteps() const
{
    std::int64_t n = 1;
    for (auto e : extents)
        n *= e;
    return n;
}

bool
AccessWalkPlan::clamped(std::size_t level) const
{
    for (const auto &c : clamps)
        if (c.level == level)
            return true;
    return false;
}

std::optional<AccessWalkPlan>
compileReferenceWalk(const TensorComputation &comp,
                     std::string *reason)
{
    AccessWalkPlan plan;
    const auto &iters = comp.iters();
    for (const auto &iv : iters)
        plan.extents.push_back(iv.extent);

    auto compileOperand = [&](const TensorDecl &decl,
                              const std::vector<Expr> &indices,
                              const std::string &name) {
        auto analysis = analyzeFlatAccess(indices, decl.strides());
        if (!analysis.ok()) {
            if (reason)
                *reason = name + ": " + analysis.reason;
            return false;
        }
        WalkOperand op;
        op.base = analysis.form->constant();
        for (const auto &iv : iters)
            op.stride.push_back(
                analysis.form->coeffOf(iv.var.node()));
        plan.operands.push_back(std::move(op));
        return true;
    };

    for (const auto &in : comp.inputs())
        if (!compileOperand(in.decl, in.indices, in.decl.name()))
            return std::nullopt;
    if (!compileOperand(comp.output(), comp.outputIndices(),
                        comp.output().name()))
        return std::nullopt;
    plan.finalize();
    return plan;
}

int
pickSplitLevel(const AccessWalkPlan &plan, std::size_t operand,
               std::size_t levelLimit)
{
    require(operand < plan.operands.size(),
            "pickSplitLevel: operand out of range");
    const auto &op = plan.operands[operand];
    std::int64_t total_span = 0;
    for (std::size_t l = 0; l < plan.extents.size(); ++l)
        total_span +=
            std::abs(op.stride[l]) * (plan.extents[l] - 1);
    std::size_t limit =
        std::min(levelLimit, plan.extents.size());
    for (std::size_t l = 0; l < limit; ++l) {
        if (plan.extents[l] < 2 || op.stride[l] == 0 || plan.clamped(l))
            continue;
        std::int64_t step = std::abs(op.stride[l]);
        std::int64_t others =
            total_span - step * (plan.extents[l] - 1);
        if (step > others)
            return static_cast<int>(l);
    }
    return -1;
}

} // namespace amos
