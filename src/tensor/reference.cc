#include "reference.hh"

#include "quant/semantics.hh"
#include "quant/typed_exec.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/trace.hh"
#include "tensor/jit_hook.hh"

namespace amos {

namespace {

/** Evaluate a multi-index access and read/accumulate a buffer. */
std::int64_t
flatIndex(const Buffer &buf, const std::vector<Expr> &indices,
          const VarBinding &binding,
          std::vector<std::int64_t> &scratch)
{
    scratch.resize(indices.size());
    for (std::size_t d = 0; d < indices.size(); ++d)
        scratch[d] = evalExpr(indices[d], binding);
    return buf.flatten(scratch);
}

/**
 * The compiled plan's strides come from the declared shapes, so the
 * runtime buffers must match them exactly — and the whole iteration
 * box must stay inside every buffer (checked once here instead of
 * per element in the inner loop).
 */
bool
walkFitsBuffers(const AccessWalkPlan &plan,
                const TensorComputation &comp,
                const std::vector<const Buffer *> &inputs,
                const Buffer &output, std::string *why)
{
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i]->decl().shape() !=
            comp.inputs()[i].decl.shape()) {
            *why = "input " + std::to_string(i) +
                   " shape differs from the declared shape";
            return false;
        }
        if (inputs[i]->storage() !=
            dtypeStorageLane(comp.inputs()[i].decl.dtype())) {
            *why = "input " + std::to_string(i) +
                   " storage lane differs from the declared dtype";
            return false;
        }
    }
    if (output.decl().shape() != comp.output().shape()) {
        *why = "output shape differs from the declared shape";
        return false;
    }
    if (output.storage() !=
        dtypeStorageLane(comp.output().dtype())) {
        *why = "output storage lane differs from the declared dtype";
        return false;
    }
    for (std::size_t m = 0; m < plan.operands.size(); ++m) {
        std::int64_t size =
            m < inputs.size()
                ? static_cast<std::int64_t>(inputs[m]->size())
                : static_cast<std::int64_t>(output.size());
        if (plan.operands[m].minAddr < 0 ||
            plan.operands[m].maxAddr >= size) {
            *why = "operand " + std::to_string(m) +
                   " address box [" +
                   std::to_string(plan.operands[m].minAddr) + ", " +
                   std::to_string(plan.operands[m].maxAddr) +
                   "] exceeds buffer size " + std::to_string(size);
            return false;
        }
    }
    return true;
}

} // namespace

ExecReport
referenceExecute(const TensorComputation &comp,
                 const std::vector<const Buffer *> &inputs,
                 Buffer &output)
{
    return referenceExecute(comp, inputs, output, ExecOptions{});
}

ExecReport
referenceExecute(const TensorComputation &comp,
                 const std::vector<const Buffer *> &inputs,
                 Buffer &output, const ExecOptions &opts)
{
    require(inputs.size() == comp.inputs().size(),
            "referenceExecute: expected ", comp.inputs().size(),
            " inputs, got ", inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        require(inputs[i]->decl().numElements() ==
                comp.inputs()[i].decl.numElements(),
                "referenceExecute: input ", i, " size mismatch");
    }

    const auto sem = quant::classifyComputation(comp);
    require(sem.supported, "referenceExecute(", comp.name(), "): ",
            sem.reason);

    TraceSpan span("exec.reference", "exec");
    auto &metrics = MetricsRegistry::global();
    ExecReport report;
    const ExecEngine engine = opts.resolvedEngine();

    if (engine != ExecEngine::Interpreter) {
        std::string why;
        auto plan = compileReferenceWalk(comp, &why);
        bool fits = plan &&
                    walkFitsBuffers(*plan, comp, inputs, output, &why);

        if (engine == ExecEngine::Jit) {
            const JitHooks *hooks = jitHooks();
            std::string jitWhy;
            if (!fits)
                jitWhy = why;
            else if (!hooks || !hooks->runReference)
                jitWhy = "jit tier not linked";
            else if (hooks->runReference(comp, *plan, inputs, output,
                                         &jitWhy)) {
                metrics.counter("exec.jit_runs").add();
                span.arg("engine", "jit");
                report.engine = "jit";
                return report;
            }
            metrics.counter("exec.jit_fallback").add();
            span.arg("jit_fallback", jitWhy);
            report.jitFallback = jitWhy;
            AMOS_LOG(Debug)
                << "exec.reference jit tier falls back for "
                << comp.name() << ": " << jitWhy;
        }

        if (fits) {
            // The walk is an address generator; the loaders and
            // accumulator carry the discipline (float MAC, exact
            // int32 dot, bf16-widened MAC) so one body per combine
            // kind covers every dtype path.
            WalkRunStats stats;
            const bool inRegister = !outputAliasesInput(output, inputs);
            switch (comp.combine()) {
              case CombineKind::MultiplyAdd:
                quant::dispatchMulAdd(
                    sem, *inputs[0], *inputs[1], output,
                    [&](auto l0, auto l1, auto acc) {
                        stats = runAccessWalkParallel(
                            *plan, 2, plan->extents.size(),
                            opts.numThreads,
                            quant::accumulateBody<2>(l0, l1, acc,
                                                     inRegister));
                    });
                break;
              case CombineKind::SumReduce:
                quant::dispatchSum(
                    sem, *inputs[0], output,
                    [&](auto l0, auto acc) {
                        stats = runAccessWalkParallel(
                            *plan, 1, plan->extents.size(),
                            opts.numThreads,
                            quant::accumulateBody<1>(l0, l0, acc,
                                                     inRegister));
                    });
                break;
            }
            noteWalkRun(span, stats, opts.numThreads);
            report.engine = "walk";
            report.threadsUsed = stats.threadsUsed;
            return report;
        }
        metrics.counter("exec.fallback").add();
        span.arg("fallback", why);
        AMOS_LOG(Debug)
            << "exec.reference falls back to the interpreter for "
            << comp.name() << ": " << why;
    }

    // Interpreter: odometer over the software domain, rebinding only
    // the coordinates the odometer actually moved.
    metrics.counter("exec.interpreter_runs").add();
    span.arg("engine", "interpreter");
    const auto &iters = comp.iters();
    std::vector<std::int64_t> extents;
    for (const auto &iv : iters)
        extents.push_back(iv.extent);

    // IntDot accumulates exactly through the integer lanes; the
    // float disciplines go through the converting view (an exact
    // widening for bf16 inputs, since the output is f32).
    const bool intDot = sem.kind == quant::KernelSemantics::IntDot;
    VarBinding binding;
    std::vector<std::int64_t> scratch;
    forEachIndexDelta(extents, [&](const std::vector<std::int64_t>
                                       &idx,
                                   std::size_t dirty) {
        for (std::size_t i = dirty; i < iters.size(); ++i)
            binding[iters[i].var.node()] = idx[i];

        std::int64_t out_flat = flatIndex(
            output, comp.outputIndices(), binding, scratch);
        std::int64_t in0_flat = flatIndex(
            *inputs[0], comp.inputs()[0].indices, binding, scratch);
        std::int64_t in1_flat = -1;
        if (comp.combine() == CombineKind::MultiplyAdd)
            in1_flat = flatIndex(*inputs[1], comp.inputs()[1].indices,
                                 binding, scratch);

        if (intDot) {
            std::int64_t update = inputs[0]->intAt(in0_flat);
            if (comp.combine() == CombineKind::MultiplyAdd)
                update *= inputs[1]->intAt(in1_flat);
            output.intAccumulate(out_flat, update);
        } else {
            float update = inputs[0]->at(in0_flat);
            if (comp.combine() == CombineKind::MultiplyAdd)
                update *= inputs[1]->at(in1_flat);
            output.accumulate(out_flat, update);
        }
    });
    return report;
}

std::vector<Buffer>
makePatternInputs(const TensorComputation &comp, std::uint64_t seed)
{
    std::vector<Buffer> bufs;
    bufs.reserve(comp.inputs().size());
    for (std::size_t i = 0; i < comp.inputs().size(); ++i) {
        bufs.emplace_back(comp.inputs()[i].decl);
        bufs.back().fillPattern(seed + i * 1315423911ULL);
    }
    return bufs;
}

Buffer
referenceRun(const TensorComputation &comp, std::uint64_t seed)
{
    auto inputs = makePatternInputs(comp, seed);
    Buffer out(comp.output());
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);
    referenceExecute(comp, ptrs, out);
    return out;
}

} // namespace amos
