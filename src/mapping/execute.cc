#include "execute.hh"

#include "mapping/exec_plan.hh"
#include "quant/semantics.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/trace.hh"
#include "tensor/jit_hook.hh"
#include "tensor/reference.hh"

namespace amos {

namespace {

/** Odometer over a list of extents; calls fn with the index vector. */
template <typename Fn>
void
forEachIndex(const std::vector<std::int64_t> &extents, Fn fn)
{
    std::vector<std::int64_t> idx(extents.size(), 0);
    for (auto e : extents)
        if (e <= 0)
            return;
    bool done = false;
    while (!done) {
        fn(idx);
        std::size_t d = extents.size();
        done = extents.empty();
        while (d > 0) {
            --d;
            if (++idx[d] < extents[d])
                break;
            idx[d] = 0;
            if (d == 0)
                done = true;
        }
    }
}

/** Unflatten a fused flat value into member software coordinates. */
void
unflattenGroup(const TensorComputation &comp,
               const MappingPlan::GroupInfo &group, std::int64_t flat,
               std::vector<std::int64_t> &sw_coords)
{
    for (std::size_t pos = group.members.size(); pos-- > 0;) {
        std::size_t s = group.members[pos];
        std::int64_t extent = comp.iters()[s].extent;
        sw_coords[s] = flat % extent;
        flat /= extent;
    }
}

std::int64_t
readAccess(const Buffer &buf, const std::vector<Expr> &indices,
           const VarBinding &binding,
           std::vector<std::int64_t> &scratch)
{
    scratch.resize(indices.size());
    for (std::size_t d = 0; d < indices.size(); ++d)
        scratch[d] = evalExpr(indices[d], binding);
    return buf.flatten(scratch);
}

/** Scalar interpreter for the direct path (fallback + baseline). */
void
interpretMappedDirect(const MappingPlan &plan,
                      const std::vector<const Buffer *> &inputs,
                      Buffer &output)
{
    const auto &comp = plan.computation();
    const auto &intr = plan.intrinsic().compute;
    // IntDot accumulates exactly through the integer lanes; the
    // float disciplines use the converting view (exact widening for
    // bf16 inputs, since their output is f32).
    const bool intDot = quant::classifyComputation(comp).kind ==
                        quant::KernelSemantics::IntDot;

    std::vector<std::int64_t> outer_extents;
    for (const auto &axis : plan.outerAxes())
        outer_extents.push_back(axis.extent);
    std::vector<std::int64_t> intr_extents = intr.problemSize();

    const auto &groups = plan.groups();
    const std::size_t K = groups.size();
    std::vector<std::int64_t> sw_coords(comp.numIters(), 0);
    std::vector<std::int64_t> scratch;
    VarBinding binding;
    for (std::size_t s = 0; s < comp.numIters(); ++s)
        binding[comp.iters()[s].var.node()] = 0;

    forEachIndex(outer_extents, [&](const std::vector<std::int64_t>
                                        &outer) {
        // Quotient per intrinsic iteration at this outer coordinate.
        std::vector<std::int64_t> quotient(K, 0);
        for (std::size_t a = 0; a < plan.outerAxes().size(); ++a) {
            const auto &axis = plan.outerAxes()[a];
            if (axis.kind == MappingPlan::OuterAxis::Kind::Unmapped) {
                sw_coords[axis.ref] = outer[a];
                binding[comp.iters()[axis.ref].var.node()] = outer[a];
            } else {
                quotient[axis.ref] = outer[a];
            }
        }

        // Rebind only group coordinates the intrinsic odometer moved
        // (or ones left stale by a padding skip).
        std::size_t stale = 0;
        forEachIndexDelta(intr_extents, [&](const std::vector<
                                                std::int64_t> &intr_idx,
                                            std::size_t dirty) {
            for (std::size_t k = std::min(dirty, stale); k < K; ++k) {
                std::int64_t flat =
                    quotient[k] * groups[k].intrinsicExtent +
                    intr_idx[k];
                if (flat >= groups[k].fusedExtent) {
                    stale = k;
                    return; // trailing padding
                }
                unflattenGroup(comp, groups[k], flat, sw_coords);
                for (auto s : groups[k].members)
                    binding[comp.iters()[s].var.node()] =
                        sw_coords[s];
            }
            stale = K;

            std::int64_t out_flat = readAccess(
                output, comp.outputIndices(), binding, scratch);
            const bool mulAdd =
                comp.combine() == CombineKind::MultiplyAdd;
            std::int64_t in0_flat = readAccess(
                *inputs[0], comp.inputs()[0].indices, binding,
                scratch);
            std::int64_t in1_flat =
                mulAdd ? readAccess(*inputs[1],
                                    comp.inputs()[1].indices, binding,
                                    scratch)
                       : -1;
            if (intDot) {
                std::int64_t update = inputs[0]->intAt(in0_flat);
                if (mulAdd)
                    update *= inputs[1]->intAt(in1_flat);
                output.intAccumulate(out_flat, update);
            } else {
                float update = inputs[0]->at(in0_flat);
                if (mulAdd)
                    update *= inputs[1]->at(in1_flat);
                output.accumulate(out_flat, update);
            }
        });
    });
}

/** Interpreter staging arithmetic, float disciplines. */
struct InterpFloatOps
{
    using Stream = float;
    static Stream
    load(const Buffer &b, std::int64_t i)
    {
        return b.at(i); // exact widening for bf16 lanes
    }
    static void
    store(Buffer &b, std::int64_t i, Stream v)
    {
        b.set(i, v);
    }
    static void
    mulAdd(Stream &slot, Stream a, Stream b)
    {
        slot += a * b;
    }
    static void
    add(Stream &slot, Stream a)
    {
        slot += a;
    }
};

/**
 * Interpreter staging arithmetic, IntDot discipline: exact loads and
 * the wrapping int32 accumulate of quant::intDotStep.
 */
struct InterpIntOps
{
    using Stream = std::int32_t;
    static Stream
    load(const Buffer &b, std::int64_t i)
    {
        return static_cast<Stream>(b.intAt(i));
    }
    static void
    store(Buffer &b, std::int64_t i, Stream v)
    {
        b.intSet(i, v);
    }
    static void
    mulAdd(Stream &slot, Stream a, Stream b)
    {
        slot = static_cast<Stream>(
            static_cast<std::int64_t>(slot) +
            static_cast<std::int64_t>(a) * b);
    }
    static void
    add(Stream &slot, Stream a)
    {
        slot = static_cast<Stream>(static_cast<std::int64_t>(slot) +
                                   a);
    }
};

/** Scalar interpreter for the packed path (fallback + baseline). */
template <typename Ops>
void
interpretMappedPackedT(const MappingPlan &plan,
                       const std::vector<const Buffer *> &inputs,
                       Buffer &output)
{
    using StreamT = typename Ops::Stream;
    const auto &comp = plan.computation();
    const auto &intr = plan.intrinsic().compute;

    const auto &operands = plan.operands();
    auto phys_exprs = plan.physicalComputeExprs();

    // Packed storage per operand: numTiles x tileElems, zero-filled
    // so trailing-padding slots contribute nothing.
    std::vector<std::vector<StreamT>> packed;
    for (const auto &op : operands)
        packed.emplace_back(
            static_cast<std::size_t>(op.numTiles * op.tileElems),
            StreamT{});

    // Packed address of an operand under a full software binding:
    // evaluated base-address expression plus the row-major physical
    // offset inside the tile.
    auto packed_addr = [&](const MappingPlan::OperandInfo &op,
                           const VarBinding &binding) {
        std::int64_t addr = evalExpr(op.baseAddress, binding);
        std::int64_t offset = 0;
        for (auto k : op.intrinsicIters) {
            std::int64_t phys = evalExpr(phys_exprs[k], binding);
            offset = offset * intr.iters()[k].extent + phys;
        }
        return addr + offset;
    };

    // Stage 1: pack the inputs by sweeping the software domain,
    // rebinding only the coordinates the odometer moved.
    std::vector<std::int64_t> sw_extents;
    for (const auto &iv : comp.iters())
        sw_extents.push_back(iv.extent);

    VarBinding binding;
    std::vector<std::int64_t> scratch;
    forEachIndexDelta(sw_extents, [&](const std::vector<std::int64_t>
                                          &idx,
                                      std::size_t dirty) {
        for (std::size_t s = dirty; s < comp.numIters(); ++s)
            binding[comp.iters()[s].var.node()] = idx[s];
        for (std::size_t m = 0; m < inputs.size(); ++m) {
            const auto &op = operands[m];
            std::int64_t src = readAccess(
                *inputs[m], comp.inputs()[m].indices, binding,
                scratch);
            std::int64_t dst = packed_addr(op, binding);
            require(dst >= 0 &&
                    dst < static_cast<std::int64_t>(packed[m].size()),
                    "packed input address out of range for ", op.name,
                    ": addr ", dst, " size ", packed[m].size());
            packed[m][static_cast<std::size_t>(dst)] =
                Ops::load(*inputs[m], src);
        }
    });

    // Stage 2: execute intrinsic calls purely on packed tiles.
    const auto &dst_op = operands.back();
    std::vector<std::int64_t> outer_extents;
    for (const auto &axis : plan.outerAxes())
        outer_extents.push_back(axis.extent);
    std::vector<std::int64_t> intr_extents = intr.problemSize();
    const auto &groups = plan.groups();

    forEachIndex(outer_extents, [&](const std::vector<std::int64_t>
                                        &outer) {
        // Representative software binding for this tile: within-tile
        // index zero. Base addresses only depend on quotients and
        // unmapped iterations, both fixed by the outer coordinate.
        std::vector<std::int64_t> sw_coords(comp.numIters(), 0);
        for (std::size_t a = 0; a < plan.outerAxes().size(); ++a) {
            const auto &axis = plan.outerAxes()[a];
            if (axis.kind == MappingPlan::OuterAxis::Kind::Unmapped) {
                sw_coords[axis.ref] = outer[a];
            } else {
                std::int64_t flat =
                    outer[a] * groups[axis.ref].intrinsicExtent;
                unflattenGroup(comp, groups[axis.ref], flat,
                               sw_coords);
            }
        }
        for (std::size_t s = 0; s < comp.numIters(); ++s)
            binding[comp.iters()[s].var.node()] = sw_coords[s];

        std::vector<std::int64_t> bases(operands.size());
        for (std::size_t m = 0; m < operands.size(); ++m)
            bases[m] = evalExpr(operands[m].baseAddress, binding);

        // One intrinsic call: the inner loops below are the scalar
        // semantics of the compute abstraction.
        forEachIndex(intr_extents, [&](const std::vector<std::int64_t>
                                           &intr_idx) {
            auto tile_offset =
                [&](const MappingPlan::OperandInfo &op) {
                    std::int64_t offset = 0;
                    for (auto k : op.intrinsicIters)
                        offset = offset * intr.iters()[k].extent +
                                 intr_idx[k];
                    return offset;
                };
            std::size_t dst_idx = operands.size() - 1;
            StreamT &slot = packed[dst_idx][static_cast<std::size_t>(
                bases[dst_idx] + tile_offset(dst_op))];
            switch (comp.combine()) {
              case CombineKind::MultiplyAdd: {
                StreamT a = packed[0][static_cast<std::size_t>(
                    bases[0] + tile_offset(operands[0]))];
                StreamT b = packed[1][static_cast<std::size_t>(
                    bases[1] + tile_offset(operands[1]))];
                Ops::mulAdd(slot, a, b);
                break;
              }
              case CombineKind::SumReduce:
                Ops::add(slot, packed[0][static_cast<std::size_t>(
                                   bases[0] +
                                   tile_offset(operands[0]))]);
                break;
            }
        });
    });

    // Stage 3: unpack the output back to the software layout.
    forEachIndexDelta(sw_extents, [&](const std::vector<std::int64_t>
                                          &idx,
                                      std::size_t dirty) {
        for (std::size_t s = dirty; s < comp.numIters(); ++s)
            binding[comp.iters()[s].var.node()] = idx[s];
        std::int64_t sw = readAccess(output, comp.outputIndices(),
                                     binding, scratch);
        std::int64_t src = packed_addr(dst_op, binding);
        Ops::store(output, sw,
                   packed.back()[static_cast<std::size_t>(src)]);
    });
}

/** Dispatch the packed interpreter on the computation's discipline. */
void
interpretMappedPacked(const MappingPlan &plan,
                      const std::vector<const Buffer *> &inputs,
                      Buffer &output)
{
    const auto sem = quant::classifyComputation(plan.computation());
    if (sem.kind == quant::KernelSemantics::IntDot)
        interpretMappedPackedT<InterpIntOps>(plan, inputs, output);
    else
        interpretMappedPackedT<InterpFloatOps>(plan, inputs, output);
}

/** The matching hook of the path being dispatched (or nullptr). */
using MappedJitFn = bool (*)(const MappingPlan &, const ExecPlan &,
                             const std::vector<const Buffer *> &,
                             Buffer &, std::string *);

/** Shared engine-selection logic of the two mapped executors. */
template <typename SelectHook, typename RunCompiled,
          typename RunInterp>
ExecReport
dispatchMapped(const char *spanName, const MappingPlan &plan,
               const std::vector<const Buffer *> &inputs,
               Buffer &output, const ExecOptions &opts,
               SelectHook &&selectHook, RunCompiled &&runCompiled,
               RunInterp &&runInterp)
{
    TraceSpan span(spanName, "exec");
    auto &metrics = MetricsRegistry::global();
    ExecReport report;
    const ExecEngine engine = opts.resolvedEngine();
    if (engine != ExecEngine::Interpreter) {
        ExecPlan ep(plan);
        std::string why = ep.fallbackReason();
        const bool fits =
            ep.compiled() && ep.buffersMatch(inputs, output, &why);

        if (engine == ExecEngine::Jit) {
            const JitHooks *hooks = jitHooks();
            MappedJitFn fn = hooks ? selectHook(*hooks) : nullptr;
            std::string jitWhy;
            if (!fits)
                jitWhy = why;
            else if (!fn)
                jitWhy = "jit tier not linked";
            else if (fn(plan, ep, inputs, output, &jitWhy)) {
                metrics.counter("exec.jit_runs").add();
                span.arg("engine", "jit");
                report.engine = "jit";
                return report;
            }
            metrics.counter("exec.jit_fallback").add();
            span.arg("jit_fallback", jitWhy);
            report.jitFallback = jitWhy;
            AMOS_LOG(Debug)
                << spanName << " jit tier falls back for "
                << plan.computation().name() << ": " << jitWhy;
        }

        if (fits) {
            WalkRunStats stats = runCompiled(ep);
            noteWalkRun(span, stats, opts.numThreads);
            report.engine = "walk";
            report.threadsUsed = stats.threadsUsed;
            return report;
        }
        metrics.counter("exec.fallback").add();
        span.arg("fallback", why);
        AMOS_LOG(Debug)
            << spanName << " falls back to the interpreter for "
            << plan.computation().name() << ": " << why;
    }
    metrics.counter("exec.interpreter_runs").add();
    span.arg("engine", "interpreter");
    runInterp();
    return report;
}

} // namespace

ExecReport
executeMappedDirect(const MappingPlan &plan,
                    const std::vector<const Buffer *> &inputs,
                    Buffer &output)
{
    return executeMappedDirect(plan, inputs, output, ExecOptions{});
}

ExecReport
executeMappedDirect(const MappingPlan &plan,
                    const std::vector<const Buffer *> &inputs,
                    Buffer &output, const ExecOptions &opts)
{
    require(plan.valid(),
            "executeMappedDirect on an invalid mapping for ",
            plan.computation().name());
    require(inputs.size() == plan.computation().inputs().size(),
            "executeMappedDirect: input count mismatch");
    const auto sem = quant::classifyComputation(plan.computation());
    require(sem.supported, "executeMappedDirect(",
            plan.computation().name(), "): ", sem.reason);
    return dispatchMapped(
        "exec.direct", plan, inputs, output, opts,
        [](const JitHooks &h) { return h.runDirect; },
        [&](const ExecPlan &ep) {
            return ep.runDirect(inputs, output, opts);
        },
        [&]() { interpretMappedDirect(plan, inputs, output); });
}

ExecReport
executeMappedPacked(const MappingPlan &plan,
                    const std::vector<const Buffer *> &inputs,
                    Buffer &output)
{
    return executeMappedPacked(plan, inputs, output, ExecOptions{});
}

ExecReport
executeMappedPacked(const MappingPlan &plan,
                    const std::vector<const Buffer *> &inputs,
                    Buffer &output, const ExecOptions &opts)
{
    require(plan.valid(),
            "executeMappedPacked on an invalid mapping for ",
            plan.computation().name());
    require(inputs.size() == plan.computation().inputs().size(),
            "executeMappedPacked: input count mismatch");
    const auto sem = quant::classifyComputation(plan.computation());
    require(sem.supported, "executeMappedPacked(",
            plan.computation().name(), "): ", sem.reason);
    return dispatchMapped(
        "exec.packed", plan, inputs, output, opts,
        [](const JitHooks &h) { return h.runPacked; },
        [&](const ExecPlan &ep) {
            return ep.runPacked(inputs, output, opts);
        },
        [&]() { interpretMappedPacked(plan, inputs, output); });
}

float
mappedVsReferenceError(const MappingPlan &plan, std::uint64_t seed)
{
    const auto &comp = plan.computation();
    auto inputs = makePatternInputs(comp, seed);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    Buffer ref(comp.output());
    referenceExecute(comp, ptrs, ref);

    Buffer direct(comp.output());
    executeMappedDirect(plan, ptrs, direct);

    Buffer packed(comp.output());
    executeMappedPacked(plan, ptrs, packed);

    return std::max(ref.maxAbsDiff(direct), ref.maxAbsDiff(packed));
}

float
compiledVsInterpreterError(const MappingPlan &plan,
                           std::uint64_t seed, int numThreads)
{
    const auto &comp = plan.computation();
    auto inputs = makePatternInputs(comp, seed);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    ExecOptions interp;
    interp.forceInterpreter = true;
    ExecOptions compiled;
    compiled.numThreads = numThreads;

    Buffer di(comp.output()), dc(comp.output());
    executeMappedDirect(plan, ptrs, di, interp);
    executeMappedDirect(plan, ptrs, dc, compiled);

    Buffer pi(comp.output()), pc(comp.output());
    executeMappedPacked(plan, ptrs, pi, interp);
    executeMappedPacked(plan, ptrs, pc, compiled);

    return std::max(di.maxAbsDiff(dc), pi.maxAbsDiff(pc));
}

float
engineVsInterpreterError(const MappingPlan &plan, ExecEngine engine,
                         std::uint64_t seed, ExecReport *directReport,
                         ExecReport *packedReport)
{
    const auto &comp = plan.computation();
    auto inputs = makePatternInputs(comp, seed);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    ExecOptions interp;
    interp.engine = ExecEngine::Interpreter;
    ExecOptions tiered;
    tiered.engine = engine;

    Buffer di(comp.output()), dt(comp.output());
    executeMappedDirect(plan, ptrs, di, interp);
    ExecReport dr = executeMappedDirect(plan, ptrs, dt, tiered);

    Buffer pi(comp.output()), pt(comp.output());
    executeMappedPacked(plan, ptrs, pi, interp);
    ExecReport pr = executeMappedPacked(plan, ptrs, pt, tiered);

    if (directReport)
        *directReport = dr;
    if (packedReport)
        *packedReport = pr;
    return std::max(di.maxAbsDiff(dt), pi.maxAbsDiff(pt));
}

quant::CompareResult
engineVsInterpreterCompare(const MappingPlan &plan, ExecEngine engine,
                           const quant::ToleranceSpec &spec,
                           std::uint64_t seed, int numThreads,
                           ExecReport *directReport,
                           ExecReport *packedReport)
{
    const auto &comp = plan.computation();
    auto inputs = makePatternInputs(comp, seed);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    ExecOptions interp;
    interp.engine = ExecEngine::Interpreter;
    ExecOptions tiered;
    tiered.engine = engine;
    tiered.numThreads = numThreads;

    Buffer di(comp.output()), dt(comp.output());
    executeMappedDirect(plan, ptrs, di, interp);
    ExecReport dr = executeMappedDirect(plan, ptrs, dt, tiered);

    Buffer pi(comp.output()), pt(comp.output());
    executeMappedPacked(plan, ptrs, pi, interp);
    ExecReport pr = executeMappedPacked(plan, ptrs, pt, tiered);

    if (directReport)
        *directReport = dr;
    if (packedReport)
        *packedReport = pr;

    // Worst of the two paths: a failing comparison wins; among two
    // passing (or two failing) ones, the larger absolute error wins.
    auto dcmp = quant::compareBuffers(dt, di, spec);
    auto pcmp = quant::compareBuffers(pt, pi, spec);
    if (dcmp.pass != pcmp.pass)
        return dcmp.pass ? pcmp : dcmp;
    return dcmp.maxAbsErr >= pcmp.maxAbsErr ? dcmp : pcmp;
}

} // namespace amos
