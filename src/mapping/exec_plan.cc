#include "exec_plan.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "ir/affine.hh"
#include "quant/typed_exec.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace amos {

namespace {

/**
 * Per-tile digit odometer over the mapped loop nest: outer axes
 * around per-group intrinsic counters whose software coordinates are
 * mixed-radix digits of the fused flat value. Only sweeps with a
 * non-linear fused group run here; every other sweep is lowered to
 * an AccessWalkPlan (ExecPlan::lowered) and runs on the stride
 * walker.
 *
 * Per tile the walker decodes each group's start digits once, clamps
 * the counter to the valid (non-padding) limit, and then advances
 * every operand address incrementally: a counter increment moves one
 * group's digit odometer (one coefficient add, rollbacks on digit
 * carries) plus that counter's packed-tile stride; a counter carry
 * restores the address snapshot taken when the counter last left
 * zero. The executed tuples — and hence accumulation order — are
 * exactly the interpreter's non-padding subsequence.
 *
 * `restrictAxis`, when >= 0, confines that outer axis to [lo, hi);
 * used by the parallel sweep.
 */
template <typename Body>
void
runMappedWalkRange(const std::vector<std::int64_t> &iterExt,
                   const std::vector<ExecPlan::Axis> &axes,
                   const std::vector<ExecPlan::Group> &groups,
                   const ExecPlan::Operand *const *ops,
                   std::size_t nops, int restrictAxis, std::int64_t lo,
                   std::int64_t hi, Body &&body)
{
    const std::size_t A = axes.size();
    const std::size_t K = groups.size();
    const std::size_t S = iterExt.size();
    require(nops <= kMaxWalkOperands && S <= kMaxWalkLevels,
            "runMappedWalkRange: nest too large (", nops,
            " operands, ", S, " iterators)");

    // Flattened coefficient tables: absent components read as zero.
    std::vector<std::int64_t> swc(nops * S, 0), swr(nops * S, 0);
    std::vector<std::int64_t> tst(nops * std::max<std::size_t>(K, 1),
                                  0);
    std::vector<std::int64_t> ost(nops * std::max<std::size_t>(A, 1),
                                  0);
    for (std::size_t m = 0; m < nops; ++m) {
        const ExecPlan::Operand &op = *ops[m];
        for (std::size_t s = 0; s < op.swCoeff.size(); ++s) {
            swc[m * S + s] = op.swCoeff[s];
            swr[m * S + s] = op.swRollback[s];
        }
        for (std::size_t k = 0; k < op.tStride.size(); ++k)
            tst[m * K + k] = op.tStride[k];
        for (std::size_t a = 0; a < op.outerStride.size(); ++a)
            ost[m * A + a] = op.outerStride[a];
    }

    std::vector<std::int64_t> aext(A, 1), oidx(A, 0), oval(A, 0);
    for (std::size_t a = 0; a < A; ++a) {
        aext[a] = static_cast<int>(a) == restrictAxis
                      ? hi - lo
                      : axes[a].extent;
        if (aext[a] <= 0)
            return;
        oval[a] = static_cast<int>(a) == restrictAxis ? lo : 0;
    }

    std::vector<std::int64_t> sw(S, 0), startSw(S, 0);
    std::vector<std::int64_t> t(K, 0), startFlat(K, 0), lim(K, 0);
    std::vector<std::int64_t> qv(K, 0);
    std::vector<std::int64_t> saved(std::max<std::size_t>(K, 1) *
                                    nops);
    std::int64_t addr[kMaxWalkOperands];

    auto runTile = [&]() {
        // Decode each group's tile-start digits; clamp the counter to
        // the valid limit (the interpreter skips the padding tail).
        for (std::size_t k = 0; k < K; ++k) {
            const ExecPlan::Group &g = groups[k];
            startFlat[k] = qv[k] * g.intrinsicExtent;
            lim[k] = std::min(g.intrinsicExtent,
                              g.fusedExtent - startFlat[k]);
            if (lim[k] <= 0)
                return; // tile is pure padding
            std::int64_t f = startFlat[k];
            for (std::size_t pos = g.members.size(); pos-- > 0;) {
                startSw[g.members[pos]] = f % g.extents[pos];
                f /= g.extents[pos];
            }
            t[k] = 0;
        }
        sw = startSw;
        for (std::size_t m = 0; m < nops; ++m) {
            std::int64_t a0 = ops[m]->base;
            for (std::size_t s = 0; s < S; ++s)
                a0 += swc[m * S + s] * sw[s];
            for (std::size_t a = 0; a < A; ++a)
                a0 += ost[m * A + a] * oval[a];
            addr[m] = a0;
        }
        for (std::size_t k = 0; k < K; ++k)
            for (std::size_t m = 0; m < nops; ++m)
                saved[k * nops + m] = addr[m];

        while (true) {
            body(addr);
            if (K == 0)
                return;
            std::size_t d = K;
            while (true) {
                --d;
                if (t[d] + 1 < lim[d]) {
                    ++t[d];
                    const ExecPlan::Group &g = groups[d];
                    for (std::size_t pos = g.members.size();
                         pos-- > 0;) {
                        std::size_t s = g.members[pos];
                        if (++sw[s] < g.extents[pos]) {
                            for (std::size_t m = 0; m < nops; ++m)
                                addr[m] += swc[m * S + s];
                            break;
                        }
                        sw[s] = 0;
                        for (std::size_t m = 0; m < nops; ++m)
                            addr[m] -= swr[m * S + s];
                    }
                    for (std::size_t m = 0; m < nops; ++m)
                        addr[m] += tst[m * K + d];
                    for (std::size_t j = d + 1; j < K; ++j)
                        for (std::size_t m = 0; m < nops; ++m)
                            saved[j * nops + m] = addr[m];
                    break;
                }
                // Carry: group d back to its tile-start digits.
                t[d] = 0;
                const ExecPlan::Group &g = groups[d];
                std::int64_t f = startFlat[d];
                for (std::size_t pos = g.members.size(); pos-- > 0;) {
                    sw[g.members[pos]] = f % g.extents[pos];
                    f /= g.extents[pos];
                }
                for (std::size_t m = 0; m < nops; ++m)
                    addr[m] = saved[d * nops + m];
                if (d == 0)
                    return;
            }
        }
    };

    auto applyAxes = [&]() {
        for (std::size_t a = 0; a < A; ++a) {
            if (axes[a].isQuotient)
                qv[axes[a].ref] = oval[a];
            else
                startSw[axes[a].ref] = oval[a];
        }
    };

    if (A == 0) {
        runTile();
        return;
    }
    while (true) {
        applyAxes();
        runTile();
        std::size_t d = A;
        while (true) {
            --d;
            if (++oidx[d] < aext[d]) {
                ++oval[d];
                break;
            }
            oidx[d] = 0;
            oval[d] = static_cast<int>(d) == restrictAxis ? lo : 0;
            if (d == 0)
                return;
        }
    }
}

/**
 * Parallel mapped sweep over `splitAxis` (already proven to touch
 * disjoint output elements per axis value): contiguous chunks, one
 * serial range walk per chunk. Bit-identical for any thread count.
 */
template <typename Body>
WalkRunStats
runMappedWalkParallel(const std::vector<std::int64_t> &iterExt,
                      const std::vector<ExecPlan::Axis> &axes,
                      const std::vector<ExecPlan::Group> &groups,
                      const ExecPlan::Operand *const *ops,
                      std::size_t nops, int splitAxis, int numThreads,
                      Body &&body)
{
    WalkRunStats stats;
    std::size_t threads = ThreadPool::resolveThreads(numThreads);
    if (threads <= 1 || splitAxis < 0) {
        runMappedWalkRange(iterExt, axes, groups, ops, nops, -1, 0, 0,
                           body);
        return stats;
    }
    std::int64_t extent =
        axes[static_cast<std::size_t>(splitAxis)].extent;
    std::size_t chunks = std::min<std::size_t>(
        threads, static_cast<std::size_t>(extent));
    stats.threadsUsed = static_cast<int>(chunks);
    stats.splitLevel = splitAxis;
    parallelFor(
        chunks,
        [&](std::size_t c) {
            std::int64_t lo = extent * static_cast<std::int64_t>(c) /
                              static_cast<std::int64_t>(chunks);
            std::int64_t hi =
                extent * static_cast<std::int64_t>(c + 1) /
                static_cast<std::int64_t>(chunks);
            runMappedWalkRange(iterExt, axes, groups, ops, nops,
                               splitAxis, lo, hi, body);
        },
        static_cast<int>(chunks));
    return stats;
}

/**
 * One serial mapped sweep (pack, unpack): the lowered stride walk
 * when the plan has one, else the per-tile digit odometer.
 */
template <typename Body>
WalkRunStats
runSweep(const ExecPlan &plan, ExecPlan::Sweep sweep, Body &&body)
{
    WalkRunStats stats;
    if (const auto walk = plan.lowered(sweep)) {
        runAccessWalk(*walk, body);
        stats.loweredSweeps = 1;
        return stats;
    }
    const auto ops = plan.sweepOperands(sweep);
    runMappedWalkRange(plan.iterExtents(), plan.axes(), plan.groups(),
                       ops.data(), ops.size(), -1, 0, 0, body);
    stats.tiledSweeps = 1;
    return stats;
}

/**
 * The direct sweep, split across threads on `splitAxis` (-1:
 * serial). Outer axes are the lowered walk's leading levels, so the
 * axis names the same level in both forms.
 */
template <typename Body>
WalkRunStats
runDirectSweep(const ExecPlan &plan, int splitAxis, int numThreads,
               Body &&body)
{
    WalkRunStats stats;
    if (const auto walk = plan.lowered(ExecPlan::Sweep::Direct)) {
        stats = runAccessWalkSplit(*walk, splitAxis, numThreads, body);
        stats.loweredSweeps = 1;
        return stats;
    }
    const auto ops = plan.sweepOperands(ExecPlan::Sweep::Direct);
    stats = runMappedWalkParallel(plan.iterExtents(), plan.axes(),
                                  plan.groups(), ops.data(), ops.size(),
                                  splitAxis, numThreads, body);
    stats.tiledSweeps = 1;
    return stats;
}

/**
 * Typed packed pipeline for NumInputs inputs (2: MultiplyAdd, 1:
 * SumReduce, which passes `l0` twice): pack (typed, possibly
 * widening, loads) into staging streams, affine compute on the
 * streams, unpack through the output accessor. The streams are float
 * for the float disciplines (bf16 decodes on pack, exactly) and int32
 * for IntDot (8-bit values widen on pack, so stage B is the exact
 * dot: int64 intermediates, wrapping int32 accumulate — identical to
 * the direct path's, bit for bit).
 */
template <std::size_t NumInputs, typename L0, typename L1,
          typename OutAcc>
WalkRunStats
runPackedTyped(const ExecPlan &plan, const ExecOptions &opts, L0 l0,
               L1 l1, OutAcc outAcc)
{
    constexpr bool intStreams = std::is_same_v<OutAcc, quant::I32Accum>;
    using StreamT = std::conditional_t<intStreams, std::int32_t, float>;
    using StreamLoader = std::conditional_t<intStreams, quant::I32Loader,
                                            quant::FloatLoader>;
    using StreamAccum = std::conditional_t<intStreams, quant::I32Accum,
                                           quant::FloatAccum>;
    std::vector<std::vector<StreamT>> packed;
    for (auto sz : plan.packedSizes())
        packed.emplace_back(static_cast<std::size_t>(sz), StreamT{});

    // Stage A (serial): pack each input's valid software points into
    // its tile stream. Operand pairs: [source, packed destination].
    StreamT *dst0 = packed[0].data();
    StreamT *dst1 = packed[NumInputs - 1].data();
    WalkRunStats packStats = runSweep(
        plan, ExecPlan::Sweep::Pack,
        withArity<2 * NumInputs>([&](const std::int64_t *a) {
            dst0[a[1]] = static_cast<StreamT>(l0.load(a[0]));
            if constexpr (NumInputs == 2)
                dst1[a[3]] = static_cast<StreamT>(l1.load(a[2]));
        }));

    // Stage B (parallel): intrinsic calls purely on packed streams —
    // a plain affine walk over [outer axes][intrinsic counters].
    // Padding slots hold zeros, exactly like the interpreter's sweep.
    // The staging streams are private, so never aliased.
    const AccessWalkPlan &stageB = plan.stageB();
    const std::size_t splitLevels = static_cast<std::size_t>(
        plan.packedSplitLevel() < 0 ? 0 : plan.packedSplitLevel() + 1);
    const StreamLoader p0{packed[0].data()};
    const StreamLoader p1{packed[NumInputs - 1].data()};
    WalkRunStats stats = runAccessWalkParallel(
        stageB, NumInputs, splitLevels, opts.numThreads,
        quant::accumulateBody<NumInputs>(
            p0, p1, StreamAccum{packed.back().data()}, true));

    // Stage C (serial): unpack the output stream back to the
    // software layout. Operands: [packed source, software output].
    const StreamT *psrc = packed.back().data();
    WalkRunStats unpackStats = runSweep(
        plan, ExecPlan::Sweep::Unpack,
        withArity<2>([&](const std::int64_t *a) {
            outAcc.store(a[1], psrc[a[0]]);
        }));
    stats.loweredSweeps =
        packStats.loweredSweeps + unpackStats.loweredSweeps;
    stats.tiledSweeps = packStats.tiledSweeps + unpackStats.tiledSweeps;
    return stats;
}

} // namespace

ExecPlan::ExecPlan(const MappingPlan &plan)
{
    compile(plan);
}

void
ExecPlan::compile(const MappingPlan &plan)
{
    if (!plan.valid()) {
        _reason = "mapping plan failed validation";
        return;
    }
    const auto &comp = plan.computation();
    _semantics = quant::classifyComputation(comp);
    if (!_semantics.supported) {
        _reason = "unsupported dtype semantics: " + _semantics.reason;
        return;
    }
    _combine = comp.combine();
    _numInputs = comp.inputs().size();
    for (const auto &in : comp.inputs()) {
        _inputShapes.push_back(in.decl.shape());
        _operandDtypes.push_back(in.decl.dtype());
    }
    _operandDtypes.push_back(comp.output().dtype());
    _outputShape = comp.output().shape();
    for (const auto &iv : comp.iters())
        _iterExtents.push_back(iv.extent);
    if (_iterExtents.size() > kMaxWalkLevels ||
        _numInputs + 1 > kMaxWalkOperands ||
        2 * _numInputs > kMaxWalkOperands) {
        _reason = "loop nest exceeds the walk engine's limits";
        return;
    }

    for (const auto &axis : plan.outerAxes()) {
        Axis a;
        a.isQuotient =
            axis.kind == MappingPlan::OuterAxis::Kind::GroupQuotient;
        a.ref = axis.ref;
        a.extent = axis.extent;
        _axes.push_back(a);
    }
    for (const auto &g : plan.groups()) {
        Group group;
        group.members = g.members;
        for (auto s : g.members)
            group.extents.push_back(comp.iters()[s].extent);
        group.intrinsicExtent = g.intrinsicExtent;
        group.fusedExtent = g.fusedExtent;
        _groups.push_back(std::move(group));
    }

    if (!compileDirectOperands(plan))
        return;
    if (!compilePackedOperands(plan))
        return;
    for (auto &op : _direct)
        computeGroupAlphas(op);
    for (auto &op : _packed)
        computeGroupAlphas(op);
    _directSplit = computeDirectSplit();
    _packedSplit = pickSplitLevel(_stageB, _stageB.operands.size() - 1,
                                  _axes.size());
}

bool
ExecPlan::compileDirectOperands(const MappingPlan &plan)
{
    const auto &comp = plan.computation();
    const std::size_t S = _iterExtents.size();
    const std::size_t K = _groups.size();
    const std::size_t A = _axes.size();

    auto compileOne = [&](const TensorDecl &decl,
                          const std::vector<Expr> &indices,
                          std::int64_t bufSize) {
        auto analysis = analyzeFlatAccess(indices, decl.strides());
        if (!analysis.ok()) {
            _reason = decl.name() + ": " + analysis.reason;
            return false;
        }
        Operand op;
        op.base = analysis.form->constant();
        op.swCoeff.resize(S);
        op.swRollback.resize(S);
        op.minAddr = op.base;
        op.maxAddr = op.base;
        for (std::size_t s = 0; s < S; ++s) {
            std::int64_t c =
                analysis.form->coeffOf(comp.iters()[s].var.node());
            op.swCoeff[s] = c;
            op.swRollback[s] = c * (_iterExtents[s] - 1);
            if (op.swRollback[s] < 0)
                op.minAddr += op.swRollback[s];
            else
                op.maxAddr += op.swRollback[s];
        }
        op.tStride.assign(K, 0);
        op.outerStride.assign(A, 0);
        if (op.minAddr < 0 || op.maxAddr >= bufSize) {
            _reason = decl.name() + ": address box [" +
                      std::to_string(op.minAddr) + ", " +
                      std::to_string(op.maxAddr) +
                      "] exceeds declared size " +
                      std::to_string(bufSize);
            return false;
        }
        _direct.push_back(std::move(op));
        return true;
    };

    for (const auto &in : comp.inputs())
        if (!compileOne(in.decl, in.indices, in.decl.numElements()))
            return false;
    return compileOne(comp.output(), comp.outputIndices(),
                      comp.output().numElements());
}

bool
ExecPlan::compilePackedOperands(const MappingPlan &plan)
{
    const auto &comp = plan.computation();
    const auto &intr = plan.intrinsic().compute;
    const std::size_t S = _iterExtents.size();
    const std::size_t K = _groups.size();
    const std::size_t A = _axes.size();

    // Software coordinates representing one outer-axis value, all
    // other axes at zero; quotient axes decode q * I into the group's
    // member digits.
    auto applyAxisValue = [&](std::vector<std::int64_t> &sw,
                              std::size_t a, std::int64_t v) {
        const Axis &ax = _axes[a];
        if (!ax.isQuotient) {
            sw[ax.ref] = v;
            return;
        }
        const Group &g = _groups[ax.ref];
        std::int64_t f = v * g.intrinsicExtent;
        for (std::size_t pos = g.members.size(); pos-- > 0;) {
            sw[g.members[pos]] = f % g.extents[pos];
            f /= g.extents[pos];
        }
    };
    VarBinding binding;
    auto evalAt = [&](const Expr &e,
                      const std::vector<std::int64_t> &sw) {
        for (std::size_t s = 0; s < S; ++s)
            binding[comp.iters()[s].var.node()] = sw[s];
        return evalExpr(e, binding);
    };

    for (const auto &op : plan.operands()) {
        Operand p;
        p.tStride.assign(K, 0);
        std::int64_t w = 1;
        for (auto it = op.intrinsicIters.rbegin();
             it != op.intrinsicIters.rend(); ++it) {
            p.tStride[*it] = w;
            w *= intr.iters()[*it].extent;
        }

        // Tile base addresses are linear over the outer axes by
        // construction; recover the per-axis strides by probing and
        // cross-check linearity at the all-max corner.
        std::vector<std::int64_t> sw0(S, 0);
        p.base = evalAt(op.baseAddress, sw0);
        p.outerStride.assign(A, 0);
        for (std::size_t a = 0; a < A; ++a) {
            if (_axes[a].extent < 2)
                continue;
            auto sw = sw0;
            applyAxisValue(sw, a, 1);
            p.outerStride[a] = evalAt(op.baseAddress, sw) - p.base;
        }
        auto corner = sw0;
        std::int64_t predicted = p.base;
        for (std::size_t a = 0; a < A; ++a) {
            if (_axes[a].extent < 2)
                continue;
            applyAxisValue(corner, a, _axes[a].extent - 1);
            predicted += p.outerStride[a] * (_axes[a].extent - 1);
        }
        if (evalAt(op.baseAddress, corner) != predicted) {
            _reason = "tile base address of " + op.name +
                      " is not linear over the outer axes";
            return false;
        }
        _packed.push_back(std::move(p));
        _packedSizes.push_back(op.numTiles * op.tileElems);
    }

    // Stage-B (compute) nest: outer axes then intrinsic counters,
    // purely affine over the packed streams.
    for (std::size_t a = 0; a < A; ++a)
        _stageB.extents.push_back(_axes[a].extent);
    for (std::size_t k = 0; k < K; ++k)
        _stageB.extents.push_back(_groups[k].intrinsicExtent);
    for (const auto &p : _packed) {
        WalkOperand wop;
        wop.base = p.base;
        wop.stride = p.outerStride;
        wop.stride.insert(wop.stride.end(), p.tStride.begin(),
                          p.tStride.end());
        _stageB.operands.push_back(std::move(wop));
    }
    _stageB.finalize();
    for (std::size_t m = 0; m < _packed.size(); ++m) {
        _packed[m].minAddr = _stageB.operands[m].minAddr;
        _packed[m].maxAddr = _stageB.operands[m].maxAddr;
        if (_packed[m].minAddr < 0 ||
            _packed[m].maxAddr >= _packedSizes[m]) {
            _reason = "packed stream of " + plan.operands()[m].name +
                      ": address box [" +
                      std::to_string(_packed[m].minAddr) + ", " +
                      std::to_string(_packed[m].maxAddr) +
                      "] exceeds packed size " +
                      std::to_string(_packedSizes[m]);
            return false;
        }
    }
    return true;
}

/**
 * The one linearity test of a fused group. With digit strides
 * dstr_pos (the product of the extents of later members), the
 * members' contribution sum_pos coeff_pos * digit_pos equals
 * alpha * flat for every in-range flat value iff coeff_pos ==
 * alpha * dstr_pos for every member.
 */
void
ExecPlan::computeGroupAlphas(Operand &op) const
{
    auto coeff = [&](std::size_t s) -> std::int64_t {
        return s < op.swCoeff.size() ? op.swCoeff[s] : 0;
    };
    op.groupAlpha.assign(_groups.size(), 0);
    for (std::size_t k = 0; k < _groups.size(); ++k) {
        const Group &g = _groups[k];
        bool anyNonZero = false;
        for (auto s : g.members)
            anyNonZero = anyNonZero || coeff(s) != 0;
        if (!anyNonZero)
            continue;
        // Digit strides, and whether every flat value below F decodes
        // in range (always true for well-formed plans).
        std::int64_t dstr[kMaxWalkLevels];
        dstr[g.members.size() - 1] = 1;
        std::int64_t prod = 1;
        for (std::size_t pos = g.members.size(); pos-- > 0;) {
            if (pos + 1 < g.members.size())
                dstr[pos] = dstr[pos + 1] * g.extents[pos + 1];
            prod *= g.extents[pos];
        }
        const std::int64_t alpha = coeff(g.members.back());
        bool linear = g.fusedExtent <= prod;
        for (std::size_t pos = 0; linear && pos < g.members.size(); ++pos)
            linear = coeff(g.members[pos]) == alpha * dstr[pos];
        op.groupAlpha[k] =
            linear ? std::optional<std::int64_t>(alpha) : std::nullopt;
    }
}

std::vector<const ExecPlan::Operand *>
ExecPlan::sweepOperands(Sweep sweep) const
{
    std::vector<const Operand *> ops;
    switch (sweep) {
      case Sweep::Direct:
        for (const auto &op : _direct)
            ops.push_back(&op);
        break;
      case Sweep::Pack:
        for (std::size_t m = 0; m < _numInputs; ++m) {
            ops.push_back(&_direct[m]);
            ops.push_back(&_packed[m]);
        }
        break;
      case Sweep::Unpack:
        ops.push_back(&_packed.back());
        ops.push_back(&_direct.back());
        break;
    }
    return ops;
}

/**
 * Lower one mapped sweep to a stride walk over
 * [outer axes][intrinsic counters]. A group with alpha contributes
 * alpha * (q * I + t), so its quotient axis steps by alpha * I and
 * its counter by alpha, on top of the packed-tile strides. The
 * counter of a padded group with a quotient axis is clamped to
 * min(I, F - q * I); without a quotient axis, q is 0 and the extent
 * is min(I, F).
 */
std::optional<AccessWalkPlan>
ExecPlan::lowered(Sweep sweep) const
{
    require(compiled(), "ExecPlan::lowered on an uncompiled plan");
    const std::size_t A = _axes.size();
    const std::size_t K = _groups.size();
    const auto ops = sweepOperands(sweep);
    AccessWalkPlan walk;
    for (const auto &ax : _axes)
        walk.extents.push_back(ax.extent);
    for (std::size_t k = 0; k < K; ++k) {
        const Group &g = _groups[k];
        int quotAxis = -1;
        for (std::size_t a = 0; a < A; ++a)
            if (_axes[a].isQuotient && _axes[a].ref == k)
                quotAxis = static_cast<int>(a);
        if (quotAxis < 0) {
            walk.extents.push_back(
                std::min(g.intrinsicExtent, g.fusedExtent));
            continue;
        }
        walk.extents.push_back(g.intrinsicExtent);
        // The quotient axis has ceil(F / I) values, so only a padded
        // group (F mod I != 0) ever ends a tile early.
        if (g.fusedExtent % g.intrinsicExtent != 0)
            walk.clamps.push_back({A + k,
                                   static_cast<std::size_t>(quotAxis),
                                   g.intrinsicExtent, g.fusedExtent});
    }
    for (const Operand *op : ops) {
        for (const auto &alpha : op->groupAlpha)
            if (!alpha)
                return std::nullopt;
        WalkOperand w;
        w.base = op->base;
        for (std::size_t a = 0; a < A; ++a) {
            const Axis &ax = _axes[a];
            std::int64_t s =
                a < op->outerStride.size() ? op->outerStride[a] : 0;
            if (!ax.isQuotient)
                s += ax.ref < op->swCoeff.size() ? op->swCoeff[ax.ref]
                                                 : 0;
            else
                s += *op->groupAlpha[ax.ref] *
                     _groups[ax.ref].intrinsicExtent;
            w.stride.push_back(s);
        }
        for (std::size_t k = 0; k < K; ++k)
            w.stride.push_back(*op->groupAlpha[k] +
                               (k < op->tStride.size() ? op->tStride[k]
                                                       : 0));
        walk.operands.push_back(std::move(w));
    }
    walk.finalize();
    return walk;
}

std::vector<std::vector<std::int64_t>>
ExecPlan::sweepAddresses(Sweep sweep, bool tiled, int restrictAxis,
                         std::int64_t lo, std::int64_t hi) const
{
    require(compiled(), "ExecPlan::sweepAddresses on an uncompiled plan");
    const auto ops = sweepOperands(sweep);
    std::vector<std::vector<std::int64_t>> visited;
    auto record = [&](const std::int64_t *a) {
        visited.emplace_back(a, a + ops.size());
    };
    const auto walk = tiled ? std::nullopt : lowered(sweep);
    if (walk)
        runAccessWalkRange(*walk, restrictAxis, lo, hi, record);
    else
        runMappedWalkRange(_iterExtents, _axes, _groups, ops.data(),
                           ops.size(), restrictAxis, lo, hi, record);
    return visited;
}

/**
 * Find an outer axis whose values write provably disjoint output
 * elements, so the direct sweep can split it across threads.
 *
 * For an unmapped axis the output address moves by coeff_s per step;
 * for a quotient axis it moves by alpha * I per step, provided the
 * group is linear for the output (groupAlpha). Either way,
 * consecutive axis values stay disjoint iff the per-unit step
 * |alpha| exceeds the combined span of every iterator outside the
 * axis.
 */
int
ExecPlan::computeDirectSplit() const
{
    const Operand &out = _direct.back();
    std::int64_t total = 0;
    for (std::size_t s = 0; s < _iterExtents.size(); ++s)
        total += std::abs(out.swCoeff[s]) * (_iterExtents[s] - 1);

    for (std::size_t a = 0; a < _axes.size(); ++a) {
        const Axis &ax = _axes[a];
        if (ax.extent < 2)
            continue;
        std::int64_t alpha = 0;
        std::int64_t spanM = 0;
        if (!ax.isQuotient) {
            alpha = out.swCoeff[ax.ref];
            spanM = std::abs(alpha) * (_iterExtents[ax.ref] - 1);
        } else {
            const Group &g = _groups[ax.ref];
            if (!out.groupAlpha[ax.ref])
                continue;
            alpha = *out.groupAlpha[ax.ref];
            for (std::size_t pos = 0; pos < g.members.size(); ++pos)
                spanM += std::abs(out.swCoeff[g.members[pos]]) *
                         (g.extents[pos] - 1);
        }
        if (alpha != 0 && std::abs(alpha) > total - spanM)
            return static_cast<int>(a);
    }
    return -1;
}

bool
ExecPlan::buffersMatch(const std::vector<const Buffer *> &inputs,
                       const Buffer &output, std::string *why) const
{
    if (inputs.size() != _numInputs) {
        if (why)
            *why = "input count mismatch";
        return false;
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i]->decl().shape() != _inputShapes[i]) {
            if (why)
                *why = "input " + std::to_string(i) +
                       " shape differs from the declared shape";
            return false;
        }
        if (inputs[i]->storage() !=
            dtypeStorageLane(_operandDtypes[i])) {
            if (why)
                *why = "input " + std::to_string(i) +
                       " storage lane differs from the declared dtype";
            return false;
        }
    }
    if (output.decl().shape() != _outputShape) {
        if (why)
            *why = "output shape differs from the declared shape";
        return false;
    }
    if (output.storage() != dtypeStorageLane(_operandDtypes.back())) {
        if (why)
            *why = "output storage lane differs from the declared "
                   "dtype";
        return false;
    }
    return true;
}

WalkRunStats
ExecPlan::runDirect(const std::vector<const Buffer *> &inputs,
                    Buffer &output, const ExecOptions &opts) const
{
    require(compiled(), "ExecPlan::runDirect on an uncompiled plan: ",
            _reason);
    std::string why;
    require(buffersMatch(inputs, output, &why),
            "ExecPlan::runDirect: ", why);

    // The walk generates addresses; loaders/accumulator carry the
    // numeric discipline (float MAC, exact int32 dot, bf16 widening).
    WalkRunStats stats;
    const bool inRegister = !outputAliasesInput(output, inputs);
    switch (_combine) {
      case CombineKind::MultiplyAdd:
        quant::dispatchMulAdd(
            _semantics, *inputs[0], *inputs[1], output,
            [&](auto l0, auto l1, auto acc) {
                stats = runDirectSweep(
                    *this, _directSplit, opts.numThreads,
                    quant::accumulateBody<2>(l0, l1, acc, inRegister));
            });
        break;
      case CombineKind::SumReduce:
        quant::dispatchSum(
            _semantics, *inputs[0], output, [&](auto l0, auto acc) {
                stats = runDirectSweep(
                    *this, _directSplit, opts.numThreads,
                    quant::accumulateBody<1>(l0, l0, acc, inRegister));
            });
        break;
    }
    return stats;
}

WalkRunStats
ExecPlan::runPacked(const std::vector<const Buffer *> &inputs,
                    Buffer &output, const ExecOptions &opts) const
{
    require(compiled(), "ExecPlan::runPacked on an uncompiled plan: ",
            _reason);
    std::string why;
    require(buffersMatch(inputs, output, &why),
            "ExecPlan::runPacked: ", why);

    WalkRunStats stats;
    switch (_combine) {
      case CombineKind::MultiplyAdd:
        quant::dispatchMulAdd(
            _semantics, *inputs[0], *inputs[1], output,
            [&](auto l0, auto l1, auto acc) {
                stats = runPackedTyped<2>(*this, opts, l0, l1, acc);
            });
        break;
      case CombineKind::SumReduce:
        quant::dispatchSum(_semantics, *inputs[0], output,
                           [&](auto l0, auto acc) {
                               stats = runPackedTyped<1>(*this, opts, l0,
                                                         l0, acc);
                           });
        break;
    }
    return stats;
}

} // namespace amos
