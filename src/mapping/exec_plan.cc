#include "exec_plan.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "ir/affine.hh"
#include "quant/typed_exec.hh"
#include "support/logging.hh"

namespace amos {

namespace {

/** One serial mapped sweep (pack, unpack) on its lowered walk. */
template <typename Body>
WalkRunStats
runSweep(const ExecPlan &plan, ExecPlan::Sweep sweep, Body &&body)
{
    runAccessWalk(plan.lowered(sweep), body);
    WalkRunStats stats;
    stats.loweredSweeps = 1;
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
        op.minAddr = op.base;
        op.maxAddr = op.base;
        for (std::size_t s = 0; s < S; ++s) {
            std::int64_t c =
                analysis.form->coeffOf(comp.iters()[s].var.node());
            op.swCoeff[s] = c;
            const std::int64_t span = c * (_iterExtents[s] - 1);
            if (span < 0)
                op.minAddr += span;
            else
                op.maxAddr += span;
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
 * [outer axes][intrinsic counters]. A group that every operand sees
 * linearly (alpha) contributes alpha * (q * I + t), so its quotient
 * axis steps by alpha * I and its counter by alpha, on top of the
 * packed-tile strides. Any other group becomes a carry level: the
 * members' coefficients of each operand without an alpha go to the
 * carry's digits, and that operand's quotient-axis and counter
 * strides keep only the packed-tile parts. The counter of a padded group with a quotient axis is
 * clamped to min(I, F - q * I); without a quotient axis, q is 0 and
 * the extent is min(I, F).
 */
AccessWalkPlan
ExecPlan::lowered(Sweep sweep) const
{
    require(compiled(), "ExecPlan::lowered on an uncompiled plan");
    const std::size_t A = _axes.size();
    const std::size_t K = _groups.size();
    const auto ops = sweepOperands(sweep);
    auto swCoeff = [](const Operand *op, std::size_t s) -> std::int64_t {
        return s < op->swCoeff.size() ? op->swCoeff[s] : 0;
    };
    std::vector<bool> carried(K, false);
    for (const Operand *op : ops)
        for (std::size_t k = 0; k < K; ++k)
            carried[k] = carried[k] || !op->groupAlpha[k];

    AccessWalkPlan walk;
    for (const auto &ax : _axes)
        walk.extents.push_back(ax.extent);
    for (std::size_t k = 0; k < K; ++k) {
        const Group &g = _groups[k];
        int quotAxis = -1;
        for (std::size_t a = 0; a < A; ++a)
            if (_axes[a].isQuotient && _axes[a].ref == k)
                quotAxis = static_cast<int>(a);
        if (carried[k]) {
            WalkCarry c;
            c.level = A + k;
            c.quotientLevel = quotAxis;
            c.tile = g.intrinsicExtent;
            c.radix = g.extents;
            for (const Operand *op : ops) {
                c.coeff.emplace_back();
                for (auto s : g.members)
                    c.coeff.back().push_back(
                        op->groupAlpha[k] ? 0 : swCoeff(op, s));
            }
            walk.carries.push_back(std::move(c));
        }
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
        auto alphaOf = [&](std::size_t k) -> std::int64_t {
            return op->groupAlpha[k].value_or(0);
        };
        WalkOperand w;
        w.base = op->base;
        for (std::size_t a = 0; a < A; ++a) {
            const Axis &ax = _axes[a];
            std::int64_t s =
                a < op->outerStride.size() ? op->outerStride[a] : 0;
            if (!ax.isQuotient)
                s += swCoeff(op, ax.ref);
            else
                s += alphaOf(ax.ref) * _groups[ax.ref].intrinsicExtent;
            w.stride.push_back(s);
        }
        for (std::size_t k = 0; k < K; ++k)
            w.stride.push_back(alphaOf(k) + (k < op->tStride.size()
                                                 ? op->tStride[k]
                                                 : 0));
        walk.operands.push_back(std::move(w));
    }
    walk.finalize();
    return walk;
}

std::vector<std::vector<std::int64_t>>
ExecPlan::sweepAddresses(Sweep sweep, int restrictAxis, std::int64_t lo,
                         std::int64_t hi) const
{
    require(compiled(), "ExecPlan::sweepAddresses on an uncompiled plan");
    const AccessWalkPlan walk = lowered(sweep);
    std::vector<std::vector<std::int64_t>> visited;
    runAccessWalkRange(walk, restrictAxis, lo, hi,
                       [&](const std::int64_t *a) {
                           visited.emplace_back(
                               a, a + walk.operands.size());
                       });
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
    const AccessWalkPlan walk = lowered(Sweep::Direct);
    switch (_combine) {
      case CombineKind::MultiplyAdd:
        quant::dispatchMulAdd(
            _semantics, *inputs[0], *inputs[1], output,
            [&](auto l0, auto l1, auto acc) {
                stats = runAccessWalkSplit(
                    walk, _directSplit, opts.numThreads,
                    quant::accumulateBody<2>(l0, l1, acc, inRegister));
            });
        break;
      case CombineKind::SumReduce:
        quant::dispatchSum(
            _semantics, *inputs[0], output, [&](auto l0, auto acc) {
                stats = runAccessWalkSplit(
                    walk, _directSplit, opts.numThreads,
                    quant::accumulateBody<1>(l0, l0, acc, inRegister));
            });
        break;
    }
    stats.loweredSweeps = 1;
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
