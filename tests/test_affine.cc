/**
 * @file
 * Unit tests for the affine access-plan compiler: stride extraction
 * goldens, non-affine diagnosis, rollback math, split-level
 * selection, and the stride-walk engine's bit-identity with the
 * scalar interpreters.
 */

#include <gtest/gtest.h>

#include "ir/affine.hh"
#include "isa/intrinsics.hh"
#include "mapping/exec_plan.hh"
#include "mapping/execute.hh"
#include "mapping/generate.hh"
#include "ops/config_suite.hh"
#include "ops/operators.hh"
#include "support/metrics.hh"
#include "tensor/access_walk.hh"
#include "tensor/reference.hh"

namespace amos {
namespace {

TEST(Affine, AnalyzeExtractsCoefficients)
{
    Var i("i"), j("j");
    auto analysis = analyzeAffine(i * 3 + j + 5);
    ASSERT_TRUE(analysis.ok());
    EXPECT_TRUE(analysis.reason.empty());
    EXPECT_EQ(analysis.form->coeffOf(i.node()), 3);
    EXPECT_EQ(analysis.form->coeffOf(j.node()), 1);
    EXPECT_EQ(analysis.form->constant(), 5);
}

TEST(Affine, AnalyzeDiagnosesFloorDiv)
{
    Var i("i");
    auto analysis = analyzeAffine(floorDiv(i, 2));
    ASSERT_FALSE(analysis.ok());
    EXPECT_NE(analysis.reason.find("FloorDiv"), std::string::npos)
        << analysis.reason;
    EXPECT_NE(analysis.reason.find("not affine"), std::string::npos)
        << analysis.reason;
}

TEST(Affine, AnalyzeDiagnosesVariableProduct)
{
    Var i("i"), j("j");
    auto analysis = analyzeAffine(i * j + 1);
    ASSERT_FALSE(analysis.ok());
    EXPECT_NE(analysis.reason.find("product"), std::string::npos)
        << analysis.reason;
}

TEST(Affine, FlatAccessFoldsStrides)
{
    // A GEMM-style access A[i + 2, k + 1] on a [5, 7] tensor:
    // flat = (i + 2) * 7 + (k + 1) = 7 i + k + 15.
    Var i("i"), k("k");
    auto analysis =
        analyzeFlatAccess({i + 2, k + 1}, {7, 1});
    ASSERT_TRUE(analysis.ok());
    EXPECT_EQ(analysis.form->coeffOf(i.node()), 7);
    EXPECT_EQ(analysis.form->coeffOf(k.node()), 1);
    EXPECT_EQ(analysis.form->constant(), 15);
}

TEST(Affine, FlatAccessNamesOffendingDimension)
{
    Var i("i"), k("k");
    auto analysis =
        analyzeFlatAccess({i, floorDiv(k, 2)}, {7, 1});
    ASSERT_FALSE(analysis.ok());
    EXPECT_NE(analysis.reason.find("index dim 1"), std::string::npos)
        << analysis.reason;
}

TEST(Walk, FinalizeComputesRollbacksAndAddressBox)
{
    AccessWalkPlan plan;
    plan.extents = {3, 2, 4};
    WalkOperand op;
    op.base = 5;
    op.stride = {8, -4, 1};
    plan.operands.push_back(op);
    plan.finalize();

    const WalkOperand &f = plan.operands[0];
    EXPECT_EQ(f.rollback, (std::vector<std::int64_t>{16, -4, 3}));
    // min: base + negative spans; max: base + positive spans.
    EXPECT_EQ(f.minAddr, 5 - 4);
    EXPECT_EQ(f.maxAddr, 5 + 16 + 3);
    EXPECT_EQ(plan.totalSteps(), 24);
}

TEST(Walk, CompileReferenceWalkGemmGoldens)
{
    // gemm iterators (i, j, k); A[i,k] on [3,7], B[k,j] on [7,5],
    // out[i,j] on [3,5].
    auto gemm = ops::makeGemm(3, 5, 7);
    std::string reason;
    auto plan = compileReferenceWalk(gemm, &reason);
    ASSERT_TRUE(plan.has_value()) << reason;
    ASSERT_EQ(plan->operands.size(), 3u);
    EXPECT_EQ(plan->extents, (std::vector<std::int64_t>{3, 5, 7}));
    EXPECT_EQ(plan->operands[0].stride,
              (std::vector<std::int64_t>{7, 0, 1})); // A
    EXPECT_EQ(plan->operands[1].stride,
              (std::vector<std::int64_t>{0, 1, 5})); // B
    EXPECT_EQ(plan->operands[2].stride,
              (std::vector<std::int64_t>{5, 1, 0})); // out
}

TEST(Walk, ReferenceWalkVisitsInterpreterAddressOrder)
{
    // The stride walk must produce exactly the address sequence the
    // interpreter derives via per-element expression evaluation, in
    // the same order.
    auto conv = ops::makeConv1d(2, 3, 4, 5, 3);
    auto plan = compileReferenceWalk(conv);
    ASSERT_TRUE(plan.has_value());

    std::vector<std::vector<std::int64_t>> walked;
    runAccessWalk(*plan, [&](const std::int64_t *a) {
        walked.push_back({a[0], a[1], a[2]});
    });

    std::vector<std::vector<std::int64_t>> interpreted;
    std::vector<std::int64_t> extents;
    for (const auto &iv : conv.iters())
        extents.push_back(iv.extent);
    VarBinding binding;
    forEachIndexDelta(extents, [&](const std::vector<std::int64_t>
                                       &idx,
                                   std::size_t dirty) {
        for (std::size_t s = dirty; s < conv.iters().size(); ++s)
            binding[conv.iters()[s].var.node()] = idx[s];
        auto flatOf = [&](const TensorDecl &decl,
                          const std::vector<Expr> &indices) {
            auto strides = decl.strides();
            std::int64_t flat = 0;
            for (std::size_t d = 0; d < indices.size(); ++d)
                flat += strides[d] * evalExpr(indices[d], binding);
            return flat;
        };
        interpreted.push_back(
            {flatOf(conv.inputs()[0].decl, conv.inputs()[0].indices),
             flatOf(conv.inputs()[1].decl, conv.inputs()[1].indices),
             flatOf(conv.output(), conv.outputIndices())});
    });

    EXPECT_EQ(walked, interpreted);
}

/** Every address tuple a walk visits, in order. */
std::vector<std::vector<std::int64_t>>
walkedTuples(const AccessWalkPlan &plan, int restrictLevel = -1,
             std::int64_t lo = 0, std::int64_t hi = 0)
{
    std::vector<std::vector<std::int64_t>> out;
    runAccessWalkRange(plan, restrictLevel, lo, hi,
                       [&](const std::int64_t *a) {
                           out.emplace_back(a, a + plan.operands.size());
                       });
    return out;
}

TEST(Walk, ClampedLevelStopsAtTheFusedExtent)
{
    // [q:3][t:2] with F = 5, I = 2: the last tile holds one valid
    // counter value. The single operand's address is the fused flat
    // value q * 2 + t, so the walk must yield 0..4 exactly once each.
    AccessWalkPlan plan;
    plan.extents = {3, 2};
    WalkOperand flat;
    flat.stride = {2, 1};
    plan.operands.push_back(flat);
    plan.clamps.push_back({1, 0, 2, 5});
    plan.finalize();
    EXPECT_EQ(walkedTuples(plan),
              (std::vector<std::vector<std::int64_t>>{
                  {0}, {1}, {2}, {3}, {4}}));
    // A quotient range that starts mid-axis keeps the absolute q, so
    // the clamped tail still ends at F.
    EXPECT_EQ(walkedTuples(plan, 0, 1, 3),
              (std::vector<std::vector<std::int64_t>>{{2}, {3}, {4}}));
    EXPECT_EQ(pickSplitLevel(plan, 0, 2), 0);
}

TEST(Walk, EmptyClampSkipsItsSubtree)
{
    // [q:3][x:2][t:2][u:2] with t clamped to min(2, 4 - 2q): every
    // q = 2 tile is pure padding and must be skipped whole, and the
    // odometer must resume at the next q without stale rollbacks.
    // Operand 0 encodes the full index tuple; operand 1 is constant.
    // Here t sits in the walker's inner block.
    AccessWalkPlan plan;
    plan.extents = {3, 2, 2, 2};
    WalkOperand tuple, constant;
    tuple.base = 7;
    tuple.stride = {1000, 100, 10, 1};
    constant.base = 5;
    constant.stride = {0, 0, 0, 0};
    plan.operands = {tuple, constant};
    plan.clamps.push_back({2, 0, 2, 4});
    plan.finalize();

    std::vector<std::vector<std::int64_t>> expected;
    for (std::int64_t q = 0; q < 3; ++q)
        for (std::int64_t x = 0; x < 2; ++x)
            for (std::int64_t t = 0; t < std::min<std::int64_t>(
                                         2, 4 - 2 * q);
                 ++t)
                for (std::int64_t u = 0; u < 2; ++u)
                    expected.push_back(
                        {7 + 1000 * q + 100 * x + 10 * t + u, 5});
    EXPECT_EQ(walkedTuples(plan), expected);
    EXPECT_EQ(expected.size(), 16u);

    // The same clamp on an odometer level (the three trailing levels
    // are the inner block): [q:3][t:2][x:2][y:2][u:2], t clamped on q.
    plan.extents = {3, 2, 2, 2, 2};
    plan.clamps = {{1, 0, 2, 3}};
    plan.operands[0].stride = {10000, 1000, 100, 10, 1};
    plan.operands[1].stride = {0, 0, 0, 0, 0};
    plan.finalize();
    expected.clear();
    for (std::int64_t q = 0; q < 3; ++q)
        for (std::int64_t t = 0;
             t < std::min<std::int64_t>(2, 3 - 2 * q); ++t)
            for (std::int64_t x = 0; x < 2; ++x)
                for (std::int64_t y = 0; y < 2; ++y)
                    for (std::int64_t u = 0; u < 2; ++u)
                        expected.push_back({7 + 10000 * q + 1000 * t +
                                                100 * x + 10 * y + u,
                                            5});
    EXPECT_EQ(walkedTuples(plan), expected);
    EXPECT_EQ(expected.size(), 24u);
}

/**
 * Brute-force tuples of a walk plan: every index tuple in
 * lexicographic order, clamped levels cut at min(extent,
 * limit - q * tile), carry digits decoded from f = q * tile + t with
 * % and /.
 */
std::vector<std::vector<std::int64_t>>
bruteForceTuples(const AccessWalkPlan &plan, int restrictLevel = -1,
                 std::int64_t lo = 0, std::int64_t hi = 0)
{
    std::vector<std::int64_t> extents = plan.extents;
    if (restrictLevel >= 0)
        extents[static_cast<std::size_t>(restrictLevel)] = hi - lo;
    std::vector<std::vector<std::int64_t>> out;
    forEachIndexDelta(extents, [&](const std::vector<std::int64_t> &rel,
                                   std::size_t) {
        std::vector<std::int64_t> idx = rel;
        if (restrictLevel >= 0)
            idx[static_cast<std::size_t>(restrictLevel)] += lo;
        for (const auto &c : plan.clamps)
            if (idx[c.level] >= c.limit - idx[c.quotientLevel] * c.tile)
                return;
        std::vector<std::int64_t> addr;
        for (std::size_t m = 0; m < plan.operands.size(); ++m) {
            std::int64_t a = plan.operands[m].base;
            for (std::size_t l = 0; l < idx.size(); ++l)
                a += plan.operands[m].stride[l] * idx[l];
            for (const auto &c : plan.carries) {
                const std::int64_t q =
                    c.quotientLevel < 0
                        ? 0
                        : idx[static_cast<std::size_t>(c.quotientLevel)];
                std::int64_t f = q * c.tile + idx[c.level];
                for (std::size_t p = c.radix.size(); p-- > 0;) {
                    a += c.coeff[m][p] * (f % c.radix[p]);
                    f /= c.radix[p];
                }
            }
            addr.push_back(a);
        }
        out.push_back(std::move(addr));
    });
    return out;
}

/** A body taking innermost runs whole, recording each element. */
struct RunRecorder
{
    std::size_t nops;
    std::vector<std::vector<std::int64_t>> *out;
    void operator()(const std::int64_t *a) const
    {
        out->emplace_back(a, a + nops);
    }
    void run(const std::int64_t *a, const std::int64_t *step,
             std::int64_t n) const
    {
        for (std::int64_t i = 0; i < n; ++i) {
            out->emplace_back();
            for (std::size_t m = 0; m < nops; ++m)
                out->back().push_back(a[m] + i * step[m]);
        }
    }
};

TEST(Walk, CarryLevelsStepTheMixedRadixDigits)
{
    // A fused group of two digits (radix 3, 3: F = 9) under an
    // intrinsic extent I = 4, walked as a carry level: innermost with
    // a quotient and a clamped tail, on an odometer level above an
    // inner plain level, and without a quotient. Per-element and
    // whole-run bodies must both visit the brute-force tuples, over
    // the full nest and over restricted ranges of the other levels.
    auto carryOf = [](std::size_t level, int quotient,
                      std::vector<std::vector<std::int64_t>> coeff) {
        WalkCarry c;
        c.level = level;
        c.quotientLevel = quotient;
        c.tile = 4;
        c.radix = {3, 3};
        c.coeff = std::move(coeff);
        return c;
    };
    std::vector<AccessWalkPlan> plans(3);
    // [q:3][x:2][t:4], t carried and clamped on q.
    plans[0].extents = {3, 2, 4};
    plans[0].operands.resize(3);
    plans[0].operands[0].base = 7;
    plans[0].operands[0].stride = {10000, 1000, 0};
    plans[0].operands[1].stride = {16, 0, 1}; // a packed-tile stream
    plans[0].operands[2].stride = {0, 5, 0};
    plans[0].clamps = {{2, 0, 4, 9}};
    plans[0].carries = {carryOf(2, 0, {{10, 1}, {0, 0}, {2, -1}})};
    // [q:3][t:4][u:2], the carry on an odometer level.
    plans[1].extents = {3, 4, 2};
    plans[1].operands.resize(2);
    plans[1].operands[0].stride = {1000, 0, 1};
    plans[1].operands[1].stride = {0, 3, 0};
    plans[1].clamps = {{1, 0, 4, 9}};
    plans[1].carries = {carryOf(1, 0, {{100, 10}, {-7, 2}})};
    // [x:2][t:4] with no quotient: f = t < min(I, F).
    plans[2].extents = {2, 4};
    plans[2].operands.resize(2);
    plans[2].operands[0].stride = {100, 0};
    plans[2].operands[1].stride = {0, 1};
    plans[2].carries = {carryOf(1, -1, {{10, 1}, {0, 0}})};

    for (std::size_t i = 0; i < plans.size(); ++i) {
        SCOPED_TRACE("plan " + std::to_string(i));
        AccessWalkPlan &plan = plans[i];
        plan.finalize();
        auto check = [&](int level, std::int64_t lo, std::int64_t hi) {
            const auto expected = bruteForceTuples(plan, level, lo, hi);
            EXPECT_EQ(walkedTuples(plan, level, lo, hi), expected)
                << "level " << level << " [" << lo << ", " << hi << ")";
            std::vector<std::vector<std::int64_t>> runs;
            runAccessWalkRange(plan, level, lo, hi,
                               RunRecorder{plan.operands.size(), &runs});
            EXPECT_EQ(runs, expected);
        };
        check(-1, 0, 0);
        EXPECT_FALSE(bruteForceTuples(plan).empty());
        for (std::size_t l = 0; l < plan.extents.size(); ++l) {
            if (plan.clamped(l) || plan.carryAt(l))
                continue;
            const int level = static_cast<int>(l);
            for (std::int64_t mid = 0; mid <= plan.extents[l]; ++mid) {
                check(level, 0, mid);
                check(level, mid, plan.extents[l]);
            }
        }
    }
    // The carry's digits widen the address box: op 2 of plan 0 spans
    // 2 * d0 - d1 over d0, d1 in [0, 2] plus 5 * x.
    EXPECT_EQ(plans[0].operands[2].minAddr, -2);
    EXPECT_EQ(plans[0].operands[2].maxAddr, 4 + 5);
    // Carry levels and their quotient levels are never split: q's
    // stride on op 0 would dominate, but q also moves the digits.
    EXPECT_EQ(pickSplitLevel(plans[0], 0, 3), -1);
    // Without a quotient, an outer level's step must dominate the
    // digits' span too: 100 > 10 * 2 + 1 * 2.
    EXPECT_EQ(pickSplitLevel(plans[2], 0, 2), 0);
}

TEST(Walk, EveryArityVisitsTheSameTuples)
{
    // Operand counts 1..6 dispatch to arities 2, 3, 4 and 6; the
    // walked tuples must not depend on the instantiation.
    for (std::size_t nops = 1; nops <= kMaxWalkOperands; ++nops) {
        AccessWalkPlan plan;
        plan.extents = {2, 3, 2};
        std::vector<std::vector<std::int64_t>> expected;
        for (std::size_t m = 0; m < nops; ++m) {
            WalkOperand op;
            op.base = static_cast<std::int64_t>(m);
            op.stride = {static_cast<std::int64_t>(m + 1) * 100,
                         static_cast<std::int64_t>(m + 1) * 10,
                         static_cast<std::int64_t>(m + 1)};
            plan.operands.push_back(op);
        }
        plan.finalize();
        for (std::int64_t i = 0; i < 2; ++i)
            for (std::int64_t j = 0; j < 3; ++j)
                for (std::int64_t k = 0; k < 2; ++k) {
                    std::vector<std::int64_t> tuple;
                    for (std::size_t m = 0; m < nops; ++m) {
                        const auto &st = plan.operands[m].stride;
                        tuple.push_back(plan.operands[m].base +
                                        st[0] * i + st[1] * j +
                                        st[2] * k);
                    }
                    expected.push_back(tuple);
                }
        EXPECT_EQ(walkedTuples(plan), expected) << nops << " operands";
    }
}

TEST(Walk, PickSplitLevelFindsDominantLevel)
{
    // Output of a GEMM over (m=4, n=5, k=3): strides (5, 1, 0).
    // Level 0's step (5) dominates the span of all other levels (4),
    // so distinct m values touch disjoint output addresses.
    AccessWalkPlan plan;
    plan.extents = {4, 5, 3};
    WalkOperand out;
    out.stride = {5, 1, 0};
    plan.operands.push_back(out);
    plan.finalize();
    EXPECT_EQ(pickSplitLevel(plan, 0, 3), 0);
    // Restricting the search below level 0 leaves nothing: n's step
    // of 1 does not dominate, k has stride 0.
    EXPECT_EQ(pickSplitLevel(plan, 0, 0), -1);
}

TEST(Walk, PickSplitLevelReportsUnsplittable)
{
    // out[i + j] style access: both levels step by 1, neither
    // dominates — the sweep must stay serial.
    AccessWalkPlan plan;
    plan.extents = {4, 4};
    WalkOperand out;
    out.stride = {1, 1};
    plan.operands.push_back(out);
    plan.finalize();
    EXPECT_EQ(pickSplitLevel(plan, 0, 2), -1);
}

TEST(Walk, ReferenceCompiledMatchesInterpreterExactly)
{
    for (auto &comp :
         {ops::makeGemm(6, 5, 4), ops::makeConv1d(2, 3, 4, 5, 3),
          ops::makeMean(5, 6)}) {
        auto inputs = makePatternInputs(comp, 11);
        std::vector<const Buffer *> ptrs;
        for (const auto &b : inputs)
            ptrs.push_back(&b);

        ExecOptions interp;
        interp.forceInterpreter = true;
        Buffer a(comp.output()), b(comp.output());
        referenceExecute(comp, ptrs, a, interp);
        referenceExecute(comp, ptrs, b, ExecOptions{});
        EXPECT_EQ(a.maxAbsDiff(b), 0.0f) << comp.name();

        for (int threads : {2, 3, 4}) {
            ExecOptions par;
            par.numThreads = threads;
            Buffer c(comp.output());
            referenceExecute(comp, ptrs, c, par);
            EXPECT_EQ(a.maxAbsDiff(c), 0.0f)
                << comp.name() << " at " << threads << " threads";
        }
    }
}

TEST(Walk, NonAffineAccessFallsBackAndStaysExact)
{
    // The constructor rejects non-affine accesses, so force one via
    // the fuzz hook; the compiled path must refuse it (with the
    // exec.fallback metric) and the interpreter must take over
    // without changing results.
    auto gemm = ops::makeGemm(4, 6, 4);
    auto mutated = gemm.withMutatedInputIndex(
        0, 0, floorDiv(Expr(gemm.iters()[0].var), 2));

    std::string reason;
    EXPECT_FALSE(compileReferenceWalk(mutated, &reason).has_value());
    EXPECT_NE(reason.find("FloorDiv"), std::string::npos) << reason;

    auto inputs = makePatternInputs(mutated, 3);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    auto &fallback =
        MetricsRegistry::global().counter("exec.fallback");
    std::uint64_t before = fallback.value();

    ExecOptions interp;
    interp.forceInterpreter = true;
    Buffer a(mutated.output()), b(mutated.output());
    referenceExecute(mutated, ptrs, a, interp);
    referenceExecute(mutated, ptrs, b, ExecOptions{});
    EXPECT_EQ(a.maxAbsDiff(b), 0.0f);
    EXPECT_EQ(fallback.value(), before + 1);
}

TEST(Walk, InPlaceOutputKeepsTheInterpreterOrder)
{
    // An output that is also an input: every partial sum must reach
    // memory before the next load, as in the interpreter, so the
    // walk must not hold the accumulator in a register. Covers the
    // reference nest and the lowered mapped direct sweep.
    auto gemm = ops::makeGemm(4, 4, 4);
    auto inputs = makePatternInputs(gemm, 5);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_FALSE(plans.empty());
    ASSERT_TRUE(
        ExecPlan(plans[0]).lowered(ExecPlan::Sweep::Direct).carries.empty());
    ExecOptions interp;
    interp.engine = ExecEngine::Interpreter;
    ExecOptions walk;
    walk.engine = ExecEngine::Walk;
    auto inPlace = [&](const ExecOptions &opts, bool mapped) {
        Buffer x = inputs[0];
        std::vector<const Buffer *> ptrs = {&x, &inputs[1]};
        if (mapped)
            executeMappedDirect(plans[0], ptrs, x, opts);
        else
            referenceExecute(gemm, ptrs, x, opts);
        return x;
    };
    for (bool mapped : {false, true})
        EXPECT_EQ(inPlace(interp, mapped).maxAbsDiff(inPlace(walk, mapped)),
                  0.0f)
            << (mapped ? "mapped direct" : "reference");

    // The aliasing must actually change the result for this to bite.
    Buffer separate = inputs[0];
    referenceExecute(gemm, {&inputs[0], &inputs[1]}, separate, interp);
    EXPECT_NE(inPlace(interp, false).maxAbsDiff(separate), 0.0f);
}

TEST(ExecPlan, CompilesGemmAndRunsBitIdentical)
{
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);

    ExecPlan ep(plans[0]);
    ASSERT_TRUE(ep.compiled()) << ep.fallbackReason();
    EXPECT_EQ(ep.directOperands().size(), 3u);
    for (int threads : {1, 2, 4})
        EXPECT_EQ(compiledVsInterpreterError(plans[0], 7, threads),
                  0.0f)
            << threads << " threads";
}

/** Small instances of operators with padded, empty and fused groups. */
std::vector<TensorComputation>
sweepCorpus()
{
    ops::ConvParams pr;
    pr.batch = 2;
    pr.in_channels = 2;
    pr.out_channels = 4;
    pr.out_h = 3;
    pr.out_w = 3;
    pr.kernel_h = 2;
    pr.kernel_w = 2;
    // A 1x1 convolution reads its input at (p, q) with coefficients
    // (Q, 1), so fusing the output rows and columns stays linear.
    ops::ConvParams pointwise = pr;
    pointwise.kernel_h = 1;
    pointwise.kernel_w = 1;
    return {ops::makeGemm(5, 6, 7),         ops::makeGemv(5, 7),
            ops::makeConv1d(2, 3, 4, 5, 3), ops::makeConv2d(pr),
            ops::makeConv2d(pointwise),     ops::makeBatchedConv2d(pr),
            ops::makeGroupedFC(2, 3, 4, 5), ops::makeMean(5, 6),
            ops::makeScan(3, 5)};
}

/**
 * Brute-force address oracle of one mapped sweep: every (axes,
 * counters) tuple in lexicographic order, with `restrictAxis`
 * confined to [lo, hi); each group's fused value q * I + t decoded
 * into member digits with % and /, and padding tuples (f >= F)
 * skipped.
 */
std::vector<std::vector<std::int64_t>>
oracleAddresses(const ExecPlan &ep, ExecPlan::Sweep sweep,
                int restrictAxis = -1, std::int64_t lo = 0,
                std::int64_t hi = 0)
{
    const auto ops = ep.sweepOperands(sweep);
    const auto &axes = ep.axes();
    const auto &groups = ep.groups();
    const std::size_t A = axes.size();
    auto at = [](const std::vector<std::int64_t> &v, std::size_t i) {
        return i < v.size() ? v[i] : std::int64_t{0};
    };
    std::vector<std::int64_t> extents;
    for (std::size_t a = 0; a < A; ++a)
        extents.push_back(static_cast<int>(a) == restrictAxis
                              ? hi - lo
                              : axes[a].extent);
    for (const auto &g : groups)
        extents.push_back(g.intrinsicExtent);
    std::vector<std::vector<std::int64_t>> out;
    forEachIndexDelta(extents, [&](const std::vector<std::int64_t> &idx,
                                   std::size_t) {
        std::vector<std::int64_t> sw(ep.iterExtents().size(), 0);
        std::vector<std::int64_t> x(A), q(groups.size(), 0);
        for (std::size_t a = 0; a < A; ++a) {
            x[a] = idx[a] + (static_cast<int>(a) == restrictAxis ? lo : 0);
            (axes[a].isQuotient ? q : sw)[axes[a].ref] = x[a];
        }
        for (std::size_t k = 0; k < groups.size(); ++k) {
            const auto &g = groups[k];
            std::int64_t f = q[k] * g.intrinsicExtent + idx[A + k];
            if (f >= g.fusedExtent)
                return;
            for (std::size_t pos = g.members.size(); pos-- > 0;) {
                sw[g.members[pos]] = f % g.extents[pos];
                f /= g.extents[pos];
            }
        }
        std::vector<std::int64_t> addr;
        for (const auto *op : ops) {
            std::int64_t v = op->base;
            for (std::size_t s = 0; s < sw.size(); ++s)
                v += at(op->swCoeff, s) * sw[s];
            for (std::size_t a = 0; a < A; ++a)
                v += at(op->outerStride, a) * x[a];
            for (std::size_t k = 0; k < groups.size(); ++k)
                v += at(op->tStride, k) * idx[A + k];
            addr.push_back(v);
        }
        out.push_back(std::move(addr));
    });
    return out;
}

TEST(ExecPlan, LoweredSweepsVisitTheTiledOdometersAddresses)
{
    // Each lowered sweep (direct, pack, unpack) must visit exactly the
    // brute-force oracle's address tuples — the per-tile digit decode
    // of every (axes, counters) tuple — in the same order, over the
    // whole nest and over restricted outer-axis ranges, including
    // quotient ranges that start mid-axis and end in a clamped tail
    // or in a carried tile. The corpus must exercise every case.
    int padded = 0, empty = 0, single = 0, fusedLinear = 0, carried = 0,
        midAxisClamped = 0, midAxisCarried = 0;
    const ExecPlan::Sweep sweeps[] = {ExecPlan::Sweep::Direct,
                                      ExecPlan::Sweep::Pack,
                                      ExecPlan::Sweep::Unpack};
    for (const auto &comp : sweepCorpus()) {
        for (const auto &plan : enumeratePlans(comp, isa::wmmaTiny(), {})) {
            SCOPED_TRACE(plan.mapping().signature(comp));
            ExecPlan ep(plan);
            ASSERT_TRUE(ep.compiled()) << ep.fallbackReason();
            for (const auto &g : ep.groups()) {
                padded += g.fusedExtent % g.intrinsicExtent != 0;
                empty += g.members.empty();
                single += g.members.size() == 1;
            }
            for (auto sweep : sweeps) {
                const AccessWalkPlan walk = ep.lowered(sweep);
                for (std::size_t k = 0; k < ep.groups().size(); ++k) {
                    const bool isCarry = walk.carryAt(ep.axes().size() + k);
                    carried += isCarry;
                    fusedLinear +=
                        !isCarry && ep.groups()[k].members.size() > 1;
                }
                EXPECT_EQ(ep.sweepAddresses(sweep), oracleAddresses(ep, sweep));
                for (std::size_t a = 0; a < ep.axes().size(); ++a) {
                    const auto &ax = ep.axes()[a];
                    const std::int64_t mid = ax.extent / 2;
                    const int axis = static_cast<int>(a);
                    EXPECT_EQ(ep.sweepAddresses(sweep, axis, mid, ax.extent),
                              oracleAddresses(ep, sweep, axis, mid,
                                              ax.extent))
                        << "axis " << a << " from " << mid;
                    EXPECT_EQ(ep.sweepAddresses(sweep, axis, 0, mid),
                              oracleAddresses(ep, sweep, axis, 0, mid))
                        << "axis " << a << " to " << mid;
                    const auto &g = ep.groups()[ax.ref];
                    midAxisClamped +=
                        ax.isQuotient && mid > 0 &&
                        g.fusedExtent % g.intrinsicExtent != 0;
                    midAxisCarried +=
                        ax.isQuotient && mid > 0 &&
                        walk.carryAt(ep.axes().size() + ax.ref);
                }
            }
        }
    }
    EXPECT_GT(padded, 0);
    EXPECT_GT(empty, 0);
    EXPECT_GT(single, 0);
    EXPECT_GT(fusedLinear, 0);
    EXPECT_GT(carried, 0);
    EXPECT_GT(midAxisClamped, 0);
    EXPECT_GT(midAxisCarried, 0);
}

TEST(ExecPlan, NonLinearFusedGroupLowersToACarryLevel)
{
    // conv2d fusing the output rows and columns: the input's
    // coefficients on (p, q) are (W_in, 1), not proportional to the
    // digit strides (Q, 1), so the direct and pack sweeps carry the
    // group's digits in a carry level. Results stay bit-identical at
    // any thread count, and every sweep runs lowered.
    ops::ConvParams pr;
    pr.batch = 1;
    pr.in_channels = 2;
    pr.out_channels = 2;
    pr.out_h = 3;
    pr.out_w = 3;
    pr.kernel_h = 2;
    pr.kernel_w = 2;
    auto conv = ops::makeConv2d(pr);
    bool found = false;
    for (const auto &plan : enumeratePlans(conv, isa::wmmaTiny(), {})) {
        ExecPlan ep(plan);
        if (ep.lowered(ExecPlan::Sweep::Direct).carries.empty())
            continue;
        found = true;
        SCOPED_TRACE(plan.mapping().signature(conv));
        EXPECT_FALSE(ep.lowered(ExecPlan::Sweep::Pack).carries.empty());
        auto &lowered =
            MetricsRegistry::global().counter("exec.walk_lowered_runs");
        const std::uint64_t before = lowered.value();
        for (int threads : {1, 2, 4})
            EXPECT_EQ(compiledVsInterpreterError(plan, 5, threads), 0.0f)
                << threads << " threads";
        EXPECT_EQ(lowered.value(), before + 3 * 3);
    }
    EXPECT_TRUE(found);
}

TEST(ExecPlan, MutatedAccessFallsBackWithReason)
{
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);
    auto mutated = gemm.withMutatedInputIndex(
        0, 1, floorDiv(Expr(gemm.iters()[2].var), 2));
    MappingPlan plan(mutated, isa::wmmaTiny(),
                     plans[0].mapping());
    ASSERT_TRUE(plan.valid());

    ExecPlan ep(plan);
    EXPECT_FALSE(ep.compiled());
    EXPECT_NE(ep.fallbackReason().find("FloorDiv"),
              std::string::npos)
        << ep.fallbackReason();

    // The executors transparently interpret the plan instead.
    auto &fallback =
        MetricsRegistry::global().counter("exec.fallback");
    std::uint64_t before = fallback.value();
    EXPECT_EQ(compiledVsInterpreterError(plan), 0.0f);
    EXPECT_EQ(fallback.value(), before + 2); // direct + packed
}

TEST(Bounds, EveryC2DMappingProvablyInBounds)
{
    // ExecPlan's operand and packed-stream address boxes are the
    // bounds proof: every permissive C2D mapping must compile.
    ops::ConvParams pr;
    pr.batch = 2;
    pr.in_channels = 2;
    pr.out_channels = 4;
    pr.out_h = 2;
    pr.out_w = 3;
    pr.kernel_h = 2;
    pr.kernel_w = 2;
    auto conv = ops::makeConv2d(pr);
    auto plans = enumeratePlans(conv, isa::wmmaTiny(),
                                {LegalityPolicy::Permissive, 0});
    ASSERT_FALSE(plans.empty());
    for (const auto &plan : plans) {
        ExecPlan ep(plan);
        EXPECT_TRUE(ep.compiled())
            << plan.mapping().signature(conv) << ": "
            << ep.fallbackReason();
    }
}

TEST(Bounds, FullConfigSuiteProvablyInBounds)
{
    // The boxes cover the whole iteration domain without executing
    // anything, so the real-size 113-configuration suite is cheap to
    // prove. One mapping per configuration.
    auto intr = isa::wmma(16, 16, 16);
    for (const auto &entry : ops::configSuite()) {
        auto comp = entry.build(1);
        GeneratorOptions one;
        one.maxCandidates = 1;
        auto mappings = enumerateMappings(comp, intr, one);
        ASSERT_FALSE(mappings.empty()) << entry.label;
        MappingPlan plan(comp, intr, mappings.front());
        ASSERT_TRUE(plan.valid()) << entry.label;
        ExecPlan ep(plan);
        EXPECT_TRUE(ep.compiled()) << entry.label << ": "
                                   << ep.fallbackReason();
    }
}

TEST(Bounds, RejectsInvalidPlans)
{
    // An invalid mapping and an access past its tensor's end both
    // fail closed with a named reason.
    auto gemm = ops::makeGemm(4, 4, 4);
    ComputeMapping m;
    m.groups = {{0, 1}, {}, {2}};
    MappingPlan invalid(gemm, isa::wmmaTiny(), m);
    ASSERT_FALSE(invalid.valid());
    EXPECT_EQ(ExecPlan(invalid).fallbackReason(),
              "mapping plan failed validation");

    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);
    auto shifted = gemm.withMutatedInputIndex(
        0, 1, Expr(gemm.iters()[2].var) + 1);
    MappingPlan past(shifted, isa::wmmaTiny(), plans[0].mapping());
    ASSERT_TRUE(past.valid());
    ExecPlan ep(past);
    EXPECT_FALSE(ep.compiled());
    EXPECT_NE(ep.fallbackReason().find("exceeds declared size 16"),
              std::string::npos)
        << ep.fallbackReason();
}

} // namespace
} // namespace amos
