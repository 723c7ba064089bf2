/**
 * @file
 * Functional-equivalence tests: every valid mapping, executed both
 * via index remapping and via the packed base/stride address path,
 * must reproduce the reference interpreter exactly. These are the
 * semantic-preservation guarantees of Sec. 5.2 put to work.
 */

#include <gtest/gtest.h>

#include "amos/amos.hh"
#include "explore/tuner.hh"
#include "hw/hardware.hh"
#include "isa/intrinsics.hh"
#include "jit/jit.hh"
#include "mapping/exec_plan.hh"
#include "mapping/execute.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "tensor/reference.hh"

namespace amos {
namespace {

using ops::ConvParams;

constexpr float kTol = 1e-4f;

ConvParams
tinyConvParams()
{
    ConvParams pr;
    pr.batch = 2;
    pr.in_channels = 2;
    pr.out_channels = 4;
    pr.out_h = 2;
    pr.out_w = 3;
    pr.kernel_h = 2;
    pr.kernel_w = 2;
    return pr;
}

/** Small instance of each operator kind used by the param suites. */
TensorComputation
makeSmallOp(ops::OpKind kind)
{
    ConvParams pr = tinyConvParams();
    switch (kind) {
      case ops::OpKind::GMV: return ops::makeGemv(5, 7);
      case ops::OpKind::GMM: return ops::makeGemm(3, 5, 7);
      case ops::OpKind::C1D: return ops::makeConv1d(2, 3, 4, 5, 3);
      case ops::OpKind::C2D: return ops::makeConv2d(pr);
      case ops::OpKind::C3D: return ops::makeConv3d(pr, 2, 2);
      case ops::OpKind::T2D: {
        ConvParams t2 = pr;
        t2.stride = 2;
        return ops::makeTransposedConv2d(t2);
      }
      case ops::OpKind::GRP: return ops::makeGroupConv2d(pr, 2);
      case ops::OpKind::DIL: {
        ConvParams dil = pr;
        dil.dilation = 2;
        return ops::makeDilatedConv2d(dil);
      }
      case ops::OpKind::DEP: return ops::makeDepthwiseConv2d(pr, 2);
      case ops::OpKind::CAP: {
        ConvParams cap = pr;
        cap.out_h = 2;
        cap.out_w = 2;
        cap.out_channels = 2;
        return ops::makeCapsuleConv2d(cap, 2);
      }
      case ops::OpKind::BCV: return ops::makeBatchedConv2d(pr);
      case ops::OpKind::GFC: return ops::makeGroupedFC(2, 3, 4, 5);
      case ops::OpKind::MEN: return ops::makeMean(5, 6);
      case ops::OpKind::VAR: return ops::makeVariance(5, 6);
      case ops::OpKind::SCN: return ops::makeScan(3, 5);
    }
    panic("unreachable");
}

TEST(Execute, Fig3MappingReproducesReference)
{
    ConvParams pr;
    pr.batch = 1;
    pr.in_channels = 1;
    pr.out_channels = 4;
    pr.out_h = 2;
    pr.out_w = 2;
    pr.kernel_h = 3;
    pr.kernel_w = 3;
    auto conv = ops::makeConv2d(pr);
    ComputeMapping m;
    m.groups = {{0, 2, 3}, {1}, {4, 5, 6}};
    MappingPlan plan(conv, isa::wmmaTiny(), m);
    ASSERT_TRUE(plan.valid());
    EXPECT_LE(mappedVsReferenceError(plan), kTol);
}

TEST(Execute, AllConv2dMappingsPreserveSemantics)
{
    // The central property test: all 35 addressable C2D mappings are
    // functionally exact, trailing padding and empty groups included.
    auto conv = ops::makeConv2d(tinyConvParams());
    auto plans = enumeratePlans(conv, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 35u);
    for (const auto &plan : plans) {
        SCOPED_TRACE(plan.mapping().signature(conv));
        EXPECT_LE(mappedVsReferenceError(plan), kTol);
    }
}

TEST(Execute, PermissiveMappingsAlsoPreserveSemantics)
{
    // Addressability is a performance property, not a correctness
    // one: permissive-only mappings are exact too.
    auto conv = ops::makeConv2d(tinyConvParams());
    auto plans = enumeratePlans(conv, isa::wmmaTiny(),
                                {LegalityPolicy::Permissive, 0});
    ASSERT_EQ(plans.size(), 49u);
    for (const auto &plan : plans) {
        SCOPED_TRACE(plan.mapping().signature(conv));
        EXPECT_LE(mappedVsReferenceError(plan), kTol);
    }
}

class OperatorExecution
    : public ::testing::TestWithParam<ops::OpKind>
{
};

TEST_P(OperatorExecution, EveryMappingOfEveryOperatorIsExact)
{
    // Small instance of each operator kind; every addressable mapping
    // on the tiny Tensor Core must be exact.
    TensorComputation comp = makeSmallOp(GetParam());

    auto plans = enumeratePlans(comp, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u)
        << ops::opKindName(GetParam()) << " has no valid mapping";
    for (const auto &plan : plans) {
        SCOPED_TRACE(plan.mapping().signature(comp));
        EXPECT_LE(mappedVsReferenceError(plan), kTol);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, OperatorExecution,
    ::testing::ValuesIn(ops::allOpKinds()),
    [](const ::testing::TestParamInfo<ops::OpKind> &info) {
        return ops::opKindName(info.param);
    });

class TunedOperatorDifferential
    : public ::testing::TestWithParam<ops::OpKind>
{
};

TEST_P(TunedOperatorDifferential, BestTunedPlanMatchesReference)
{
    // End-to-end differential: run the whole exploration pipeline
    // (enumerate -> validate -> GA search over schedules) and check
    // that the *winning* plan still computes the same values as the
    // naive scalar reference. Guards against the tuner preferring a
    // mapping whose execution semantics drifted.
    TensorComputation comp = makeSmallOp(GetParam());

    auto plans = enumeratePlans(comp, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);

    TuneOptions options;
    options.generations = 2;
    options.population = 8;
    options.measureTopK = 2;
    options.exploitSteps = 0;
    options.numThreads = 2;
    auto result = tuneWithPlans(plans, hw::v100(), options);
    ASSERT_TRUE(result.tensorizable);
    ASSERT_TRUE(result.bestPlan.has_value());
    ASSERT_LT(result.bestMappingIndex, plans.size());

    SCOPED_TRACE(result.bestPlan->mapping().signature(comp));
    EXPECT_LE(mappedVsReferenceError(*result.bestPlan), kTol);
    // The winner must be one of the enumerated plans, bit-for-bit.
    EXPECT_EQ(result.bestPlan->mapping().signature(comp),
              plans[result.bestMappingIndex]
                  .mapping()
                  .signature(comp));
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, TunedOperatorDifferential,
    ::testing::ValuesIn(ops::allOpKinds()),
    [](const ::testing::TestParamInfo<ops::OpKind> &info) {
        return ops::opKindName(info.param);
    });

class CompiledEngineDifferential
    : public ::testing::TestWithParam<ops::OpKind>
{
};

TEST_P(CompiledEngineDifferential, StrideWalkIsBitIdentical)
{
    // The stride-walk engine must reproduce the scalar interpreters
    // *bit for bit* — not within tolerance — on every addressable
    // mapping of every operator kind, serial and parallel.
    TensorComputation comp = makeSmallOp(GetParam());
    auto plans = enumeratePlans(comp, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);
    for (const auto &plan : plans) {
        SCOPED_TRACE(plan.mapping().signature(comp));
        EXPECT_EQ(compiledVsInterpreterError(plan, 7, 1), 0.0f);
        EXPECT_EQ(compiledVsInterpreterError(plan, 7, 2), 0.0f);
        EXPECT_EQ(compiledVsInterpreterError(plan, 7, 4), 0.0f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, CompiledEngineDifferential,
    ::testing::ValuesIn(ops::allOpKinds()),
    [](const ::testing::TestParamInfo<ops::OpKind> &info) {
        return ops::opKindName(info.param);
    });

TEST(Execute, ThreadCountNeverChangesResults)
{
    // Determinism guarantee of the parallel sweep: any thread count
    // yields the 1-thread bits, for both mapped paths.
    auto gemm = ops::makeGemm(8, 6, 5);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);
    const auto &plan = plans[0];

    auto inputs = makePatternInputs(gemm, 13);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    Buffer direct1(gemm.output()), packed1(gemm.output());
    executeMappedDirect(plan, ptrs, direct1, ExecOptions{});
    executeMappedPacked(plan, ptrs, packed1, ExecOptions{});
    for (int threads : {2, 3, 4}) {
        ExecOptions opts;
        opts.numThreads = threads;
        Buffer direct(gemm.output()), packed(gemm.output());
        executeMappedDirect(plan, ptrs, direct, opts);
        executeMappedPacked(plan, ptrs, packed, opts);
        EXPECT_EQ(direct1.maxAbsDiff(direct), 0.0f)
            << threads << " threads (direct)";
        EXPECT_EQ(packed1.maxAbsDiff(packed), 0.0f)
            << threads << " threads (packed)";
    }
}

TEST(LoweredWalk, BenchmarkKernelsLowerEverySweep)
{
    // The engine benchmark's fixed kernels (first enumerated plan on
    // a dtype-legal intrinsic) must run every direct, pack and unpack
    // sweep on the lowered stride walker; three of them need the
    // padding clamp (conv2d: F=3, I=2; conv2d_i8: F=3, I=4; gemv: an
    // empty group's F=1 under I=2, clamped statically).
    ops::ConvParams conv{1, 8, 16, 14, 14, 3, 3, 1, 1, DataType::F16};
    const std::vector<std::pair<TensorComputation, Intrinsic>> kernels =
        {{ops::makeGemm(64, 64, 64), isa::wmmaTiny()},
         {ops::makeConv2d(conv), isa::wmmaTiny()},
         {ops::makeGemv(256, 256), isa::wmmaTiny()},
         {ops::makeQuantizedGemm(64, 64, 64), isa::avx512Vnni()},
         {ops::makeQuantizedConv2d(conv), isa::maliDot()}};
    auto &lowered =
        MetricsRegistry::global().counter("exec.walk_lowered_runs");
    int padded = 0;
    for (const auto &[comp, intr] : kernels) {
        SCOPED_TRACE(comp.name());
        auto plans = enumeratePlans(comp, intr, {});
        ASSERT_FALSE(plans.empty());
        ExecPlan ep(plans[0]);
        ASSERT_TRUE(ep.compiled()) << ep.fallbackReason();
        // Linear groups only: the walker's inner-block form runs.
        for (auto sweep : {ExecPlan::Sweep::Direct, ExecPlan::Sweep::Pack,
                           ExecPlan::Sweep::Unpack})
            EXPECT_TRUE(ep.lowered(sweep).carries.empty());
        for (const auto &g : ep.groups())
            if (g.fusedExtent % g.intrinsicExtent != 0) {
                ++padded;
                break;
            }

        auto inputs = makePatternInputs(comp, 3);
        std::vector<const Buffer *> ptrs;
        for (const auto &b : inputs)
            ptrs.push_back(&b);
        ExecOptions walk;
        walk.engine = ExecEngine::Walk;
        Buffer direct(comp.output()), packed(comp.output());
        const std::uint64_t loweredBefore = lowered.value();
        EXPECT_EQ(executeMappedDirect(plans[0], ptrs, direct, walk).engine,
                  "walk");
        EXPECT_EQ(executeMappedPacked(plans[0], ptrs, packed, walk).engine,
                  "walk");
        EXPECT_EQ(lowered.value(), loweredBefore + 3);
        EXPECT_EQ(direct.maxAbsDiff(packed), 0.0f);
    }
    EXPECT_EQ(padded, 3);
}

TEST(LoweredWalk, ThreadCountNeverChangesPaddedResults)
{
    // A padded plan whose direct sweep splits a quotient axis: each
    // worker's range starts mid-axis and the last one ends in the
    // clamped tail. Every thread count must give the interpreter's
    // bits on both mapped paths.
    auto gemm = ops::makeGemm(9, 7, 5);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_FALSE(plans.empty());
    const auto &plan = plans[0];
    ExecPlan ep(plan);
    ASSERT_TRUE(ep.lowered(ExecPlan::Sweep::Direct).carries.empty());
    ASSERT_GE(ep.directSplitAxis(), 0);
    EXPECT_TRUE(ep.axes()[static_cast<std::size_t>(ep.directSplitAxis())]
                    .isQuotient);

    auto inputs = makePatternInputs(gemm, 17);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);
    ExecOptions interp;
    interp.engine = ExecEngine::Interpreter;
    Buffer direct0(gemm.output()), packed0(gemm.output());
    executeMappedDirect(plan, ptrs, direct0, interp);
    executeMappedPacked(plan, ptrs, packed0, interp);
    for (int threads : {1, 2, 3, 4}) {
        ExecOptions opts;
        opts.engine = ExecEngine::Walk;
        opts.numThreads = threads;
        Buffer direct(gemm.output()), packed(gemm.output());
        ExecReport report = executeMappedDirect(plan, ptrs, direct, opts);
        executeMappedPacked(plan, ptrs, packed, opts);
        EXPECT_EQ(direct0.maxAbsDiff(direct), 0.0f) << threads;
        EXPECT_EQ(packed0.maxAbsDiff(packed), 0.0f) << threads;
        EXPECT_EQ(report.threadsUsed, threads);
    }
}

TEST(LoweredWalk, TunedWinnersBitExactOnWalkAndJit)
{
    // The tuner's convolution winners fuse iterators whose input
    // coefficients are not proportional to the digit strides (the
    // default CLI conv2d picks [c,r,s] -> (c*9 + r*3 + s) % 16), so
    // their sweeps lower with carry levels. Each winner must match the
    // interpreter bit for bit on the walk at 1, 2 and 4 threads and on
    // the JIT tier.
    ConvParams pr{1, 8, 16, 6, 6, 3, 3, 1, 1, DataType::F16};
    TuneOptions options;
    options.generations = 2;
    options.population = 8;
    options.measureTopK = 2;
    options.exploitSteps = 0;
    const Compiler compiler(hw::v100(), options);
    for (const auto &comp :
         {ops::makeConv2d(pr), ops::makeConv3d(pr, 2, 2),
          ops::makeDepthwiseConv2d(pr, 2)}) {
        SCOPED_TRACE(comp.name());
        const auto result = compiler.compile(comp);
        ASSERT_TRUE(result.tensorized && result.tuning.bestPlan);
        const MappingPlan &plan = *result.tuning.bestPlan;
        SCOPED_TRACE(plan.mapping().signature(comp));
        const ExecPlan ep(plan);
        ASSERT_TRUE(ep.compiled()) << ep.fallbackReason();
        EXPECT_FALSE(ep.lowered(ExecPlan::Sweep::Direct).carries.empty());
        for (int threads : {1, 2, 4})
            EXPECT_EQ(compiledVsInterpreterError(plan, 11, threads), 0.0f)
                << threads << " threads";
        ExecReport direct, packed;
        EXPECT_EQ(engineVsInterpreterError(plan, ExecEngine::Jit, 11,
                                           &direct, &packed),
                  0.0f);
        if (JitEngine::global().compilerAvailable()) {
            EXPECT_EQ(direct.engine, "jit") << direct.jitFallback;
            EXPECT_EQ(packed.engine, "jit") << packed.jitFallback;
        }
    }
}

TEST(Execute, FuzzedNonAffineAccessForcesFallback)
{
    // Mutate one access expression into non-affine form (only
    // possible via the fuzz hook — the constructor rejects it) and
    // check the executors transparently fall back to the interpreter
    // with identical results and a logged exec.fallback metric.
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);

    auto mutated = gemm.withMutatedInputIndex(
        1, 0, floorDiv(gemm.iters()[2].var * 2, 2));
    MappingPlan plan(mutated, isa::wmmaTiny(), plans[0].mapping());
    ASSERT_TRUE(plan.valid());

    auto &fallback =
        MetricsRegistry::global().counter("exec.fallback");
    std::uint64_t before = fallback.value();
    // floorDiv(2k, 2) evaluates like k, so the interpreter result must
    // equal the unmutated plan's — while the engine must refuse the
    // non-affine form rather than silently miscompiling it.
    EXPECT_EQ(compiledVsInterpreterError(plan, 7, 1), 0.0f);
    EXPECT_EQ(fallback.value(), before + 2); // direct + packed

    Buffer viaMutated(mutated.output());
    Buffer viaOriginal(gemm.output());
    auto inputs = makePatternInputs(gemm, 7);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);
    executeMappedDirect(plan, ptrs, viaMutated);
    executeMappedDirect(plans[0], ptrs, viaOriginal);
    EXPECT_EQ(viaMutated.maxAbsDiff(viaOriginal), 0.0f);
}

TEST(Execute, OtherIntrinsicsPreserveSemantics)
{
    // Same property on structurally different intrinsics: VNNI
    // (matrix-vector), Mali dot (scalar output), and the virtual
    // 4-iteration CONV accelerator. The int8 intrinsics run the
    // quantized conv — their dtype-legal operand typing.
    auto conv = ops::makeConv2d(tinyConvParams());
    auto qconv = ops::makeQuantizedConv2d(tinyConvParams());
    for (const auto &intr :
         {isa::avx512Vnni(), isa::maliDot(),
          isa::virtualConv(2, 2, 2, 2), isa::virtualGemv(2, 4),
          isa::virtualAxpy(4)}) {
        const bool int8 =
            intr.compute.dst().dtype == DataType::I32;
        const auto &comp = int8 ? qconv : conv;
        auto plans = enumeratePlans(comp, intr, {});
        ASSERT_GT(plans.size(), 0u) << intr.name();
        for (const auto &plan : plans) {
            SCOPED_TRACE(intr.name() + " " +
                         plan.mapping().signature(comp));
            EXPECT_LE(mappedVsReferenceError(plan), kTol);
        }
    }
}

TEST(Execute, LargeIntrinsicPaddingIsExact)
{
    // Extents far below the intrinsic problem size: everything is
    // padding-dominated, results must still be exact.
    auto gemm = ops::makeGemm(3, 2, 5);
    auto plans = enumeratePlans(gemm, isa::wmma(16, 16, 16), {});
    ASSERT_EQ(plans.size(), 1u);
    EXPECT_GT(plans[0].paddingWasteFactor(), 10.0);
    EXPECT_LE(mappedVsReferenceError(plans[0]), kTol);
}

TEST(Execute, RejectsInvalidPlan)
{
    auto conv = ops::makeConv2d(tinyConvParams());
    ComputeMapping m;
    m.groups = {{0, 1}, {}, {4, 5, 6}};
    MappingPlan plan(conv, isa::wmmaTiny(), m);
    ASSERT_FALSE(plan.valid());
    auto inputs = makePatternInputs(conv, 3);
    std::vector<const Buffer *> ptrs = {&inputs[0], &inputs[1]};
    Buffer out(conv.output());
    EXPECT_THROW(executeMappedDirect(plan, ptrs, out), PanicError);
    EXPECT_THROW(executeMappedPacked(plan, ptrs, out), PanicError);
}

TEST(Execute, SeedVariationStaysExact)
{
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);
    for (std::uint64_t seed : {1ULL, 42ULL, 1234567ULL})
        EXPECT_LE(mappedVsReferenceError(plans[0], seed), kTol);
}

// ---------------------------------------------------------------
// Quantized / mixed-precision differentials (quant/compare.hh).
// ---------------------------------------------------------------

/**
 * Quantized operator variants at small extents, paired with an int8
 * intrinsic whose mapping space is non-empty for that operator.
 */
std::vector<std::pair<TensorComputation, Intrinsic>>
quantizedSuite()
{
    std::vector<std::pair<TensorComputation, Intrinsic>> suite;
    suite.emplace_back(ops::makeQuantizedGemm(3, 5, 8),
                       isa::avx512Vnni());
    suite.emplace_back(ops::makeQuantizedGemm(4, 4, 8),
                       isa::maliDot());
    suite.emplace_back(ops::makeQuantizedConv2d(tinyConvParams()),
                       isa::avx512Vnni());
    suite.emplace_back(ops::makeQuantizedConv2d(tinyConvParams()),
                       isa::maliDot());
    // Symmetric i8 x i8 exercises the second loader combination.
    suite.emplace_back(ops::makeQuantizedGemm(3, 5, 8, DataType::I8,
                                              DataType::I8),
                       isa::maliDot());
    return suite;
}

TEST(QuantExecute, Int8EnginesBitExactAcrossThreadCounts)
{
    // int8 accumulation is exact int32 arithmetic, so every engine
    // must agree with the scalar interpreter bit for bit — at every
    // thread count, on both mapped paths.
    for (const auto &[comp, intr] : quantizedSuite()) {
        auto plans = enumeratePlans(comp, intr, {});
        ASSERT_GT(plans.size(), 0u)
            << comp.name() << " x " << intr.name();
        for (ExecEngine engine : {ExecEngine::Walk, ExecEngine::Jit}) {
            for (int threads : {1, 4}) {
                SCOPED_TRACE(comp.name() + " x " + intr.name() +
                             " engine=" + execEngineName(engine) +
                             " threads=" + std::to_string(threads));
                auto res = engineVsInterpreterCompare(
                    plans[0], engine,
                    quant::ToleranceSpec::exactly(), 7, threads);
                EXPECT_TRUE(res.pass) << res.summary();
            }
        }
    }
}

TEST(QuantExecute, Int8EveryMappingBitExact)
{
    // Not just the first plan: every enumerated quantized mapping
    // must survive the exact differential on the walk engine.
    auto conv = ops::makeQuantizedConv2d(tinyConvParams());
    auto plans = enumeratePlans(conv, isa::avx512Vnni(), {});
    ASSERT_GT(plans.size(), 0u);
    for (const auto &plan : plans) {
        SCOPED_TRACE(plan.mapping().signature(conv));
        auto res = engineVsInterpreterCompare(
            plan, ExecEngine::Walk, quant::ToleranceSpec::exactly());
        EXPECT_TRUE(res.pass) << res.summary();
    }
}

TEST(QuantExecute, Bf16WithinDocumentedBounds)
{
    // bf16 inputs round to an 8-bit mantissa before the exact f32
    // accumulation; engines still agree bit-for-bit with each other,
    // and the result tracks the f32 reference within the documented
    // bf16 bound (docs/execution.md).
    auto b = ops::bf16Variant(ops::makeGemm(4, 5, 8));
    auto plans = enumeratePlans(b, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);
    for (int threads : {1, 4}) {
        auto res = engineVsInterpreterCompare(
            plans[0], ExecEngine::Walk,
            quant::ToleranceSpec::exactly(), 7, threads);
        EXPECT_TRUE(res.pass) << res.summary();
    }

    // Against the float reference the comparison is bounded, not
    // exact: run the bf16 interpreter and the f32 interpreter on the
    // same pattern values and compare under the bf16 tolerance.
    auto f = ops::makeGemm(4, 5, 8,
                           DataType::F32); // same shape, f32 operands
    auto binputs = makePatternInputs(b, 7);
    std::vector<const Buffer *> bptrs;
    for (const auto &buf : binputs)
        bptrs.push_back(&buf);
    Buffer bout(b.output());
    referenceExecute(b, bptrs, bout);

    // The f32 run sees the bf16-rounded values, dequantized: that is
    // the reference the tolerance bound is defined against.
    std::vector<Buffer> finputs;
    for (const auto &buf : binputs) {
        Buffer fb(buf.decl().withDtype(DataType::F32));
        for (std::size_t i = 0; i < fb.size(); ++i)
            fb.set(i, buf.at(i));
        finputs.push_back(std::move(fb));
    }
    std::vector<const Buffer *> fptrs;
    for (const auto &buf : finputs)
        fptrs.push_back(&buf);
    Buffer fout(f.output());
    referenceExecute(f, fptrs, fout);

    auto res = quant::compareBuffers(
        bout, fout, quant::defaultToleranceFor(DataType::BF16));
    EXPECT_TRUE(res.pass) << res.summary();
}

TEST(QuantExecute, DtypeIllegalPlanIsInvalid)
{
    // A hand-built mapping of a float conv onto the int8 VNNI
    // intrinsic passes the structural Algorithm-1 check but fails
    // dtype legality, so the plan is invalid with a "dtype:" reason
    // and the executors refuse it.
    auto conv = ops::makeConv2d(tinyConvParams());
    auto qconv = ops::makeQuantizedConv2d(tinyConvParams());
    auto qplans = enumeratePlans(qconv, isa::avx512Vnni(), {});
    ASSERT_GT(qplans.size(), 0u);
    MappingPlan plan(conv, isa::avx512Vnni(),
                     qplans[0].mapping());
    EXPECT_FALSE(plan.valid());
    EXPECT_EQ(plan.validation().failure.rfind("dtype: ", 0), 0u)
        << plan.validation().failure;
    auto inputs = makePatternInputs(conv, 3);
    std::vector<const Buffer *> ptrs = {&inputs[0], &inputs[1]};
    Buffer out(conv.output());
    EXPECT_THROW(executeMappedDirect(plan, ptrs, out), PanicError);
}

} // namespace
} // namespace amos
