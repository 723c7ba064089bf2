/**
 * @file
 * JIT execution tier tests: the native-codegen tier must be
 * bit-identical to the interpreter over every operator kind, the
 * kernel cache must behave (memory hits, restart warm starts from
 * disk, corrupt-object recovery, in-flight compile coalescing,
 * negative caching), and every failure mode must degrade into the
 * stride walk instead of an error.
 *
 * The whole suite is compiler-agnostic: when no system compiler is
 * available (CI runs it once with AMOS_JIT_CC=/nonexistent), the
 * differential checks still pass via the fallback tiers and the
 * cache tests skip.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "codegen/exec_c.hh"
#include "isa/intrinsics.hh"
#include "jit/jit.hh"
#include "mapping/execute.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/trace.hh"
#include "tensor/jit_hook.hh"
#include "tensor/reference.hh"

namespace amos {
namespace {

bool
jitCompilerUsable()
{
    return JitEngine::global().compilerAvailable();
}

/** Fresh scratch cache dir per test (cleared from previous runs). */
JitOptions
scratchOptions(const std::string &tag)
{
    JitOptions opts = JitOptions::fromEnv();
    opts.cacheDir = ::testing::TempDir() + "amos-jit-" + tag;
    std::filesystem::remove_all(opts.cacheDir);
    return opts;
}

/** A kernel's cache path without its `.so` suffix. */
std::string
cachePathStem(const JitEngine &engine, const std::string &source)
{
    const std::string so = engine.cachePathFor(source);
    return so.substr(0, so.size() - 3);
}

/** A tiny valid kernel, salted so each test owns its cache key. */
std::string
tinyKernel(const std::string &salt)
{
    return "/* " + salt + " */\n"
           "void amos_exec_kernel(const void *const *inputs, "
           "void *output)\n"
           "{ *(float *)output = *(const float *)inputs[0] + 1.0f; }\n";
}

/** Small instance of each operator kind used by the param suite. */
TensorComputation
makeSmallOp(ops::OpKind kind)
{
    ops::ConvParams pr;
    pr.batch = 2;
    pr.in_channels = 2;
    pr.out_channels = 4;
    pr.out_h = 2;
    pr.out_w = 3;
    pr.kernel_h = 2;
    pr.kernel_w = 2;
    switch (kind) {
      case ops::OpKind::GMV: return ops::makeGemv(5, 7);
      case ops::OpKind::GMM: return ops::makeGemm(3, 5, 7);
      case ops::OpKind::C1D: return ops::makeConv1d(2, 3, 4, 5, 3);
      case ops::OpKind::C2D: return ops::makeConv2d(pr);
      case ops::OpKind::C3D: return ops::makeConv3d(pr, 2, 2);
      case ops::OpKind::T2D: {
        ops::ConvParams t2 = pr;
        t2.stride = 2;
        return ops::makeTransposedConv2d(t2);
      }
      case ops::OpKind::GRP: return ops::makeGroupConv2d(pr, 2);
      case ops::OpKind::DIL: {
        ops::ConvParams dil = pr;
        dil.dilation = 2;
        return ops::makeDilatedConv2d(dil);
      }
      case ops::OpKind::DEP: return ops::makeDepthwiseConv2d(pr, 2);
      case ops::OpKind::CAP: {
        ops::ConvParams cap = pr;
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

class JitOperatorDifferential
    : public ::testing::TestWithParam<ops::OpKind>
{
};

TEST_P(JitOperatorDifferential, MappedPathsBitIdentical)
{
    // The JIT tier must reproduce the scalar interpreter bit for bit
    // on both mapped paths, for the first plan and for the first one
    // whose direct sweep has a carry level. Without a compiler the
    // tier degrades to the stride walk — the differential still
    // holds, only the reported engine changes.
    TensorComputation comp = makeSmallOp(GetParam());
    auto plans = enumeratePlans(comp, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);
    std::vector<const MappingPlan *> picked = {&plans[0]};
    for (const auto &plan : plans) {
        const ExecPlan ep(plan);
        if (ep.compiled() &&
            !ep.lowered(ExecPlan::Sweep::Direct).carries.empty()) {
            picked.push_back(&plan);
            break;
        }
    }
    for (const MappingPlan *plan : picked) {
        SCOPED_TRACE(plan->mapping().signature(comp));
        ExecReport direct, packed;
        EXPECT_EQ(engineVsInterpreterError(*plan, ExecEngine::Jit, 7,
                                           &direct, &packed),
                  0.0f);
        if (jitCompilerUsable()) {
            EXPECT_EQ(direct.engine, "jit") << direct.jitFallback;
            EXPECT_EQ(packed.engine, "jit") << packed.jitFallback;
        } else {
            EXPECT_EQ(direct.engine, "walk");
            EXPECT_EQ(packed.engine, "walk");
            EXPECT_NE(direct.jitFallback, "");
        }
    }
}

TEST_P(JitOperatorDifferential, ReferencePathBitIdentical)
{
    TensorComputation comp = makeSmallOp(GetParam());
    auto inputs = makePatternInputs(comp, 11);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    ExecOptions interp;
    interp.engine = ExecEngine::Interpreter;
    ExecOptions jit;
    jit.engine = ExecEngine::Jit;

    Buffer viaInterp(comp.output()), viaJit(comp.output());
    referenceExecute(comp, ptrs, viaInterp, interp);
    ExecReport report = referenceExecute(comp, ptrs, viaJit, jit);

    EXPECT_EQ(viaInterp.maxAbsDiff(viaJit), 0.0f);
    if (jitCompilerUsable())
        EXPECT_EQ(report.engine, "jit") << report.jitFallback;
    else
        EXPECT_EQ(report.engine, "walk");
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, JitOperatorDifferential,
    ::testing::ValuesIn(ops::allOpKinds()),
    [](const ::testing::TestParamInfo<ops::OpKind> &info) {
        return ops::opKindName(info.param);
    });

TEST(JitCodegen, KernelsAreVectorizerFriendly)
{
    // Structural checks on the emitted C: restrict-qualified operand
    // pointers, the canonical entry point, hoisted partial addresses
    // (a `const long` above the innermost loop), and no fast-math
    // escape hatch in the packed pipeline.
    auto gemm = ops::makeGemm(3, 5, 7);
    auto plan = compileReferenceWalk(gemm);
    ASSERT_TRUE(plan.has_value());
    std::string src = generateWalkKernelC(*plan, gemm.combine(), 2,
                                          "structural test");
    EXPECT_NE(src.find("amos_exec_kernel"), std::string::npos);
    EXPECT_NE(src.find("const float *restrict in0"),
              std::string::npos);
    EXPECT_NE(src.find("float *restrict out"), std::string::npos);
    EXPECT_NE(src.find("const long"), std::string::npos);
    EXPECT_NE(src.find("for (long"), std::string::npos);

    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_GT(plans.size(), 0u);
    ExecPlan ep(plans[0]);
    ASSERT_TRUE(ep.compiled()) << ep.fallbackReason();
    std::string direct = generateDirectKernelC(ep, "structural");
    EXPECT_NE(direct.find("amos_exec_kernel"), std::string::npos);
    EXPECT_NE(direct.find("restrict"), std::string::npos);
    std::string packed = generatePackedKernelC(ep, "structural");
    EXPECT_NE(packed.find("calloc"), std::string::npos);
    EXPECT_NE(packed.find("free(pk0);"), std::string::npos);
    EXPECT_NE(packed.find("stage A"), std::string::npos);
    EXPECT_NE(packed.find("stage B"), std::string::npos);
    EXPECT_NE(packed.find("stage C"), std::string::npos);
}

TEST(JitCodegen, TypedKernelsMatchStorageLanes)
{
    // int8 kernels must bind int8_t/uint8_t/int32_t pointers and
    // accumulate through a wrapping int64 intermediate, with no float
    // anywhere; the packed pipeline widens into int32_t streams.
    auto q = ops::makeQuantizedGemm(3, 5, 8);
    auto walk = compileReferenceWalk(q);
    ASSERT_TRUE(walk.has_value());
    std::vector<DataType> dts;
    for (const auto &in : q.inputs())
        dts.push_back(in.decl.dtype());
    dts.push_back(q.output().dtype());
    std::string src =
        generateWalkKernelC(*walk, q.combine(), 2, "typed", dts);
    EXPECT_NE(src.find("const uint8_t *restrict in0"),
              std::string::npos);
    EXPECT_NE(src.find("const int8_t *restrict in1"),
              std::string::npos);
    EXPECT_NE(src.find("int32_t *restrict out"), std::string::npos);
    EXPECT_NE(src.find("(int64_t)"), std::string::npos);
    // No float anywhere in the code itself (the header comment may
    // mention floating point).
    const std::string body = src.substr(src.find("amos_exec_kernel"));
    EXPECT_EQ(body.find("float"), std::string::npos) << src;

    auto plans = enumeratePlans(q, isa::avx512Vnni(), {});
    ASSERT_GT(plans.size(), 0u);
    ExecPlan ep(plans[0]);
    ASSERT_TRUE(ep.compiled()) << ep.fallbackReason();
    std::string packed = generatePackedKernelC(ep, "typed packed");
    EXPECT_NE(packed.find("int32_t *restrict pk0"), std::string::npos);
    EXPECT_NE(packed.find("sizeof(int32_t)"), std::string::npos);
    EXPECT_EQ(packed.substr(packed.find("amos_exec_kernel"))
                  .find("float"),
              std::string::npos);

    // bf16 kernels widen each load through the emitted helper into
    // float accumulation.
    auto b = ops::bf16Variant(ops::makeGemm(3, 5, 7));
    auto bwalk = compileReferenceWalk(b);
    ASSERT_TRUE(bwalk.has_value());
    std::vector<DataType> bdts;
    for (const auto &in : b.inputs())
        bdts.push_back(in.decl.dtype());
    bdts.push_back(b.output().dtype());
    std::string bsrc =
        generateWalkKernelC(*bwalk, b.combine(), 2, "bf16", bdts);
    EXPECT_NE(bsrc.find("amos_bf16_to_f32"), std::string::npos);
    EXPECT_NE(bsrc.find("const uint16_t *restrict in0"),
              std::string::npos);
    EXPECT_NE(bsrc.find("float *restrict out"), std::string::npos);
}

/** FNV-1a of the kernel texts emitted for one computation. */
struct EmittedHashes
{
    std::uint64_t reference = 0; ///< the reference walk kernel
    std::uint64_t mapped = 0; ///< direct + packed kernel of each plan
};

/**
 * The reference walk kernel, then the direct and packed kernels of
 * each enumerated plan on `intr`, in enumeration order.
 */
EmittedHashes
emittedKernelsHash(const TensorComputation &comp, const Intrinsic &intr)
{
    std::vector<DataType> dtypes;
    for (const auto &in : comp.inputs())
        dtypes.push_back(in.decl.dtype());
    dtypes.push_back(comp.output().dtype());
    auto walk = compileReferenceWalk(comp);
    require(walk.has_value(), "no reference walk for ", comp.name());
    EmittedHashes h;
    h.reference = fnv1a(
        generateWalkKernelC(*walk, comp.combine(), comp.inputs().size(),
                            "golden reference", dtypes));
    std::string all;
    for (const auto &plan : enumeratePlans(comp, intr, {})) {
        ExecPlan ep(plan);
        if (!ep.compiled())
            continue;
        const std::string sig = plan.mapping().signature(comp);
        all += generateDirectKernelC(ep, "golden direct " + sig);
        all += generatePackedKernelC(ep, "golden packed " + sig);
    }
    h.mapped = fnv1a(all);
    return h;
}

TEST(JitCodegen, EmittedKernelTextIsStable)
{
    // Kernel text is the JIT cache key: a refactor of the emitters or
    // of the plan tables they read must not move a single byte, or
    // every cached .so and the set-up cost of a warm process change.
    // The goldens cover every operator kind on wmmaTiny (padded,
    // empty, linear and carried groups) and the benchmark's fixed
    // kernels, including the typed int8 emitters. The reference
    // column predates the clamp and carry levels of the nest emitter:
    // a walk plan with neither emits the same text as before them.
    ops::ConvParams conv{1, 8, 16, 14, 14, 3, 3, 1, 1, DataType::F16};
    struct Golden
    {
        const char *name;
        std::uint64_t reference, mapped;
    };
    const std::vector<Golden> golden = {
        {"GMV", 0x695ee9c1e2309692ULL, 0xc1f32d70af151f9bULL},
        {"GMM", 0xcb747b7f91a5d7d5ULL, 0x14fd74615d60725fULL},
        {"C1D", 0xa0d86998a3438cf6ULL, 0xb7cbfe2c9393618dULL},
        {"C2D", 0x9934a5be5bbafa34ULL, 0xd9b427fd00c759a3ULL},
        {"C3D", 0x762d27335e8b30e0ULL, 0x54904e03537ad5f7ULL},
        {"T2D", 0x9934a5be5bbafa34ULL, 0xb8694ec0af9f17f2ULL},
        {"GRP", 0x8b6661b3493a274aULL, 0x848f9711354a932bULL},
        {"DIL", 0xbe5f8c69a8b22085ULL, 0xdd476d98ed2321baULL},
        {"DEP", 0x6823102f72979843ULL, 0xac848e5a25f51a60ULL},
        {"CAP", 0x8920a7e64a251d1bULL, 0xec96aa3cc610ade5ULL},
        {"BCV", 0x8ef2f11d2e4e1f40ULL, 0x53d8b39fec9e079bULL},
        {"GFC", 0xb457756ca9825c27ULL, 0xf5e6d28f72e57ecaULL},
        {"MEN", 0x5e22196ebff9eca6ULL, 0x0a8b5295b1af0628ULL},
        {"VAR", 0x07608e428f426dcfULL, 0x29adee2c93b5b86cULL},
        {"SCN", 0x7565be248293bf4dULL, 0xf7e162d45794c2b3ULL},
        {"bench_gemm", 0x73063d7b767b13b9ULL, 0x435765c4df5fac35ULL},
        {"bench_conv2d", 0xdc15f0c5fb1d8cc9ULL, 0x814cfd9eb4efbb84ULL},
        {"bench_gemv", 0xc48b961be3e12508ULL, 0x1fe462cfbba31f76ULL},
        {"bench_gemm_i8", 0x126fbb2db10d0708ULL, 0xfbb5297445bcf50fULL},
        {"bench_conv2d_i8", 0x24b0a293556c1c3aULL, 0xf374844933d43264ULL},
    };
    std::vector<EmittedHashes> actual;
    for (auto kind : ops::allOpKinds())
        actual.push_back(
            emittedKernelsHash(makeSmallOp(kind), isa::wmmaTiny()));
    actual.push_back(
        emittedKernelsHash(ops::makeGemm(64, 64, 64), isa::wmmaTiny()));
    actual.push_back(
        emittedKernelsHash(ops::makeConv2d(conv), isa::wmmaTiny()));
    actual.push_back(
        emittedKernelsHash(ops::makeGemv(256, 256), isa::wmmaTiny()));
    actual.push_back(emittedKernelsHash(
        ops::makeQuantizedGemm(64, 64, 64), isa::avx512Vnni()));
    actual.push_back(emittedKernelsHash(
        ops::makeQuantizedConv2d(conv), isa::maliDot()));
    ASSERT_EQ(actual.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(actual[i].reference, golden[i].reference)
            << golden[i].name << " reference: 0x" << std::hex
            << actual[i].reference;
        EXPECT_EQ(actual[i].mapped, golden[i].mapped)
            << golden[i].name << " mapped: 0x" << std::hex
            << actual[i].mapped;
    }
}

TEST(JitCodegen, MappedKernelsNeverDivide)
{
    // Carry levels step their digits with compares and adds, and
    // clamps subtract: no emitted mapped kernel divides, anywhere
    // outside its comments, for any plan of any operator kind.
    auto stripComments = [](std::string src) {
        for (std::size_t at; (at = src.find("/*")) != std::string::npos;)
            src.erase(at, src.find("*/", at) + 2 - at);
        return src;
    };
    int carried = 0;
    for (auto kind : ops::allOpKinds()) {
        TensorComputation comp = makeSmallOp(kind);
        for (const auto &plan : enumeratePlans(comp, isa::wmmaTiny(), {})) {
            SCOPED_TRACE(plan.mapping().signature(comp));
            ExecPlan ep(plan);
            ASSERT_TRUE(ep.compiled()) << ep.fallbackReason();
            carried += !ep.lowered(ExecPlan::Sweep::Direct).carries.empty();
            for (const std::string &src :
                 {generateDirectKernelC(ep, "a % b / c"),
                  generatePackedKernelC(ep, "a % b / c")}) {
                const std::string code = stripComments(src);
                EXPECT_EQ(code.find('%'), std::string::npos) << src;
                EXPECT_EQ(code.find('/'), std::string::npos) << src;
            }
        }
    }
    EXPECT_GT(carried, 0);
}

TEST(JitTier, QuantizedMappedPathsBitExact)
{
    // int8 accumulation is exact, so the JIT tier must agree with the
    // interpreter bit for bit — no tolerance — on both mapped paths.
    auto q = ops::makeQuantizedGemm(4, 5, 8);
    auto plans = enumeratePlans(q, isa::avx512Vnni(), {});
    ASSERT_GT(plans.size(), 0u);
    ExecReport direct, packed;
    auto res = engineVsInterpreterCompare(
        plans[0], ExecEngine::Jit, quant::ToleranceSpec::exactly(), 7,
        1, &direct, &packed);
    EXPECT_TRUE(res.pass) << res.summary();
    if (jitCompilerUsable()) {
        EXPECT_EQ(direct.engine, "jit") << direct.jitFallback;
        EXPECT_EQ(packed.engine, "jit") << packed.jitFallback;
    }
}

TEST(JitTier, QuantizedReferencePathBitExact)
{
    auto q = ops::makeQuantizedGemm(4, 5, 8);
    auto inputs = makePatternInputs(q, 11);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    ExecOptions interp;
    interp.engine = ExecEngine::Interpreter;
    ExecOptions jit;
    jit.engine = ExecEngine::Jit;

    Buffer viaInterp(q.output()), viaJit(q.output());
    referenceExecute(q, ptrs, viaInterp, interp);
    ExecReport report = referenceExecute(q, ptrs, viaJit, jit);

    EXPECT_TRUE(viaJit.bitEqual(viaInterp));
    if (jitCompilerUsable())
        EXPECT_EQ(report.engine, "jit") << report.jitFallback;
}

TEST(JitCache, MemoryHitAfterFirstCompile)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitEngine engine(scratchOptions("memhit"));
    const std::string src = tinyKernel("memhit");

    std::string why;
    ExecKernelFn first = engine.getOrCompile(src, &why);
    ASSERT_NE(first, nullptr) << why;
    ExecKernelFn second = engine.getOrCompile(src, &why);
    EXPECT_EQ(first, second);
    EXPECT_EQ(engine.stats().compiles, 1);
    EXPECT_EQ(engine.stats().memoryHits, 1);
    EXPECT_EQ(engine.stats().diskHits, 0);

    const float one = 41.0f;
    const void *inputs[1] = {&one};
    float out = 0.0f;
    first(inputs, &out);
    EXPECT_EQ(out, 42.0f);
}

TEST(JitCache, RestartWarmStartsFromDisk)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitOptions opts = scratchOptions("warm");
    const std::string src = tinyKernel("warm");
    {
        JitEngine cold(opts);
        std::string why;
        ASSERT_NE(cold.getOrCompile(src, &why), nullptr) << why;
        EXPECT_EQ(cold.stats().compiles, 1);
    }
    // "Restart": a fresh engine over the same cache dir must dlopen
    // the installed object instead of recompiling.
    JitEngine warm(opts);
    std::string why;
    ASSERT_NE(warm.getOrCompile(src, &why), nullptr) << why;
    EXPECT_EQ(warm.stats().compiles, 0);
    EXPECT_EQ(warm.stats().diskHits, 1);
}

TEST(JitCache, CorruptCachedObjectIsRebuilt)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitOptions opts = scratchOptions("corrupt");
    const std::string src = tinyKernel("corrupt");
    JitEngine engine(opts);

    // Plant a truncated/garbage .so where the kernel would live; the
    // engine must evict and recompile, never crash.
    std::filesystem::create_directories(opts.cacheDir);
    {
        std::ofstream garbage(engine.cachePathFor(src));
        garbage << "this is not a shared object";
    }
    std::string why;
    ExecKernelFn fn = engine.getOrCompile(src, &why);
    ASSERT_NE(fn, nullptr) << why;
    EXPECT_EQ(engine.stats().compiles, 1);
    EXPECT_EQ(engine.stats().diskHits, 0);
}

TEST(JitCache, ConcurrentCompilesCoalesce)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitEngine engine(scratchOptions("coalesce"));
    const std::string src = tinyKernel("coalesce");

    constexpr int kThreads = 8;
    std::atomic<int> successes{0};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        workers.emplace_back([&] {
            std::string why;
            if (engine.getOrCompile(src, &why) != nullptr)
                successes.fetch_add(1);
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(successes.load(), kThreads);
    // All racing requests must have coalesced onto one compile.
    EXPECT_EQ(engine.stats().compiles, 1);
}

TEST(JitCache, FailedCompileIsCachedNegatively)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitEngine engine(scratchOptions("negative"));
    const std::string src = "this is not C at all {{{";

    std::string why1, why2;
    EXPECT_EQ(engine.getOrCompile(src, &why1), nullptr);
    EXPECT_EQ(engine.getOrCompile(src, &why2), nullptr);
    EXPECT_NE(why1, "");
    EXPECT_EQ(why1, why2);
    // Diagnosed once, not per execution.
    EXPECT_EQ(engine.stats().failures, 1);
}

TEST(JitCache, MissingCompilerReportsWhy)
{
    JitOptions opts = scratchOptions("nocc");
    opts.compiler = "/nonexistent/amos-jit-cc";
    JitEngine engine(opts);
    std::string why;
    EXPECT_EQ(engine.getOrCompile(tinyKernel("nocc"), &why), nullptr);
    EXPECT_NE(why.find("not available"), std::string::npos) << why;
    EXPECT_FALSE(engine.compilerAvailable());
}

/** The pid of a child that has exited and been reaped. */
pid_t
reapedPid()
{
    pid_t child = ::fork();
    if (child == 0)
        ::_exit(0);
    int status = 0;
    ::waitpid(child, &status, 0);
    return child;
}

TEST(JitCache, DeadCompilersTempsAreSwept)
{
    // The engine names its source and object temps in
    // writeFileAtomic's form (`.tmp.<pid>.<n>`) and sweeps the cache
    // dir once: a reaped child's temps are removed, a live pid's are
    // kept. A fake compiler records the paths it is handed, so the
    // names themselves are checked against that form.
    JitOptions opts = scratchOptions("orphans");
    std::filesystem::create_directories(opts.cacheDir);
    const std::string dir = opts.cacheDir + "/";
    const pid_t dead = reapedPid();
    ASSERT_GT(dead, 0);
    const std::string live = std::to_string(::getpid());
    const std::string stem = dir + "amos_jit_00000000000000ab";
    const std::vector<std::string> orphans = {
        stem + ".c.tmp." + std::to_string(dead) + ".0",
        stem + ".so.tmp." + std::to_string(dead) + ".1"};
    const std::string kept = stem + ".c.tmp." + live + ".7";
    for (const auto &path : orphans)
        std::ofstream(path) << "x";
    std::ofstream(kept) << "x";
    opts.compiler = dir + "fake-cc";
    {
        std::ofstream cc(opts.compiler);
        cc << "#!/bin/sh\necho \"$@\" > " << dir << "args\nexit 1\n";
    }
    std::filesystem::permissions(opts.compiler,
                                 std::filesystem::perms::owner_all);

    auto &removed =
        MetricsRegistry::global().counter("jit.orphan_temps_removed");
    const std::uint64_t before = removed.value();
    JitEngine engine(opts);
    std::string why;
    EXPECT_EQ(engine.getOrCompile(tinyKernel("orphans"), &why), nullptr);
    EXPECT_NE(why.find("exit 1"), std::string::npos) << why;
    for (const auto &path : orphans)
        EXPECT_FALSE(std::filesystem::exists(path)) << path;
    EXPECT_TRUE(std::filesystem::exists(kept));
    EXPECT_EQ(removed.value(), before + orphans.size());

    std::ifstream argsFile(dir + "args");
    std::string args((std::istreambuf_iterator<char>(argsFile)),
                     std::istreambuf_iterator<char>());
    const std::string key = cachePathStem(engine, tinyKernel("orphans"));
    const std::string tmp = ".tmp." + live + ".";
    EXPECT_NE(args.find("-o " + key + ".so" + tmp), std::string::npos)
        << args;
    EXPECT_NE(args.find("-x c " + key + ".c" + tmp), std::string::npos)
        << args;
    // The failed compile cleaned up after itself.
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().string();
        EXPECT_TRUE(name.find(".tmp.") == std::string::npos || name == kept)
            << name;
    }
    std::filesystem::remove_all(opts.cacheDir);
}

TEST(JitCache, KeysSeparateConfigurations)
{
    JitOptions a = scratchOptions("keys");
    JitOptions b = a;
    b.flags = a.flags + " -DSOMETHING";
    JitEngine ea(a), eb(b);
    const std::string src = tinyKernel("keys");
    EXPECT_NE(ea.keyFor(src), eb.keyFor(src));
    EXPECT_EQ(ea.keyFor(src), JitEngine(a).keyFor(src));
    EXPECT_NE(ea.keyFor(src), ea.keyFor(src + " "));
}

TEST(JitCache, KeyIsHashOfCompilerFlagsAndSource)
{
    // The key is FNV-1a over "compiler\nflags\nsource": streaming the
    // parts must give exactly the hash of their concatenation, so
    // amos_jit_<key>.so names written by earlier builds stay valid.
    JitOptions opts = scratchOptions("keyform");
    const std::string src = tinyKernel("keyform");
    EXPECT_EQ(JitEngine(opts).keyFor(src),
              fnv1a(opts.compiler + "\n" + opts.flags + "\n" +
                               src));
    opts.compiler = "cc-test";
    opts.flags = "";
    EXPECT_EQ(JitEngine(opts).keyFor(""),
              fnv1a(std::string("cc-test\n\n")));
    // Known FNV-1a 64 vectors.
    EXPECT_EQ(fnv1a(std::string()), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a(std::string("a")), 0xaf63dc4c8601ec8cULL);
}

TEST(JitTier, UnlinkedHookFallsBackToWalk)
{
    // Simulate a binary built without amos_jit: clear the hooks and
    // check the tier degrades to the stride walk with the documented
    // reason and metric, then restore via the ensureLinked escape
    // hatch.
    auto gemm = ops::makeGemm(4, 4, 4);
    auto inputs = makePatternInputs(gemm, 7);
    std::vector<const Buffer *> ptrs;
    for (const auto &b : inputs)
        ptrs.push_back(&b);

    setJitHooks(nullptr);
    auto &fallbacks =
        MetricsRegistry::global().counter("exec.jit_fallback");
    const std::uint64_t before = fallbacks.value();

    ExecOptions jit;
    jit.engine = ExecEngine::Jit;
    Buffer out(gemm.output());
    ExecReport report = referenceExecute(gemm, ptrs, out, jit);
    EXPECT_EQ(report.engine, "walk");
    EXPECT_EQ(report.jitFallback, "jit tier not linked");
    EXPECT_EQ(fallbacks.value(), before + 1);
    // The mapped paths read the same registry.
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);
    Buffer mapped(gemm.output());
    ExecReport direct = executeMappedDirect(plans[0], ptrs, mapped, jit);
    EXPECT_EQ(direct.engine, "walk");
    EXPECT_EQ(direct.jitFallback, "jit tier not linked");

    jit::ensureLinked();
    Buffer out2(gemm.output());
    ExecReport restored = referenceExecute(gemm, ptrs, out2, jit);
    if (jitCompilerUsable())
        EXPECT_EQ(restored.engine, "jit") << restored.jitFallback;
    EXPECT_EQ(out.maxAbsDiff(out2), 0.0f);
}

TEST(Codegen, RejectsInvalidPlan)
{
    // The kernel emitters lower only compiled plans: an invalid
    // mapping's ExecPlan names why, and both emitters refuse it.
    ops::ConvParams pr{2, 2, 4, 2, 3, 2, 2, 1, 1, DataType::F16};
    auto conv = ops::makeConv2d(pr);
    ComputeMapping m;
    m.groups = {{0, 1}, {}, {4, 5, 6}};
    MappingPlan plan(conv, isa::wmmaTiny(), m);
    ASSERT_FALSE(plan.valid());
    ExecPlan ep(plan);
    EXPECT_FALSE(ep.compiled());
    EXPECT_THROW(generateDirectKernelC(ep, "invalid"), PanicError);
    EXPECT_THROW(generatePackedKernelC(ep, "invalid"), PanicError);
}

TEST(JitTier, FuzzedNonAffineAccessFallsThrough)
{
    // A non-affine access defeats every compiled tier; with the JIT
    // requested the executors must fall through jit -> walk ->
    // interpreter and still match, bumping exec.jit_fallback for
    // both mapped paths.
    auto gemm = ops::makeGemm(4, 4, 4);
    auto plans = enumeratePlans(gemm, isa::wmmaTiny(), {});
    ASSERT_EQ(plans.size(), 1u);
    auto mutated = gemm.withMutatedInputIndex(
        1, 0, floorDiv(gemm.iters()[2].var * 2, 2));
    MappingPlan plan(mutated, isa::wmmaTiny(), plans[0].mapping());
    ASSERT_TRUE(plan.valid());

    auto &jitFallbacks =
        MetricsRegistry::global().counter("exec.jit_fallback");
    const std::uint64_t before = jitFallbacks.value();
    ExecReport direct, packed;
    EXPECT_EQ(engineVsInterpreterError(plan, ExecEngine::Jit, 7,
                                       &direct, &packed),
              0.0f);
    EXPECT_EQ(jitFallbacks.value(), before + 2);
    EXPECT_EQ(direct.engine, "interpreter");
    EXPECT_EQ(packed.engine, "interpreter");
    EXPECT_NE(direct.jitFallback, "");
}

TEST(JitTier, EngineNamesRoundTrip)
{
    for (ExecEngine e :
         {ExecEngine::Auto, ExecEngine::Interpreter, ExecEngine::Walk,
          ExecEngine::Jit}) {
        auto parsed = parseExecEngine(execEngineName(e));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, e);
    }
    EXPECT_FALSE(parseExecEngine("turbo").has_value());
}

TEST(JitCache, PipelineStagesEmitTraceSpans)
{
    if (!jitCompilerUsable())
        GTEST_SKIP() << "no jit compiler in this environment";
    JitEngine engine(scratchOptions("spans"));
    const std::string src = tinyKernel("spans");
    const std::string key = engine.cachePathFor(src);

    auto &recorder = FlightRecorder::global();
    const std::uint64_t seq = recorder.beginRequest();
    std::string why;
    ExecKernelFn fn;
    {
        FlightScope scope(seq);
        fn = engine.getOrCompile(src, &why);
    }
    ASSERT_NE(fn, nullptr) << why;

    bool compiled = false, opened = false;
    for (const auto &span : recorder.harvest(seq)) {
        if (std::string(span.name) == "jit.compile") {
            compiled = true;
            // Carries the content-hash cache key for correlation
            // with the on-disk object name.
            Json args = span.argObject();
            ASSERT_TRUE(args.has("key"));
            EXPECT_NE(key.find(args.get("key").asString()),
                      std::string::npos);
        }
        if (std::string(span.name) == "jit.dlopen")
            opened = true;
    }
    EXPECT_TRUE(compiled);
    EXPECT_TRUE(opened);
}

} // namespace
} // namespace amos
