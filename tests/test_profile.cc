/**
 * @file
 * Unit tests for kernel-profile lowering: grid structure, footprint
 * and traffic inference, reuse across non-dependent axes, coalescing
 * strides, validity limits, and the pseudo-code renderer.
 */

#include <gtest/gtest.h>

#include "hw/hardware.hh"
#include "isa/intrinsics.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "schedule/profile.hh"

namespace amos {
namespace {

/** GEMM 64x64x64 on 16x16x16 wmma: 4x4x4 tile grid. */
MappingPlan
gemmPlan()
{
    auto gemm = ops::makeGemm(64, 64, 64);
    ComputeMapping m;
    m.groups = {{0}, {1}, {2}};
    return MappingPlan(gemm, isa::wmma(16, 16, 16), m);
}

TEST(Profile, SerialDefaultGridIsOneBlock)
{
    auto plan = gemmPlan();
    auto hw = hw::v100();
    auto prof = lowerKernel(plan, defaultSchedule(plan), hw);
    EXPECT_EQ(prof.numBlocks, 1);
    EXPECT_EQ(prof.warpsPerBlock, 1);
    EXPECT_EQ(prof.serialCallsPerWarp, 4 * 4 * 4);
    EXPECT_EQ(prof.totalCalls, 64);
    EXPECT_DOUBLE_EQ(prof.paddingWaste, 1.0);
    EXPECT_EQ(prof.usefulOps, 64 * 64 * 64);
}

TEST(Profile, BlockAndWarpSplitsMultiply)
{
    auto plan = gemmPlan();
    auto hw = hw::v100();
    auto sched = defaultSchedule(plan);
    // Axes: i1.q (4), i2.q (4), r1.q (4, reduction).
    sched.axes[0].blockFactor = 2;
    sched.axes[0].warpFactor = 2;
    sched.axes[1].blockFactor = 4;
    auto prof = lowerKernel(plan, sched, hw);
    EXPECT_EQ(prof.numBlocks, 8);
    EXPECT_EQ(prof.warpsPerBlock, 2);
    // serial: i1 4/(2*2)=1, i2 4/4=1, r1 4.
    EXPECT_EQ(prof.serialCallsPerWarp, 4);
}

TEST(Profile, ReductionAxisCannotBeParallel)
{
    auto plan = gemmPlan();
    auto sched = defaultSchedule(plan);
    sched.axes[2].blockFactor = 2; // r1.q is the third axis
    EXPECT_THROW(lowerKernel(plan, sched, hw::v100()), PanicError);
}

TEST(Profile, ScheduleShapeMismatchPanics)
{
    auto plan = gemmPlan();
    Schedule sched;
    sched.axes.resize(1);
    EXPECT_THROW(lowerKernel(plan, sched, hw::v100()), PanicError);
}

TEST(Profile, OperandReuseAcrossNonDependentAxes)
{
    auto plan = gemmPlan();
    auto hw = hw::v100();
    auto prof = lowerKernel(plan, defaultSchedule(plan), hw);
    ASSERT_EQ(prof.operands.size(), 3u);
    const auto &a = prof.operands[0]; // Src1[i1,r1]: 4x4 tiles
    const auto &b = prof.operands[1]; // Src2[r1,i2]: 4x4 tiles
    const auto &c = prof.operands[2]; // Dst[i1,i2]: 4x4 tiles
    // One serial warp touches every tile of A and B but its 16
    // accumulator tiles only once each.
    EXPECT_EQ(a.tilesPerWarp, 16);
    EXPECT_EQ(b.tilesPerWarp, 16);
    EXPECT_EQ(c.tilesPerWarp, 16);
    EXPECT_EQ(a.tilesTotal, 16);
    EXPECT_EQ(c.tilesTotal, 16);
    EXPECT_TRUE(c.isOutput);
}

TEST(Profile, TrafficScalesWithBlockTile)
{
    auto plan = gemmPlan();
    auto hw = hw::v100();
    auto whole = lowerKernel(plan, defaultSchedule(plan), hw);
    auto sched = defaultSchedule(plan);
    sched.axes[0].blockFactor = 4; // split i1 across 4 blocks
    auto split = lowerKernel(plan, sched, hw);
    // Each block now loads a quarter of A but all of B.
    EXPECT_LT(split.globalLoadBytesPerBlock,
              whole.globalLoadBytesPerBlock);
    EXPECT_EQ(split.numBlocks, 4);
    // Store traffic per block shrinks by 4.
    EXPECT_EQ(split.globalStoreBytesPerBlock * 4,
              whole.globalStoreBytesPerBlock);
}

TEST(Profile, SharedFootprintTracksStagingAndDepth)
{
    auto plan = gemmPlan();
    auto hw = hw::v100();
    auto sched = defaultSchedule(plan);
    auto prof1 = lowerKernel(plan, sched, hw);
    sched.stageDepth = 2;
    auto prof2 = lowerKernel(plan, sched, hw);
    EXPECT_EQ(prof2.sharedBytesPerBlock,
              2 * prof1.sharedBytesPerBlock);
    EXPECT_GT(prof1.sharedBytesPerBlock, 0);
}

TEST(Profile, RegisterFootprintIncludesAccumulators)
{
    auto plan = gemmPlan();
    auto hw = hw::v100();
    auto sched = defaultSchedule(plan);
    auto prof = lowerKernel(plan, sched, hw);
    // 16 accumulator tiles of 16x16 f16 plus two staged fragments.
    EXPECT_GE(prof.regBytesPerWarp, 16 * 512);
}

TEST(Profile, CapacityViolationFlagsInvalid)
{
    // A giant GEMM staged without splitting blows shared memory.
    auto gemm = ops::makeGemm(4096, 4096, 64);
    ComputeMapping m;
    m.groups = {{0}, {1}, {2}};
    MappingPlan plan(gemm, isa::wmma(16, 16, 16), m);
    auto hw = hw::v100();
    auto prof = lowerKernel(plan, defaultSchedule(plan), hw);
    EXPECT_FALSE(prof.fitsShared || prof.fitsRegs);
    EXPECT_FALSE(prof.valid());
    EXPECT_NE(prof.toString().find("INVALID"), std::string::npos);
}

TEST(Profile, ContiguousRunFollowsSoftwareLayout)
{
    // GEMM tiles: A[i,k] with i -> i1, k -> r1. Within a tile, k is
    // unit stride with extent 64, and i (stride 64) chains onto it:
    // the whole tile is one contiguous run. For B[k,j], j is unit
    // stride (extent 64) and k chains at stride 64.
    auto plan = gemmPlan();
    auto prof = lowerKernel(plan, defaultSchedule(plan), hw::v100());
    EXPECT_EQ(prof.operands[0].contiguousRun, 64 * 64);
    EXPECT_EQ(prof.operands[1].contiguousRun, 64 * 64);
    EXPECT_EQ(prof.operands[2].contiguousRun, 64 * 64);
}

TEST(Profile, ShortRunsDetectedOnTransposedAccess)
{
    // GEMM against a transposed B (B[j,k] accessed as [j,k] but the
    // intrinsic wants Src2[r1,i2]): within the tile, k (r1) has
    // stride 1... build instead a column-major A: A[k,i] so that the
    // i-direction is strided and k contiguous only via extent.
    std::int64_t m = 64, n = 64, kk = 8;
    IterVar i{Var("i"), m, IterKind::Spatial};
    IterVar j{Var("j"), n, IterKind::Spatial};
    IterVar r{Var("k"), kk, IterKind::Reduction};
    TensorDecl a("A", {m, kk}); // row-major: k unit stride, extent 8
    TensorDecl b("B", {kk, n});
    TensorDecl out("out", {m, n});
    TensorComputation gemm("gemm_shallow", {i, j, r}, out,
                           {i.var, j.var},
                           {{a, {i.var, r.var}},
                            {b, {r.var, j.var}}});
    ComputeMapping cm;
    cm.groups = {{0}, {1}, {2}};
    MappingPlan plan(gemm, isa::wmma(16, 16, 16), cm);
    auto prof = lowerKernel(plan, defaultSchedule(plan), hw::v100());
    // A's run: k unit-stride extent 8, then i chains at stride 8:
    // full 512; B's run: j unit stride extent 64, k chains at 64.
    EXPECT_EQ(prof.operands[0].contiguousRun, 8 * 64);
    EXPECT_EQ(prof.operands[1].contiguousRun, 64 * 8);
}

TEST(Profile, GatherMappingHasShortRun)
{
    // C2D mapped with r1 = {r} only: the image tile walks p,q
    // (via i1) and r. q is unit stride (extent 8) but r's stride is
    // the image width (10), which does not chain: run stays 8. The
    // weight tile walks k (stride 9) and r (stride 3): no unit
    // stride at all, run 1.
    ops::ConvParams pr;
    pr.batch = 16;
    pr.in_channels = 32;
    pr.out_channels = 32;
    pr.out_h = 8;
    pr.out_w = 8;
    pr.kernel_h = 3;
    pr.kernel_w = 3;
    auto conv = ops::makeConv2d(pr);
    ComputeMapping gather;
    gather.groups = {{2, 3}, {1}, {5}}; // p,q | k | r
    MappingPlan plan(conv, isa::wmma(16, 16, 16), gather);
    auto prof = lowerKernel(plan, defaultSchedule(plan), hw::v100());
    EXPECT_EQ(prof.operands[0].contiguousRun, 8);
    EXPECT_EQ(prof.operands[1].contiguousRun, 1);
}

TEST(Profile, NonAffineOperandFailsAtLoweringNotAtPlanBuild)
{
    // Only the fuzz hook can build a non-affine access. The plan still
    // builds (its plan-invariant operand analysis records the failure)
    // and lowering raises, as it always did.
    auto gemm = ops::makeGemm(64, 64, 64);
    auto mutated = gemm.withMutatedInputIndex(
        1, 0, floorDiv(gemm.iters()[2].var * 2, 2));
    ComputeMapping m;
    m.groups = {{0}, {1}, {2}};
    MappingPlan plan(mutated, isa::wmma(16, 16, 16), m);
    ASSERT_TRUE(plan.valid());
    EXPECT_THROW(lowerKernel(plan, defaultSchedule(plan), hw::v100()),
                 PanicError);
}

TEST(Profile, PaddingWasteFlowsThrough)
{
    auto gemm = ops::makeGemm(20, 16, 16); // 20 pads to 32
    ComputeMapping m;
    m.groups = {{0}, {1}, {2}};
    MappingPlan plan(gemm, isa::wmma(16, 16, 16), m);
    auto prof = lowerKernel(plan, defaultSchedule(plan), hw::v100());
    EXPECT_NEAR(prof.paddingWaste, 32.0 / 20.0, 1e-9);
    EXPECT_EQ(prof.totalCalls, 2);
}

TEST(Profile, PseudoCodeMentionsStructure)
{
    auto plan = gemmPlan();
    auto hw = hw::v100();
    auto sched = defaultSchedule(plan);
    sched.axes[0].blockFactor = 4;
    auto code = renderPseudoCode(plan, sched, hw);
    EXPECT_NE(code.find("wmma_16x16x16"), std::string::npos);
    EXPECT_NE(code.find("bind blockIdx"), std::string::npos);
    EXPECT_NE(code.find("reg.Src1 = shared.Src1"),
              std::string::npos);
    EXPECT_NE(code.find("global.Dst"), std::string::npos);
}

} // namespace
} // namespace amos
