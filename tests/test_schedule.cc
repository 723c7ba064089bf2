/**
 * @file
 * Unit tests for schedules: legality, sampling, mutation, crossover,
 * and the reduction-axis restriction.
 */

#include <gtest/gtest.h>

#include "isa/intrinsics.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "schedule/schedule.hh"

namespace amos {
namespace {

MappingPlan
c2dPlan()
{
    ops::ConvParams pr;
    pr.batch = 4;
    pr.in_channels = 16;
    pr.out_channels = 32;
    pr.out_h = 8;
    pr.out_w = 8;
    pr.kernel_h = 3;
    pr.kernel_w = 3;
    auto conv = ops::makeConv2d(pr);
    ComputeMapping m;
    m.groups = {{0, 3}, {1}, {4, 5}}; // n,q | k | c,r
    return MappingPlan(conv, isa::wmma(16, 16, 16), m);
}

TEST(Schedule, DefaultIsAllSerial)
{
    auto plan = c2dPlan();
    auto sched = defaultSchedule(plan);
    ASSERT_EQ(sched.axes.size(), plan.outerAxes().size());
    for (const auto &axis : sched.axes) {
        EXPECT_EQ(axis.blockFactor, 1);
        EXPECT_EQ(axis.warpFactor, 1);
    }
    EXPECT_EQ(sched.stageDepth, 1);
}

TEST(Schedule, ReductionAxisDetection)
{
    auto plan = c2dPlan();
    // Outer axes: unmapped p (spatial), unmapped s (reduction), then
    // group quotients i1.q/i2.q (spatial), r1.q (reduction).
    int reductions = 0;
    for (std::size_t a = 0; a < plan.outerAxes().size(); ++a)
        reductions += plan.outerAxes()[a].reduction;
    EXPECT_EQ(reductions, 2); // s and r1.q
}

TEST(Schedule, SamplingNeverParallelisesReductions)
{
    auto plan = c2dPlan();
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        auto sched = sampleSchedule(plan, rng);
        for (std::size_t a = 0; a < sched.axes.size(); ++a) {
            if (plan.outerAxes()[a].reduction) {
                EXPECT_EQ(sched.axes[a].blockFactor, 1);
                EXPECT_EQ(sched.axes[a].warpFactor, 1);
            } else {
                EXPECT_GE(sched.axes[a].blockFactor, 1);
            }
        }
        EXPECT_TRUE(sched.stageDepth == 1 || sched.stageDepth == 2);
        EXPECT_GE(sched.vectorLanes, 1);
        EXPECT_LE(sched.vectorLanes, 8);
    }
}

TEST(Schedule, SamplingIsDeterministicPerSeed)
{
    auto plan = c2dPlan();
    Rng a(42), b(42);
    for (int i = 0; i < 20; ++i) {
        auto sa = sampleSchedule(plan, a);
        auto sb = sampleSchedule(plan, b);
        EXPECT_EQ(sa.toString(), sb.toString());
    }
}

TEST(Schedule, MutationChangesSomethingEventually)
{
    auto plan = c2dPlan();
    Rng rng(3);
    auto base = sampleSchedule(plan, rng);
    bool changed = false;
    for (int i = 0; i < 50 && !changed; ++i)
        changed = mutateSchedule(plan, base, rng).toString() !=
                  base.toString();
    EXPECT_TRUE(changed);
}

TEST(Schedule, MutationPreservesReductionLegality)
{
    auto plan = c2dPlan();
    Rng rng(11);
    auto sched = sampleSchedule(plan, rng);
    for (int i = 0; i < 200; ++i) {
        sched = mutateSchedule(plan, sched, rng);
        for (std::size_t a = 0; a < sched.axes.size(); ++a) {
            if (plan.outerAxes()[a].reduction) {
                EXPECT_EQ(sched.axes[a].blockFactor, 1);
                EXPECT_EQ(sched.axes[a].warpFactor, 1);
            }
        }
    }
}

TEST(Schedule, CrossoverMixesParents)
{
    auto plan = c2dPlan();
    Rng rng(5);
    auto a = sampleSchedule(plan, rng);
    auto b = sampleSchedule(plan, rng);
    auto child = crossoverSchedules(a, b, rng);
    ASSERT_EQ(child.axes.size(), a.axes.size());
    for (std::size_t i = 0; i < child.axes.size(); ++i) {
        bool from_a =
            child.axes[i].blockFactor == a.axes[i].blockFactor &&
            child.axes[i].warpFactor == a.axes[i].warpFactor;
        bool from_b =
            child.axes[i].blockFactor == b.axes[i].blockFactor &&
            child.axes[i].warpFactor == b.axes[i].warpFactor;
        EXPECT_TRUE(from_a || from_b);
    }
}

TEST(Schedule, CrossoverRejectsMismatchedShapes)
{
    auto plan = c2dPlan();
    Rng rng(9);
    auto a = sampleSchedule(plan, rng);
    Schedule b = a;
    b.axes.pop_back();
    EXPECT_THROW(crossoverSchedules(a, b, rng), PanicError);
}

TEST(Schedule, ToStringMentionsAllKnobs)
{
    auto plan = c2dPlan();
    auto sched = defaultSchedule(plan);
    auto s = sched.toString();
    EXPECT_NE(s.find("stage="), std::string::npos);
    EXPECT_NE(s.find("vec="), std::string::npos);
    EXPECT_NE(s.find("unroll="), std::string::npos);
}

} // namespace
} // namespace amos
