/**
 * @file
 * bench_trace_overhead — measure what the tracing layer costs.
 *
 * Runs the same tuneWithPlans workload three ways: nothing recorded
 * (no request scope, unscoped recording off: every TraceSpan reduces
 * to one thread-local read and one relaxed atomic load), unscoped
 * recording on (the `--trace-out` switch), and one FlightScope per
 * request (the path every served request, traced or not, takes).
 * The scoped overhead is the number CI gates: it must stay under 5%
 * so speculative recording can stay on permanently.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "explore/tuner.hh"
#include "hw/hardware.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "support/logging.hh"
#include "support/trace.hh"

using namespace amos;

namespace {

double
tuneOnce(const std::vector<MappingPlan> &plans,
         const HardwareSpec &hw, const TuneOptions &options)
{
    auto start = std::chrono::steady_clock::now();
    auto result = tuneWithPlans(plans, hw, options);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    expect(result.tensorizable, "bench: workload not tensorizable");
    return ms;
}

double
medianOf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // namespace

int
main()
{
    auto hw = hw::v100();
    auto comp = ops::makeConv2d([] {
        ops::ConvParams p;
        p.batch = 1;
        p.in_channels = 32;
        p.out_channels = 32;
        p.out_h = p.out_w = 14;
        p.kernel_h = p.kernel_w = 3;
        return p;
    }());
    std::vector<MappingPlan> plans;
    for (const auto &intr : hw.intrinsics) {
        if (comp.inputs().size() != intr.compute.numSrcs() ||
            comp.combine() != intr.compute.combine())
            continue;
        for (auto &plan : enumeratePlans(comp, intr, {}))
            plans.push_back(std::move(plan));
    }

    TuneOptions options = bench::benchTuning();
    options.generations = 4;
    options.numThreads = 4;

    bench::banner("trace overhead (tuneWithPlans, conv2d 32x32x14)");
    // Warm-up: touch every code path once before timing.
    tuneOnce(plans, hw, options);

    // Each round times every column once, so a drift in machine
    // speed during the run hits all columns alike instead of
    // whichever runs last.
    const int kRounds = 7;
    FlightRecorder &recorder = FlightRecorder::global();
    std::vector<double> off_ms, on_ms, flight_ms;
    for (int r = 0; r < kRounds; ++r) {
        off_ms.push_back(tuneOnce(plans, hw, options));
        recorder.setRecordUnscoped(true);
        on_ms.push_back(tuneOnce(plans, hw, options));
        recorder.setRecordUnscoped(false);
        recorder.clear();
        {
            // The serving path: one FlightScope per request, spans
            // land in the per-thread rings.
            FlightScope scope(recorder.beginRequest());
            flight_ms.push_back(tuneOnce(plans, hw, options));
        }
        recorder.clear();
    }
    const double off = medianOf(off_ms);
    const double on = medianOf(on_ms);
    const double flight = medianOf(flight_ms);
    std::printf("%-22s %8.2f ms\n", "everything off", off);
    std::printf("%-22s %8.2f ms\n", "unscoped (global)", on);
    std::printf("%-22s %8.2f ms\n", "flight recorder", flight);

    std::printf("\noverhead: global %+.1f%%, flight %+.1f%%\n",
                (on / off - 1.0) * 100.0, (flight / off - 1.0) * 100.0);
    std::printf("acceptance: flight-recorder overhead must stay "
                "< 5%% (gated in CI)\n");

    bench::BenchReport report("trace_overhead", kRounds);
    report.setConfig("workload",
                     Json("tuneWithPlans conv2d 32x32x14, v100"));
    report.setConfig("generations", Json(4));
    report.setConfig("threads", Json(4));
    report.setMetric("off_ms", Json(off));
    report.setMetric("global_ms", Json(on));
    report.setMetric("flight_ms", Json(flight));
    report.setMetric("global_overhead_pct",
                     Json((on / off - 1.0) * 100.0));
    report.setMetric("flight_overhead_pct",
                     Json((flight / off - 1.0) * 100.0));
    // Runs/second views so check_regression.py's *_eps gate covers
    // the baseline and the flight-enabled column.
    report.setMetric("off_eps", Json(1000.0 / off));
    report.setMetric("flight_eps", Json(1000.0 / flight));
    report.write();
    return 0;
}
