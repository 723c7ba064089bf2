/**
 * @file
 * Throughput/latency benchmark for the compilation service.
 *
 * For 1, 4, and 16 concurrent clients, replays a fixed workload of
 * distinct small GEMM compilations against a CompileService twice:
 *
 *   cold — a fresh service with an empty cache: every request runs a
 *          full mapping exploration (or coalesces onto one).
 *   warm — a second service started on the cold run's disk tier with
 *          warm-on-start: every request is a memory-tier replay.
 *
 * Prints a human table to stderr, the standard envelope to stdout,
 * and writes BENCH_serve.json ($AMOS_BENCH_DIR or the working
 * directory). A disk-tier table adds put and disk-get µs at 1k, 4k
 * and 16k stored entries.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "serve/service.hh"
#include "support/str_utils.hh"

namespace {

using namespace amos;
using Clock = std::chrono::steady_clock;

/** Distinct small GEMMs: enough work to explore, fast to replay. */
std::vector<serve::CompileRequest>
workload()
{
    std::vector<serve::CompileRequest> requests;
    for (std::int64_t m : {32, 64, 128})
        for (std::int64_t n : {32, 64})
            for (std::int64_t k : {32, 64}) {
                serve::CompileRequest req;
                req.op = "gemm";
                req.dims = {{"m", m}, {"n", n}, {"k", k}};
                req.hw = "v100";
                req.generations = 4;
                requests.push_back(std::move(req));
            }
    return requests;
}

struct PhaseResult
{
    std::string phase;
    int clients = 0;
    std::size_t requests = 0;
    std::size_t failures = 0;
    double wallMs = 0.0;
    double reqPerSec = 0.0;
    serve::ServeStats stats;
};

/**
 * Each client walks the whole workload once, starting at its own
 * offset so concurrent clients mix distinct and identical requests
 * the way a shared service would see them.
 */
PhaseResult
runPhase(serve::CompileService &service, const std::string &phase,
         int clients, int rounds)
{
    auto requests = workload();
    PhaseResult result;
    result.phase = phase;
    result.clients = clients;
    std::vector<std::size_t> failures(clients, 0);

    auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            for (int round = 0; round < rounds; ++round)
                for (std::size_t i = 0; i < requests.size(); ++i) {
                    const auto &req =
                        requests[(i + c * 3) % requests.size()];
                    if (!service.serve(req).ok)
                        ++failures[c];
                }
        });
    for (auto &t : threads)
        t.join();
    result.wallMs = std::chrono::duration<double, std::milli>(
                        Clock::now() - start)
                        .count();
    result.requests = requests.size() *
                      static_cast<std::size_t>(clients) *
                      static_cast<std::size_t>(rounds);
    for (auto f : failures)
        result.failures += f;
    result.reqPerSec =
        1000.0 * static_cast<double>(result.requests) /
        result.wallMs;
    result.stats = service.stats();
    return result;
}

Json
toJson(const PhaseResult &r)
{
    Json out = Json::object();
    out.set("phase", Json(r.phase));
    out.set("clients", Json(static_cast<std::int64_t>(r.clients)));
    out.set("requests",
            Json(static_cast<std::int64_t>(r.requests)));
    out.set("failures",
            Json(static_cast<std::int64_t>(r.failures)));
    out.set("wall_ms", Json(r.wallMs));
    out.set("req_per_s", Json(r.reqPerSec));
    out.set("compiles", Json(static_cast<std::int64_t>(
                            r.stats.compiles)));
    out.set("coalesced", Json(static_cast<std::int64_t>(
                             r.stats.coalesced)));
    out.set("memory_hits", Json(static_cast<std::int64_t>(
                               r.stats.memoryHits)));
    out.set("p50_ms", Json(r.stats.p50Ms));
    out.set("p95_ms", Json(r.stats.p95Ms));
    out.set("p99_ms", Json(r.stats.p99Ms));
    return out;
}

/** Conv configs: expensive generation-0 pools, worth warm-starting. */
serve::CompileRequest
convRequest(std::int64_t batch, std::int64_t cout)
{
    serve::CompileRequest req;
    req.op = "conv2d";
    req.dims = {{"batch", batch}, {"cin", 32},   {"cout", cout},
                {"size", 14},     {"kernel", 3}};
    req.hw = "v100";
    req.generations = 4;
    return req;
}

struct FamilyResult
{
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double compilePerSec = 0.0;
};

/**
 * The warm-start cold phase: prime a service with donor shapes,
 * then compile held-out members of the same family — every one a
 * cache miss — and measure the per-request compile latency. With
 * warm-start on, the donors seed each miss's generation 0.
 */
FamilyResult
runFamilyPhase(WarmStartMode mode)
{
    serve::ServeOptions options;
    options.workers = 2;
    options.warmStart = mode;
    serve::CompileService service(options);

    for (std::int64_t batch : {4, 8, 16})
        for (std::int64_t cout : {32, 64})
            service.serve(convRequest(batch, cout));

    std::vector<double> latencies;
    for (std::int64_t batch : {6, 12})
        for (std::int64_t cout : {32, 48, 64}) {
            auto t0 = Clock::now();
            auto outcome = service.serve(convRequest(batch, cout));
            latencies.push_back(
                std::chrono::duration<double, std::milli>(
                    Clock::now() - t0)
                    .count());
            if (!outcome.ok || outcome.servedBy != "compile")
                std::fprintf(stderr,
                             "family phase: unexpected %s\n",
                             outcome.servedBy.c_str());
        }

    std::sort(latencies.begin(), latencies.end());
    FamilyResult result;
    result.p50Ms = latencies[latencies.size() / 2];
    result.p99Ms = latencies.back();
    double total_ms = 0.0;
    for (double l : latencies)
        total_ms += l;
    result.compilePerSec =
        1000.0 * static_cast<double>(latencies.size()) / total_ms;
    return result;
}

struct DiskTierRow
{
    std::size_t entries = 0;
    double putUs = 0.0;
    double diskGetUs = 0.0;
};

/**
 * Disk-tier cost at one store size: `entries` puts into a fresh
 * directory, then 1000 gets of distinct keys through a one-entry
 * memory tier, so every get is a disk hit. A flat curve across
 * sizes is the indexed log's contract.
 */
DiskTierRow
runDiskTier(const std::filesystem::path &dir, std::size_t entries)
{
    std::filesystem::remove_all(dir);
    serve::TieredCache::Options options;
    options.memoryCapacity = 1;
    options.diskDir = dir.string();
    serve::TieredCache cache(options);
    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0}, {1}, {4}};

    auto key = [](std::size_t i) {
        return "v100/gemm_" + std::to_string(i) + "_64_64/g4_s2022";
    };
    DiskTierRow row;
    row.entries = entries;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < entries; ++i) {
        entry.cycles = static_cast<double>(i);
        cache.put(key(i), entry);
    }
    row.putUs = std::chrono::duration<double, std::micro>(
                    Clock::now() - t0)
                    .count() /
                static_cast<double>(entries);
    const std::size_t gets = 1000;
    t0 = Clock::now();
    for (std::size_t g = 0; g < gets; ++g)
        cache.get(key(g * 7919 % entries));
    row.diskGetUs = std::chrono::duration<double, std::micro>(
                        Clock::now() - t0)
                        .count() /
                    static_cast<double>(gets);
    std::filesystem::remove_all(dir);
    return row;
}

} // namespace

int
main()
{
    auto dir = std::filesystem::temp_directory_path() /
               ("amos_bench_serve_" + std::to_string(::getpid()));
    std::vector<PhaseResult> results;

    std::fprintf(stderr,
                 "%-6s %-8s %10s %10s %10s %10s\n", "phase",
                 "clients", "req/s", "p50 ms", "p95 ms", "p99 ms");
    for (int clients : {1, 4, 16}) {
        auto shard_dir =
            (dir / std::to_string(clients)).string();
        std::filesystem::remove_all(shard_dir);

        serve::ServeOptions options;
        options.workers = 4;
        options.cache.diskDir = shard_dir;

        PhaseResult cold, warm;
        {
            serve::CompileService service(options);
            cold = runPhase(service, "cold", clients, 1);
            service.drain();
        }
        {
            // Restart on the persisted disk tier: the warm phase
            // never explores, it replays cached plans.
            serve::CompileService service(options);
            warm = runPhase(service, "warm", clients, 4);
        }
        for (const auto &r : {cold, warm})
            std::fprintf(stderr,
                         "%-6s %-8d %10.1f %10.3f %10.3f %10.3f\n",
                         r.phase.c_str(), r.clients, r.reqPerSec,
                         r.stats.p50Ms, r.stats.p95Ms,
                         r.stats.p99Ms);
        results.push_back(cold);
        results.push_back(warm);
    }

    std::fprintf(stderr, "%-10s %10s %12s\n", "entries", "put us",
                 "disk get us");
    std::vector<DiskTierRow> diskRows;
    for (std::size_t entries : {1000, 4000, 16000}) {
        diskRows.push_back(runDiskTier(dir / "disk_tier", entries));
        std::fprintf(stderr, "%-10zu %10.2f %12.2f\n", entries,
                     diskRows.back().putUs, diskRows.back().diskGetUs);
    }
    std::filesystem::remove_all(dir);

    // Warm-start cold-phase columns: repeat-family conv compiles
    // (cache misses, donors present) without and with neighbor
    // seeding.
    auto fam_cold = runFamilyPhase(WarmStartMode::Off);
    auto fam_warm = runFamilyPhase(WarmStartMode::Neighbors);
    std::fprintf(stderr,
                 "%-8s %-8s %10s %10.1f %10.3f %21.3f\n", "famcold",
                 "1", "", fam_cold.compilePerSec, fam_cold.p50Ms,
                 fam_cold.p99Ms);
    std::fprintf(stderr,
                 "%-8s %-8s %10s %10.1f %10.3f %21.3f\n", "famwarm",
                 "1", "", fam_warm.compilePerSec, fam_warm.p50Ms,
                 fam_warm.p99Ms);

    bench::BenchReport report("serve");
    report.setConfig(
        "workload",
        Json("12 distinct gemm configs, v100, generations=4"));
    report.setConfig("workers", Json(static_cast<std::int64_t>(4)));
    report.setConfig("clients", Json("1,4,16"));
    Json arr = Json::array();
    for (const auto &r : results)
        arr.push(toJson(r));
    report.setMetric("results", std::move(arr));
    Json disk = Json::array();
    for (const auto &r : diskRows) {
        Json row = Json::object();
        row.set("entries", Json(static_cast<std::int64_t>(r.entries)));
        row.set("put_us", Json(r.putUs));
        row.set("disk_get_us", Json(r.diskGetUs));
        disk.push(std::move(row));
    }
    report.setMetric("disk_tier", std::move(disk));
    Json family = Json::object();
    family.set("workload",
               Json("6 held-out conv2d configs after 6 donors"));
    family.set("cold_p50_ms", Json(fam_cold.p50Ms));
    family.set("cold_p99_ms", Json(fam_cold.p99Ms));
    family.set("warm_p50_ms", Json(fam_warm.p50Ms));
    family.set("warm_p99_ms", Json(fam_warm.p99Ms));
    family.set("p99_improvement",
               Json(1.0 - fam_warm.p99Ms /
                              std::max(fam_cold.p99Ms, 1e-9)));
    // Gated like every other throughput: compiles per second over
    // the family's cold phase, without and with neighbor seeding.
    family.set("family_cold_compile_eps",
               Json(fam_cold.compilePerSec));
    family.set("family_warmstart_compile_eps",
               Json(fam_warm.compilePerSec));
    report.setMetric("warmstart_family", std::move(family));
    std::printf("%s\n", report.toJson().dump().c_str());
    report.write();

    std::size_t failed = 0;
    for (const auto &r : results)
        failed += r.failures;
    return failed == 0 ? 0 : 1;
}
