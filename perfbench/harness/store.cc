/**
 * @file
 * store: pre-build the serve_hotset disk store through the library's
 * own CompileService, so its keys and entries are exactly what a
 * server writes.
 *
 *   --requests FILE   store request lines
 *   --cache-dir DIR   fresh directory to fill
 *   --out FILE        per request: id, cycles (tab separated)
 *   Prints {"build_s":..,"entries":..}.
 *
 * check-cold: the compile_cold output check. Each sampled request is
 * compiled again in-process (same protocol translation the server
 * uses); its winning plan then runs on the stride-walk engine and is
 * compared with the reference interpreter on pattern inputs.
 *
 *   --requests FILE   sampled request lines; execution is skipped
 *                     above 4M iterations (the interpreter is slow)
 *   Prints [{"id","signature","cycles","executed","engine",
 *            "max_abs_diff"},..].
 */

#include <iomanip>
#include <iostream>
#include <sstream>

#include "harness.hh"
#include "mapping/execute.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"
#include "support/logging.hh"
#include "tensor/reference.hh"

namespace pbench {

int
runStoreBuild(const Args &args)
{
    const auto lines = readLines(args.str("requests"));
    auto t0 = Clock::now();
    amos::serve::ServeOptions options;
    options.workers = 0; // one per hardware thread
    options.maxQueue = lines.size() + 1;
    options.cache.diskDir = args.str("cache-dir");
    options.cache.memoryCapacity = 0;
    options.warmOnStart = false;
    std::ostringstream out;
    out << std::setprecision(17);
    std::size_t entries = 0;
    {
        amos::serve::CompileService service(options);
        std::vector<amos::serve::CompileRequest> reqs;
        std::vector<amos::serve::CompileService::Ticket> tickets;
        for (const auto &line : lines) {
            reqs.push_back(amos::serve::CompileRequest::fromJson(
                amos::Json::parse(line)));
            tickets.push_back(service.submit(reqs.back()));
        }
        for (std::size_t i = 0; i < tickets.size(); ++i) {
            auto outcome = service.wait(tickets[i]);
            amos::expect(outcome.ok, "store request ", reqs[i].id,
                         " failed: ", outcome.message);
            out << reqs[i].id << '\t' << outcome.result.cycles << '\n';
        }
        service.drain();
    }
    const double build = secondsBetween(t0, Clock::now());
    {
        amos::serve::TieredCache::Options copt;
        copt.diskDir = args.str("cache-dir");
        amos::serve::TieredCache probe(copt);
        entries = probe.diskSize();
    }
    writeFile(args.str("out"), out.str());
    amos::Json summary = amos::Json::object();
    summary.set("build_s", amos::Json(build));
    summary.set("entries",
                amos::Json(static_cast<std::int64_t>(entries)));
    std::cout << summary.dump() << std::endl;
    return 0;
}

int
runColdCheck(const Args &args)
{
    const auto lines = readLines(args.str("requests"));
    const double maxElements = 4e6;
    amos::Json out = amos::Json::array();
    for (const auto &line : lines) {
        auto req = amos::serve::CompileRequest::fromJson(
            amos::Json::parse(line));
        auto comp = amos::serve::computationFromRequest(req);
        auto hw = amos::serve::hardwareFromRequest(req);
        auto options = amos::serve::tuneOptionsFromRequest(req);
        auto result = amos::Compiler(hw, options).compile(comp);

        amos::Json row = amos::Json::object();
        row.set("id", amos::Json(req.id));
        row.set("signature", amos::Json(result.mappingSignature));
        row.set("cycles", amos::Json(result.cycles));
        bool run = result.tuning.bestPlan.has_value() &&
                   static_cast<double>(comp.totalIterations()) <=
                       maxElements;
        row.set("executed", amos::Json(run));
        if (run) {
            auto inputs = amos::makePatternInputs(comp, req.seed);
            std::vector<const amos::Buffer *> ptrs;
            for (const auto &b : inputs)
                ptrs.push_back(&b);
            amos::Buffer ref(comp.output());
            ref.fill(0.0f);
            amos::ExecOptions interp;
            interp.engine = amos::ExecEngine::Interpreter;
            amos::referenceExecute(comp, ptrs, ref, interp);
            amos::Buffer mapped(comp.output());
            mapped.fill(0.0f);
            amos::ExecOptions walk;
            walk.engine = amos::ExecEngine::Walk;
            auto report = amos::executeMappedDirect(
                *result.tuning.bestPlan, ptrs, mapped, walk);
            row.set("engine", amos::Json(report.engine));
            row.set("max_abs_diff",
                    amos::Json(static_cast<double>(ref.maxAbsDiff(mapped))));
        }
        out.push(std::move(row));
    }
    std::cout << out.dump() << std::endl;
    return 0;
}

} // namespace pbench
