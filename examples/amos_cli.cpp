/**
 * @file
 * amos_cli — command-line front end to the compiler.
 *
 * Compile an operator for a modelled accelerator, optionally through
 * a persistent tuning cache (--cache DIR: the same shard-log store
 * as amos_served --cache-dir, docs/serving.md), list its valid
 * mappings, or emit the generated C kernel.
 *
 * Examples:
 *   amos_cli --op conv2d --batch 16 --cin 128 --cout 128 \
 *            --size 28 --kernel 3 --hw v100
 *   amos_cli --op gemm --m 512 --n 512 --k 512 --hw a100 \
 *            --cache /tmp/amos-cache --threads 8
 *   amos_cli --op gemm --m 256 --n 256 --k 256 --hw v100 --json \
 *       | jq .result.gflops
 *   amos_cli --op depthwise --batch 1 --cin 128 --size 28 \
 *            --kernel 3 --hw mali --list-mappings
 *   amos_cli --op conv2d --batch 2 --cin 4 --cout 8 --size 4 \
 *            --kernel 3 --hw v100 --emit-c /tmp/kernel.c
 *   amos_cli --op conv2d --size 14 --hw v100 \
 *            --trace-out /tmp/trace.json   # Chrome/Perfetto trace
 *   amos_cli --op conv2d --size 14 --hw v100 \
 *            --flight-dump /tmp/flight.json  # flight-recorder dump
 *   amos_cli --op conv2d --size 14 --hw v100 \
 *            --explain-out /tmp/explain.json   # bottleneck report
 *   amos_cli --op gemv --m 1024 --k 1024 --hw v100 --explain
 *   amos_cli --op gemm --m 64 --n 64 --k 64 --hw v100 \
 *            --engine jit --json | jq .engine   # "jit"
 *   amos_cli --op gemm --m 256 --n 256 --k 256 --hw xeon \
 *            --dtype u8i8   # int8 GEMM on the VNNI intrinsic
 *   amos_cli --op conv2d --size 14 --hw mali --dtype i8
 *   amos_cli --op gemm --m 320 --n 64 --k 64 --hw v100 \
 *            --cache /tmp/amos-cache --warm-start neighbors
 *   amos_cli --op gemm --m 256 --n 256 --k 256 --hw v100 \
 *            --model-snapshot /tmp/model.json   # trained screen
 *
 * --warm-start off|neighbors|model|both seeds the exploration from
 * the nearest cached winners (neighbors modes need --cache) and/or
 * screens with a pre-trained model; --model-snapshot FILE loads the
 * snapshot (and implies a model mode). See docs/exploration.md.
 *
 * --dtype selects the operand typing (f16 default, f32, bf16, i8,
 * u8i8); quantized typings accumulate exactly into i32 and only
 * match dtype-legal intrinsics (docs/abstraction.md).
 *
 * Scripting contract:
 *   --json writes a single machine-readable object to stdout (the
 *   same schema as one amos_served response line); human chatter
 *   goes to stderr. The envelope always carries an "engine" field:
 *   the functional-simulator tier that verified the tuned mapping
 *   ("jit", "walk" or "interpreter"), or "none" when verification
 *   was skipped. Exit codes: 0 success, 1 compile/config error,
 *   2 bad usage, 3 the operator could not be tensorized and
 *   --require-tensorized was given, 4 an output path (--trace-out,
 *   --flight-dump, --explain-out, --telemetry-out, --emit-c) is
 *   not writable or the --cache path cannot be a directory.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>

#include "amos/amos.hh"
#include "codegen/codegen.hh"
#include "explore/trace_io.hh"
#include "mapping/execute.hh"
#include "mapping/generate.hh"
#include "report/explain.hh"
#include "serve/protocol.hh"
#include "serve/tiered_cache.hh"
#include "support/atomic_file.hh"
#include "support/trace.hh"

namespace {

using namespace amos;

/** An output file the user named cannot be written (exit code 4). */
class IoError : public std::runtime_error
{
  public:
    explicit IoError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/**
 * Fail fast on an unwritable output path *before* spending the
 * exploration: probing in append mode creates missing files without
 * truncating existing ones.
 */
void
requireWritable(const std::string &path, const char *flagName)
{
    if (path.empty())
        return;
    std::ofstream probe(path, std::ios::app);
    if (!probe.good())
        throw IoError(std::string(flagName) + ": cannot open '" +
                      path + "' for writing");
}

void
writeFileOrThrow(const std::string &path,
                 const std::string &content, const char *flagName)
{
    try {
        writeFileAtomic(path, content);
    } catch (const FatalError &) {
        throw IoError(std::string(flagName) + ": failed writing '" +
                      path + "'");
    }
}

/**
 * Open the --cache store with every entry in memory, so each stored
 * winner is a warm-start donor.
 */
std::unique_ptr<serve::TieredCache>
openCache(const std::string &dir)
{
    serve::TieredCache::Options options;
    options.diskDir = dir;
    options.memoryCapacity = 0;
    try {
        auto cache = std::make_unique<serve::TieredCache>(options);
        cache->warm();
        return cache;
    } catch (const std::filesystem::filesystem_error &e) {
        throw IoError("--cache: cannot use '" + dir +
                      "' as a cache directory (" +
                      e.code().message() + ")");
    }
}

struct Args
{
    std::map<std::string, std::string> values;

    std::int64_t
    num(const std::string &key, std::int64_t fallback) const
    {
        auto it = values.find(key);
        return it == values.end() ? fallback
                                  : std::stoll(it->second);
    }

    std::string
    str(const std::string &key, const std::string &fallback) const
    {
        auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }

    bool
    flag(const std::string &key) const
    {
        return values.count(key) > 0;
    }
};

/**
 * The CLI describes the same compilations as the serve protocol;
 * building a CompileRequest keeps operator construction and dim
 * defaults in one place (serve::computationFromRequest).
 */
serve::CompileRequest
requestFromArgs(const Args &args)
{
    serve::CompileRequest req;
    req.op = args.str("op", "conv2d");
    req.hw = args.str("hw", "v100");
    req.dtype = args.str("dtype", "f16");
    for (const char *key :
         {"batch", "cin", "cout", "size", "kernel", "stride",
          "dilation", "m", "n", "k", "depth", "kdepth",
          "multiplier", "groups"}) {
        auto it = args.values.find(key);
        if (it != args.values.end())
            req.dims[key] = std::stoll(it->second);
    }
    req.generations =
        static_cast<int>(args.num("generations", 8));
    req.seed = static_cast<std::uint64_t>(args.num("seed", 2022));
    // Exploration worker threads; the tuned result is identical for
    // every value (0 = one per hardware thread).
    req.numThreads = static_cast<int>(args.num("threads", 0));
    req.warmStart = args.str("warm-start", "");
    return req;
}

int
runCli(const Args &args)
{
    auto req = requestFromArgs(args);
    auto hw = serve::hardwareFromRequest(req);
    auto comp = serve::computationFromRequest(req);
    bool json = args.flag("json");

    // --trace-out FILE: record the whole compilation as a Chrome
    // trace-event document (load in Perfetto or chrome://tracing).
    FlightRecorder &recorder = FlightRecorder::global();
    std::string trace_path = args.str("trace-out", "");
    if (!trace_path.empty()) {
        recorder.setCapacityPerThread(kTraceOutSpansPerThread);
        recorder.setRecordUnscoped(true);
    }

    // Output paths are probed before the exploration runs: a typo'd
    // directory should cost milliseconds, not the whole tune.
    std::string explain_path = args.str("explain-out", "");
    std::string telemetry_path = args.str("telemetry-out", "");
    std::string emit_path = args.str("emit-c", "");
    std::string flight_path = args.str("flight-dump", "");
    requireWritable(trace_path, "--trace-out");
    requireWritable(explain_path, "--explain-out");
    requireWritable(telemetry_path, "--telemetry-out");
    requireWritable(emit_path, "--emit-c");
    requireWritable(flight_path, "--flight-dump");

    // --flight-dump FILE: run the compilation under a flight-
    // recorder scope (exactly what the serve layer does per
    // request) and dump the rings afterwards.
    std::optional<FlightScope> flight_scope;
    if (!flight_path.empty())
        flight_scope.emplace(recorder.beginRequest());

    if (!json) {
        std::printf("%s", comp.toString().c_str());
        std::printf("target: %s\n\n", hw.name.c_str());
    }

    TuneOptions tune_options = serve::tuneOptionsFromRequest(req);
    // --model-snapshot FILE: screen with a pre-trained model from
    // generation 0. An unloadable snapshot is a hard error here —
    // the user asked for it by name — unlike the serve layer, which
    // degrades to analytic screening.
    std::string model_path = args.str("model-snapshot", "");
    if (!model_path.empty()) {
        auto loaded = LearnedModel::loadFile(model_path);
        if (!loaded)
            throw std::runtime_error(
                "--model-snapshot: cannot load '" + model_path +
                "' (unreadable, unparseable, or wrong schema)");
        tune_options.warmStart.model =
            std::make_shared<const LearnedModel>(
                std::move(*loaded));
        if (!warmStartUsesModel(tune_options.warmStart.mode))
            tune_options.warmStart.mode =
                tune_options.warmStart.mode ==
                        WarmStartMode::Neighbors
                    ? WarmStartMode::Both
                    : WarmStartMode::Model;
    }
    Compiler compiler(hw, tune_options);

    if (args.flag("list-mappings")) {
        for (const auto &intr : hw.intrinsics) {
            if (comp.inputs().size() != intr.compute.numSrcs() ||
                comp.combine() != intr.compute.combine())
                continue;
            auto plans = enumeratePlans(comp, intr, {});
            std::printf("%s: %zu valid mappings\n",
                        intr.name().c_str(), plans.size());
            for (const auto &plan : plans)
                std::printf("  %s\n",
                            plan.mapping()
                                .signature(comp)
                                .c_str());
        }
        return 0;
    }

    CompileResult result;
    std::string cache_path = args.str("cache", "");
    if (!cache_path.empty()) {
        auto cache = openCache(cache_path);
        result = serve::compileWithCache(compiler, comp, *cache);
        std::fprintf(stderr, "tuning cache: %s (%zu entries)\n",
                     cache_path.c_str(), cache->diskSize());
    } else {
        result = compiler.compile(comp);
    }

    bool want_explain =
        args.flag("explain") || !explain_path.empty();
    std::optional<report::ExplainReport> explain;
    if (want_explain)
        explain = report::explainResult(result, comp, hw);

    // --engine auto|interpreter|walk|jit: differentially verify the
    // tuned mapping on the functional simulator's requested tier.
    // Without the flag, small operators (<= 2^25 iterations) are
    // verified on the default tier for free; huge ones are skipped.
    const std::string engine_name = args.str("engine", "");
    ExecEngine engine = ExecEngine::Auto;
    if (!engine_name.empty()) {
        auto parsed = parseExecEngine(engine_name);
        if (!parsed)
            throw std::runtime_error(
                "--engine: unknown engine '" + engine_name +
                "' (expected auto|interpreter|walk|jit)");
        engine = *parsed;
    }
    const bool verify =
        result.tensorized && result.tuning.bestPlan &&
        (!engine_name.empty() ||
         comp.totalIterations() <= (std::int64_t{1} << 25));
    std::string engine_used = "none";
    std::string jit_fallback;
    float exec_diff = 0.0f;
    if (verify) {
        ExecReport direct;
        exec_diff = engineVsInterpreterError(
            *result.tuning.bestPlan, engine, req.seed, &direct);
        engine_used = direct.engine;
        jit_fallback = direct.jitFallback;
    }

    if (json) {
        Json out = Json::object();
        out.set("ok", Json(true));
        out.set("engine", Json(engine_used));
        if (!jit_fallback.empty())
            out.set("jit_fallback", Json(jit_fallback));
        if (verify)
            out.set("exec_max_abs_diff",
                    Json(static_cast<double>(exec_diff)));
        out.set("result", serve::compileResultToJson(result));
        if (explain)
            out.set("explain", report::explainToJson(*explain));
        std::printf("%s\n", out.dump().c_str());
    } else {
        std::printf("%s", result.report().c_str());
        if (verify)
            std::printf("functional check: engine=%s "
                        "max|diff|=%g%s%s\n",
                        engine_used.c_str(),
                        static_cast<double>(exec_diff),
                        jit_fallback.empty() ? "" : " — ",
                        jit_fallback.c_str());
        if (args.flag("explain"))
            std::printf("\n%s",
                        report::explainToText(*explain).c_str());
    }

    if (!explain_path.empty()) {
        writeFileOrThrow(explain_path,
                         report::explainToJson(*explain).dump(),
                         "--explain-out");
        std::fprintf(stderr, "wrote explain report to %s\n",
                     explain_path.c_str());
    }
    if (!telemetry_path.empty()) {
        writeFileOrThrow(telemetry_path,
                         telemetryToCsv(result.tuning.telemetry),
                         "--telemetry-out");
        std::fprintf(stderr, "wrote search telemetry to %s\n",
                     telemetry_path.c_str());
    }

    if (!emit_path.empty()) {
        expect(result.tensorized && result.tuning.bestPlan,
               "--emit-c requires a tensorized result");
        CodegenOptions cg;
        cg.kernelName = "amos_kernel";
        std::ofstream out(emit_path);
        out << generateC(*result.tuning.bestPlan,
                         result.tuning.bestSchedule, cg);
        std::fprintf(stderr, "wrote C kernel to %s\n",
                     emit_path.c_str());
    }

    if (!trace_path.empty()) {
        writeFileOrThrow(trace_path,
                         recorder.toChromeJson().dump() + "\n",
                         "--trace-out");
        std::fprintf(stderr, "wrote %zu trace spans to %s\n",
                     recorder.recordCount(), trace_path.c_str());
    }

    if (!flight_path.empty()) {
        writeFileOrThrow(flight_path,
                         recorder.dumpJson().dump() + "\n",
                         "--flight-dump");
        std::fprintf(stderr,
                     "wrote %zu flight records to %s\n",
                     recorder.recordCount(), flight_path.c_str());
    }

    if (args.flag("require-tensorized") && !result.tensorized)
        return 3;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--", 2) != 0) {
            std::fprintf(stderr, "unexpected argument '%s'\n", arg);
            return 2;
        }
        std::string key = arg + 2;
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
            args.values[key] = argv[++i];
        else
            args.values[key] = "1";
    }
    auto jsonError = [&args](const char *code, const char *what) {
        if (!args.flag("json"))
            return;
        // Machine-readable failure on stdout, matching the serve
        // protocol's error envelope.
        amos::Json err = amos::Json::object();
        err.set("code", amos::Json(code));
        err.set("message", amos::Json(what));
        amos::Json out = amos::Json::object();
        out.set("ok", amos::Json(false));
        out.set("error", std::move(err));
        std::printf("%s\n", out.dump().c_str());
    };
    try {
        return runCli(args);
    } catch (const IoError &e) {
        jsonError("io_error", e.what());
        std::fprintf(stderr, "%s\n", e.what());
        return 4;
    } catch (const std::exception &e) {
        jsonError("bad_request", e.what());
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
