#include "jit.hh"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/dylib.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/subprocess.hh"
#include "support/trace.hh"

namespace amos {

namespace {

std::string
envOr(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

std::string
hexKey(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

/** Unique per-process suffix for temp files next to the target. */
std::string
tempSuffix()
{
    static std::atomic<std::uint64_t> counter{0};
    return std::to_string(static_cast<long>(::getpid())) + "." +
           std::to_string(counter.fetch_add(1));
}

} // namespace

/** One cached kernel: a loaded library or a cached failure. */
struct JitEngine::Entry
{
    bool ready = false;
    bool failed = false;
    bool fromDisk = false;
    std::string why;
    ExecKernelFn fn = nullptr;
    DynamicLibrary lib;
};

JitOptions
JitOptions::fromEnv()
{
    JitOptions opts;
    opts.compiler = envOr("AMOS_JIT_CC", "cc");
    // -ffp-contract=off: fused multiply-adds change accumulation
    // bits, and the tier's contract is bit-identity with the
    // interpreter (C compilers default to contract=fast at -O3).
    opts.flags = envOr("AMOS_JIT_CFLAGS",
                       "-O3 -march=native -ffp-contract=off");
    opts.cacheDir = envOr("AMOS_JIT_CACHE_DIR",
                          envOr("TMPDIR", "/tmp") +
                              "/amos-jit-cache");
    return opts;
}

JitEngine::JitEngine(JitOptions opts) : _opts(std::move(opts)) {}

JitEngine::~JitEngine() = default;

JitEngine &
JitEngine::global()
{
    static JitEngine engine;
    return engine;
}

std::uint64_t
JitEngine::fnv1a(std::string_view data, std::uint64_t hash)
{
    for (unsigned char c : data) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::uint64_t
JitEngine::keyFor(const std::string &source) const
{
    // FNV-1a of "compiler\nflags\nsource", streamed part by part so
    // the (possibly large) kernel text is never copied.
    std::uint64_t h = fnv1a(_opts.compiler);
    h = fnv1a("\n", h);
    h = fnv1a(_opts.flags, h);
    h = fnv1a("\n", h);
    return fnv1a(source, h);
}

std::string
JitEngine::cachePathFor(const std::string &source) const
{
    return _opts.cacheDir + "/amos_jit_" + hexKey(keyFor(source)) +
           ".so";
}

bool
JitEngine::compilerAvailable(std::string *why)
{
    {
        std::lock_guard<std::mutex> lk(_mutex);
        if (_probed) {
            if (!_compilerOk && why)
                *why = "jit compiler '" + _opts.compiler +
                       "' is not available";
            return _compilerOk;
        }
    }
    // Probe outside the lock (runs a shell); racing probes agree.
    const bool ok = programAvailable(_opts.compiler);
    std::lock_guard<std::mutex> lk(_mutex);
    _probed = true;
    _compilerOk = ok;
    if (!ok && why)
        *why = "jit compiler '" + _opts.compiler +
               "' is not available";
    return ok;
}

JitStats
JitEngine::stats() const
{
    std::lock_guard<std::mutex> lk(_mutex);
    return _stats;
}

/**
 * Load-or-compile one kernel, without holding the engine lock. Only
 * the thread that inserted the entry runs this; everyone else waits
 * on the condition variable. Returns the entry with either `fn` or
 * (`failed`, `why`) filled; the caller publishes it.
 */
std::shared_ptr<JitEngine::Entry>
JitEngine::build(std::uint64_t key, const std::string &source)
{
    auto e = std::make_shared<Entry>();
    auto fail = [&](std::string why) {
        e->failed = true;
        e->why = std::move(why);
        return e;
    };

    std::error_code ec;
    std::filesystem::create_directories(_opts.cacheDir, ec);
    if (ec)
        return fail("cannot create jit cache dir '" + _opts.cacheDir +
                    "': " + ec.message());

    const std::string soPath =
        _opts.cacheDir + "/amos_jit_" + hexKey(key) + ".so";

    // Warm start: a previous process may have installed the object.
    // A corrupt or truncated file is deleted and rebuilt.
    if (std::filesystem::exists(soPath, ec) && !ec) {
        TraceSpan span("jit.cache_probe", "jit");
        span.arg("key", hexKey(key));
        std::string loadErr;
        if (e->lib.open(soPath, &loadErr)) {
            e->fn = reinterpret_cast<ExecKernelFn>(
                e->lib.symbol(kExecKernelSymbol, &loadErr));
            if (e->fn) {
                e->fromDisk = true;
                span.arg("hit", "disk");
                return e;
            }
        }
        AMOS_LOG(Debug) << "jit: discarding unusable cached object "
                        << soPath << ": " << loadErr;
        e->lib.close();
        std::filesystem::remove(soPath, ec);
        MetricsRegistry::global()
            .counter("jit.corrupt_cache_evictions")
            .add();
        span.arg("hit", "evicted");
    }

    std::string why;
    if (!compilerAvailable(&why))
        return fail(std::move(why));

    const std::string suffix = tempSuffix();
    const std::string srcPath = soPath + "." + suffix + ".c";
    const std::string tmpSo = soPath + "." + suffix + ".tmp";
    {
        std::ofstream src(srcPath);
        src << source;
        if (!src)
            return fail("cannot write jit source file " + srcPath);
    }

    SharedObjectJob job;
    job.compiler = _opts.compiler;
    job.flags = _opts.flags;
    job.sourcePath = srcPath;
    job.outputPath = tmpSo;
    std::string errText;
    bool compiled;
    {
        TraceSpan span("jit.compile", "jit");
        span.arg("key", hexKey(key));
        compiled = compileSharedObject(job, &errText);
        span.arg("ok", compiled ? "true" : "false");
    }
    std::filesystem::remove(srcPath, ec);
    if (!compiled)
        return fail("jit compile failed: " + errText);

    // Atomic install: readers only ever see complete objects.
    if (std::rename(tmpSo.c_str(), soPath.c_str()) != 0) {
        std::filesystem::remove(tmpSo, ec);
        return fail("cannot install jit object at " + soPath);
    }

    std::string loadErr;
    TraceSpan span("jit.dlopen", "jit");
    span.arg("key", hexKey(key));
    if (!e->lib.open(soPath, &loadErr))
        return fail("cannot load jit object: " + loadErr);
    e->fn = reinterpret_cast<ExecKernelFn>(
        e->lib.symbol(kExecKernelSymbol, &loadErr));
    if (!e->fn)
        return fail("jit object misses its entry point: " + loadErr);
    return e;
}

ExecKernelFn
JitEngine::getOrCompile(const std::string &source, std::string *why)
{
    const std::uint64_t key = keyFor(source);
    std::shared_ptr<Entry> entry;
    bool owner = false;
    {
        std::unique_lock<std::mutex> lk(_mutex);
        auto &slot = _table[key];
        if (!slot) {
            slot = std::make_shared<Entry>();
            owner = true;
        }
        entry = slot;
        if (!owner) {
            // Coalesce: wait for the in-flight compile (or pick up a
            // finished — possibly negative — result immediately).
            _ready.wait(lk, [&] { return entry->ready; });
            if (!entry->failed)
                ++_stats.memoryHits;
            if (entry->failed && why)
                *why = entry->why;
            return entry->fn;
        }
    }

    auto built = build(key, source);
    {
        std::lock_guard<std::mutex> lk(_mutex);
        entry->failed = built->failed;
        entry->fromDisk = built->fromDisk;
        entry->why = built->why;
        entry->fn = built->fn;
        entry->lib = std::move(built->lib);
        entry->ready = true;
        if (entry->failed) {
            ++_stats.failures;
            MetricsRegistry::global()
                .counter("jit.failures")
                .add();
        } else if (entry->fromDisk) {
            ++_stats.diskHits;
            MetricsRegistry::global()
                .counter("jit.disk_hits")
                .add();
        } else {
            ++_stats.compiles;
            MetricsRegistry::global()
                .counter("jit.compiles")
                .add();
        }
    }
    _ready.notify_all();
    if (entry->failed && why)
        *why = entry->why;
    return entry->fn;
}

} // namespace amos
