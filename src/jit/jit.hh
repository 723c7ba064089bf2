/**
 * @file
 * Native-codegen JIT execution tier: compile generated C kernels with
 * the system compiler, cache the shared objects, and hand back
 * callable function pointers.
 *
 * Cache design mirrors the tuning cache: the key is a content hash
 * (FNV-1a over compiler + flags + generated source), so identical
 * plans share one kernel across runs and across processes. Each
 * engine keeps an in-memory handle table (dlopen'd libraries +
 * resolved entry points, with in-flight compile coalescing and
 * negative-result caching) over an on-disk .so store; installs are
 * crash-safe (compile to a temp path, rename() into place), the
 * temps of a process that died mid-compile are swept once per engine,
 * and a corrupt or truncated .so is deleted and recompiled instead of
 * crashing the process.
 *
 * Environment knobs:
 *  - AMOS_JIT_CC        compiler driver (default "cc"); pointing this
 *                       at a nonexistent path exercises the fallback
 *  - AMOS_JIT_CFLAGS    optimisation flags (default
 *                       "-O3 -march=native -ffp-contract=off"; never
 *                       -ffast-math or FMA contraction — the
 *                       kernels' accumulation is bit-exact)
 *  - AMOS_JIT_CACHE_DIR on-disk store (default
 *                       $TMPDIR/amos-jit-cache)
 */

#ifndef AMOS_JIT_JIT_HH
#define AMOS_JIT_JIT_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "codegen/exec_c.hh"

namespace amos {

/** Compiler / cache configuration of one JIT engine. */
struct JitOptions
{
    std::string compiler = "cc";
    std::string flags = "-O3 -march=native";
    std::string cacheDir;

    /** Defaults overridden by the AMOS_JIT_* environment knobs. */
    static JitOptions fromEnv();
};

/** Monotonic counters of one engine (snapshot, test-visible). */
struct JitStats
{
    std::int64_t compiles = 0;    ///< real compiler invocations
    std::int64_t memoryHits = 0;  ///< served from the handle table
    std::int64_t diskHits = 0;    ///< dlopen'd a previously built .so
    std::int64_t failures = 0;    ///< compile or load failures
};

/**
 * A kernel cache + compiler driver. Thread-safe; concurrent requests
 * for the same source coalesce onto one compile. Most callers use
 * global(); tests construct private engines over scratch cache
 * directories.
 */
class JitEngine
{
  public:
    explicit JitEngine(JitOptions opts = JitOptions::fromEnv());
    ~JitEngine();

    JitEngine(const JitEngine &) = delete;
    JitEngine &operator=(const JitEngine &) = delete;

    /** The process-wide engine the executor hooks compile through. */
    static JitEngine &global();

    /**
     * Return the entry point of the kernel for `source`, compiling
     * and/or loading it if needed. Returns nullptr — with `why` —
     * when no compiler is available, compilation fails, or the built
     * object cannot be loaded; failures are cached so a broken
     * kernel is diagnosed once, not per execution.
     */
    ExecKernelFn getOrCompile(const std::string &source,
                              std::string *why);

    /** Probe (once) whether the configured compiler can run. */
    bool compilerAvailable(std::string *why = nullptr);

    const JitOptions &options() const { return _opts; }
    JitStats stats() const;

    /** Content hash of a kernel under this engine's configuration. */
    std::uint64_t keyFor(const std::string &source) const;
    /** On-disk .so path for `source` (test hook: corruption etc.). */
    std::string cachePathFor(const std::string &source) const;

  private:
    struct Entry;

    std::shared_ptr<Entry> build(std::uint64_t key,
                                 const std::string &source);

    JitOptions _opts;
    mutable std::mutex _mutex;
    std::condition_variable _ready;
    std::map<std::uint64_t, std::shared_ptr<Entry>> _table;
    JitStats _stats;
    std::once_flag _swept; ///< orphaned temps removed
    bool _probed = false;
    bool _compilerOk = false;
};

namespace jit {

/**
 * Force the executor hooks to be installed even when the linker
 * dropped the static registrar (see tensor/jit_hook.hh). Calling
 * this from any binary that links amos_jit is always safe.
 */
void ensureLinked();

} // namespace jit

} // namespace amos

#endif // AMOS_JIT_JIT_HH
