/**
 * @file
 * Affine access-plan compiler and stride-walk runner.
 *
 * The functional simulators historically evaluated every tensor
 * access per scalar element with a recursive evalExpr() tree walk
 * over a hash-map variable binding — the dominant cost of the
 * differential correctness suites. Since every access index of a
 * TensorComputation is affine in the loop iterators, the flat
 * address of each operand is
 *
 *     addr = base + sum_l stride_l * idx_l
 *
 * over the loop-nest counters. An AccessWalkPlan precomputes those
 * per-level strides once; runAccessWalk() then advances every
 * operand address incrementally — add one stride on an increment,
 * subtract a precomputed rollback on a carry — with zero hash
 * lookups, zero evalExpr calls, and zero allocations in the inner
 * loop. Execution order is identical to the interpreter's odometer
 * (last level innermost), so floating-point accumulation is
 * bit-identical.
 *
 * Parallel sweeps: pickSplitLevel() finds a loop level whose values
 * provably touch disjoint addresses of the accumulated operand (the
 * per-step address jump dominates the combined span of every other
 * level). Restricting that level to per-thread sub-ranges keeps each
 * output element's updates on one thread, in serial order — so the
 * result is bit-identical for every thread count, and data-race-free
 * by construction.
 */

#ifndef AMOS_TENSOR_ACCESS_WALK_HH
#define AMOS_TENSOR_ACCESS_WALK_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "tensor/computation.hh"

namespace amos {

/**
 * Execution tiers of the functional simulators, fastest first when
 * available. Every tier produces bit-identical results; lower tiers
 * are transparent fallbacks for what an upper tier cannot run.
 */
enum class ExecEngine
{
    /// Stride-walk engine with interpreter fallback (the default).
    Auto,
    /// Scalar interpreter only (baseline / differential testing).
    Interpreter,
    /// Stride-walk engine, interpreter fallback on non-affine plans.
    Walk,
    /// Native-codegen JIT tier: lower the plan to C, compile with the
    /// system compiler, dlopen, run. Falls back to the stride walk
    /// (then the interpreter) when no compiler or kernel is
    /// available; requires the amos_jit library to be linked.
    Jit,
};

/** Stable lowercase name ("auto", "interpreter", "walk", "jit"). */
const char *execEngineName(ExecEngine engine);

/** Parse an engine name; nullopt on unknown names. */
std::optional<ExecEngine> parseExecEngine(const std::string &name);

/** Knobs shared by every functional executor. */
struct ExecOptions
{
    /// Worker count for the outer sweep: 1 = serial, 0 = one per
    /// hardware thread. Results are bit-identical for every value.
    /// The JIT tier always runs its kernel serially.
    int numThreads = 1;
    /// Skip the compiled engine (baseline / differential testing).
    /// Kept for source compatibility; equivalent to
    /// engine = ExecEngine::Interpreter.
    bool forceInterpreter = false;
    /// Requested execution tier; lower tiers are fallbacks.
    ExecEngine engine = ExecEngine::Auto;

    /** The tier actually requested once legacy flags are folded in. */
    ExecEngine resolvedEngine() const
    {
        return forceInterpreter ? ExecEngine::Interpreter : engine;
    }
};

/**
 * How an execution actually ran: the tier that produced the result
 * and, when the JIT tier was requested but could not run, why it
 * fell back. Returned by every executor entry point.
 */
struct ExecReport
{
    /// "jit", "walk", or "interpreter".
    std::string engine = "interpreter";
    /// Why the JIT tier fell back (empty unless it was requested and
    /// declined); also surfaced on the trace span and the
    /// exec.jit_fallback metric.
    std::string jitFallback;
    int threadsUsed = 1;
};

/// Executors handle at most inputs + output operands; the packing
/// stages pair each input with its packed destination stream.
constexpr std::size_t kMaxWalkOperands = 6;
/// Loop nests are software iterators or outer axes + intrinsic
/// iterations — far below this cap.
constexpr std::size_t kMaxWalkLevels = 32;

/** One operand's compiled address stream over the loop nest. */
struct WalkOperand
{
    std::int64_t base = 0;                ///< address at all-zero idx
    std::vector<std::int64_t> stride;     ///< per level
    std::vector<std::int64_t> rollback;   ///< stride_l * (extent_l-1)
    std::int64_t minAddr = 0;             ///< over the full level box
    std::int64_t maxAddr = 0;
};

/**
 * Trailing-padding clamp of one level: at run time the level's extent
 * is min(extents[level], limit - q * tile), where q is the absolute
 * index of the earlier level `quotientLevel`. This is the mapped
 * nest's lim_k = min(I_k, F_k - q_k * I_k): counter k of a tile stops
 * at the end of its fused group instead of walking the padding.
 */
struct WalkClamp
{
    std::size_t level = 0;
    std::size_t quotientLevel = 0;
    std::int64_t tile = 1;  ///< I_k
    std::int64_t limit = 1; ///< F_k
};

/** A compiled loop nest: level extents + per-operand strides. */
struct AccessWalkPlan
{
    std::vector<std::int64_t> extents;    ///< last level is innermost
    std::vector<WalkOperand> operands;
    /// Clamped levels (at most one clamp per level); rollbacks and the
    /// address box are computed over the unclamped extents.
    std::vector<WalkClamp> clamps;

    /** Fill rollbacks and min/max addresses from base/stride. */
    void finalize();

    /** Total number of inner-loop iterations (unclamped). */
    std::int64_t totalSteps() const;

    /** True iff `level` carries a clamp. */
    bool clamped(std::size_t level) const;
};

/**
 * Compile the reference interpreter's loop nest (one level per
 * software iterator, operands = inputs then output) into a stride
 * walk. Returns nullopt — and the reason, if requested — when any
 * access is non-affine.
 */
std::optional<AccessWalkPlan>
compileReferenceWalk(const TensorComputation &comp,
                     std::string *reason = nullptr);

/**
 * The first level (below levelLimit) whose per-step address jump on
 * `operand` dominates the combined span of all other levels — so
 * distinct values of that level touch provably disjoint addresses.
 * Clamped levels are never picked. Returns -1 when no level
 * qualifies (the sweep must stay serial).
 */
int pickSplitLevel(const AccessWalkPlan &plan, std::size_t operand,
                   std::size_t levelLimit);

namespace walk_detail {

/**
 * Operand count a walk is instantiated for: 1 and 5 round up to 2
 * and 6, the extra operand walking with zero strides.
 */
constexpr std::size_t
walkArity(std::size_t nops)
{
    return nops <= 2 ? 2 : nops <= 4 ? nops : kMaxWalkOperands;
}

/**
 * The walk for a fixed operand count N. Levels split into an outer
 * odometer and an inner block of up to three trailing levels run as
 * nested counted loops, so the innermost addresses live in registers
 * and the odometer (compare, N adds, rollbacks on a carry) runs once
 * per block instead of once per element. A body with a
 * run(addr, step, n) member takes each innermost run whole (see
 * quant::AccumulateBody); any other body is called per element.
 *
 * Clamped levels take their extent from the current index of their
 * quotient level; it is recomputed whenever the odometer moves a
 * level above them. A clamp that leaves no iterations (a tile of pure
 * padding) skips the enclosing odometer value's whole subtree. The
 * inner block never contains a quotient level, so its clamps are
 * fixed while it runs.
 */
template <std::size_t N, typename Body>
inline void
runFixed(const AccessWalkPlan &plan, int restrictLevel, std::int64_t lo,
         std::int64_t hi, Body &body)
{
    const std::size_t L = plan.extents.size();
    const std::size_t nops = plan.operands.size();
    std::int64_t a[N];
    std::int64_t ext[kMaxWalkLevels];
    std::int64_t idx[kMaxWalkLevels];
    std::int64_t org[kMaxWalkLevels]; ///< absolute index at idx 0
    std::int64_t str[kMaxWalkLevels][N];
    std::int64_t rb[kMaxWalkLevels][N];
    bool isQuotient[kMaxWalkLevels] = {};
    for (const auto &c : plan.clamps)
        isQuotient[c.quotientLevel] = true;

    for (std::size_t m = 0; m < N; ++m)
        a[m] = m < nops ? plan.operands[m].base : 0;
    for (std::size_t l = 0; l < L; ++l) {
        const bool restricted = static_cast<int>(l) == restrictLevel;
        ext[l] = restricted ? hi - lo : plan.extents[l];
        org[l] = restricted ? lo : 0;
        idx[l] = 0;
        if (ext[l] <= 0)
            return;
        for (std::size_t m = 0; m < N; ++m) {
            str[l][m] = m < nops ? plan.operands[m].stride[l] : 0;
            rb[l][m] = str[l][m] * (ext[l] - 1);
            a[m] += org[l] * str[l][m];
        }
    }
    if (L == 0) {
        std::int64_t r[kMaxWalkOperands] = {};
        for (std::size_t m = 0; m < N; ++m)
            r[m] = a[m];
        body(static_cast<const std::int64_t *>(r));
        return;
    }

    // Re-derive the extent (and rollback) of every clamped level whose
    // quotient index may have moved since level d last advanced.
    auto reclamp = [&](std::size_t d) {
        for (const auto &c : plan.clamps) {
            if (c.quotientLevel < d)
                continue;
            const std::int64_t q =
                idx[c.quotientLevel] + org[c.quotientLevel];
            const std::int64_t e =
                std::min(plan.extents[c.level], c.limit - q * c.tile);
            ext[c.level] = e;
            for (std::size_t m = 0; m < N; ++m)
                rb[c.level][m] = str[c.level][m] * (e - 1);
        }
    };
    reclamp(0);

    // The inner block: up to three trailing levels, none of them a
    // quotient level, run as nested counted loops. Absent outer block
    // levels run once with zero steps.
    std::size_t depth = 1;
    while (depth < 3 && depth < L && !isQuotient[L - 1 - depth])
        ++depth;
    const std::size_t P = L - depth; ///< odometer levels
    std::int64_t s2[kMaxWalkOperands] = {}; // padded like r below
    std::int64_t s1[N] = {}, s0[N] = {};
    for (std::size_t m = 0; m < N; ++m) {
        s2[m] = str[L - 1][m];
        if (depth >= 2)
            s1[m] = str[L - 2][m];
        if (depth >= 3)
            s0[m] = str[L - 3][m];
    }
    std::size_t odoClamps[kMaxWalkLevels];
    std::size_t numOdoClamps = 0;
    for (const auto &c : plan.clamps)
        if (c.level < P)
            odoClamps[numOdoClamps++] = c.level;

    while (true) {
        // The outermost empty clamped odometer level, if any, skips
        // its subtree; otherwise run the inner block.
        std::size_t from = P;
        for (std::size_t i = 0; i < numOdoClamps; ++i)
            if (odoClamps[i] < from && ext[odoClamps[i]] <= 0)
                from = odoClamps[i];
        if (from == P) {
            const std::int64_t n2 = ext[L - 1];
            const std::int64_t n1 = depth >= 2 ? ext[L - 2] : 1;
            const std::int64_t n0 = depth >= 3 ? ext[L - 3] : 1;
            std::int64_t r0[N];
            for (std::size_t m = 0; m < N; ++m)
                r0[m] = a[m];
            for (std::int64_t i0 = n0; i0 > 0; --i0) {
                std::int64_t r1[N];
                for (std::size_t m = 0; m < N; ++m)
                    r1[m] = r0[m];
                for (std::int64_t i1 = n1; i1 > 0; --i1) {
                    // Padded to the widest arity so that a body
                    // written for more operands still compiles
                    // against this instantiation; the padding stays
                    // zero.
                    std::int64_t r[kMaxWalkOperands] = {};
                    for (std::size_t m = 0; m < N; ++m)
                        r[m] = r1[m];
                    if constexpr (requires(const std::int64_t *p,
                                           std::int64_t n) {
                                      body.run(p, p, n);
                                  }) {
                        body.run(static_cast<const std::int64_t *>(r),
                                 s2, n2);
                    } else {
                        for (std::int64_t i = n2; i > 0; --i) {
                            body(static_cast<const std::int64_t *>(r));
                            for (std::size_t m = 0; m < N; ++m)
                                r[m] += s2[m];
                        }
                    }
                    for (std::size_t m = 0; m < N; ++m)
                        r1[m] += s1[m];
                }
                for (std::size_t m = 0; m < N; ++m)
                    r0[m] += s0[m];
            }
        }

        // Advance the odometer over levels [0, from).
        std::size_t d = from;
        while (true) {
            if (d == 0)
                return;
            --d;
            if (++idx[d] < ext[d]) {
                for (std::size_t m = 0; m < N; ++m)
                    a[m] += str[d][m];
                break;
            }
            idx[d] = 0;
            for (std::size_t m = 0; m < N; ++m)
                a[m] -= rb[d][m];
        }
        if (!plan.clamps.empty())
            reclamp(d);
    }
}

/** The arity a body declares through a static kOperands, or 0. */
template <typename Body>
constexpr std::size_t
declaredArity()
{
    if constexpr (requires { Body::kOperands; })
        return walkArity(Body::kOperands);
    else
        return 0;
}

} // namespace walk_detail

/**
 * A walk body for exactly `Nops` operands. Declaring the count lets
 * runAccessWalkRange instantiate that one arity instead of all four.
 */
template <std::size_t Nops, typename Fn>
struct FixedArityBody
{
    static constexpr std::size_t kOperands = Nops;
    Fn fn;
    void operator()(const std::int64_t *a) const { fn(a); }
};

template <std::size_t Nops, typename Fn>
FixedArityBody<Nops, Fn>
withArity(Fn fn)
{
    return {std::move(fn)};
}

/**
 * Serial stride walk with one level optionally restricted to
 * [lo, hi) (absolute indices; a restricted level must not be
 * clamped). Body is called once per index tuple, in interpreter
 * (odometer) order, with the operand address array. The operand
 * count is dispatched once to a fixed-arity walk; a body that
 * declares its count (kOperands) instantiates only that arity.
 */
template <typename Body>
inline void
runAccessWalkRange(const AccessWalkPlan &plan, int restrictLevel,
                   std::int64_t lo, std::int64_t hi, Body &&body)
{
    const std::size_t nlev = plan.extents.size();
    const std::size_t nops = plan.operands.size();
    require(nlev <= kMaxWalkLevels && nops <= kMaxWalkOperands,
            "runAccessWalkRange: plan too large (", nlev, " levels, ",
            nops, " operands)");
    require(restrictLevel < 0 ||
                (static_cast<std::size_t>(restrictLevel) < nlev &&
                 !plan.clamped(static_cast<std::size_t>(restrictLevel))),
            "runAccessWalkRange: cannot restrict level ", restrictLevel);
    using B = std::remove_cvref_t<Body>;
    if constexpr (walk_detail::declaredArity<B>() != 0) {
        require(nops == B::kOperands, "runAccessWalkRange: body takes ",
                B::kOperands, " operands, plan has ", nops);
        walk_detail::runFixed<walk_detail::declaredArity<B>()>(
            plan, restrictLevel, lo, hi, body);
        return;
    }
    switch (walk_detail::walkArity(nops)) {
      case 2:
        walk_detail::runFixed<2>(plan, restrictLevel, lo, hi, body);
        return;
      case 3:
        walk_detail::runFixed<3>(plan, restrictLevel, lo, hi, body);
        return;
      case 4:
        walk_detail::runFixed<4>(plan, restrictLevel, lo, hi, body);
        return;
      default:
        walk_detail::runFixed<kMaxWalkOperands>(plan, restrictLevel, lo,
                                                hi, body);
        return;
    }
}

/** Full serial stride walk. */
template <typename Body>
inline void
runAccessWalk(const AccessWalkPlan &plan, Body &&body)
{
    runAccessWalkRange(plan, -1, 0, 0, body);
}

/**
 * Interpreter-side odometer: calls fn(idx, dirtyFrom) for every
 * index tuple, where levels dirtyFrom..end are exactly the ones that
 * changed since the previous call (dirtyFrom == 0 on the first).
 * Lets interpreter fallbacks rebind only the coordinates that moved
 * instead of rebuilding the whole variable binding per iteration.
 */
template <typename Fn>
inline void
forEachIndexDelta(const std::vector<std::int64_t> &extents, Fn &&fn)
{
    for (auto e : extents)
        if (e <= 0)
            return;
    std::vector<std::int64_t> idx(extents.size(), 0);
    std::size_t dirty = 0;
    if (extents.empty()) {
        fn(idx, dirty);
        return;
    }
    while (true) {
        fn(idx, dirty);
        std::size_t d = extents.size();
        while (true) {
            --d;
            if (++idx[d] < extents[d]) {
                dirty = d;
                break;
            }
            idx[d] = 0;
            if (d == 0)
                return;
        }
    }
}

/** How a walk actually ran (for metrics / trace annotations). */
struct WalkRunStats
{
    int threadsUsed = 1;
    int splitLevel = -1; ///< -1 when the sweep ran serially
    /// Mapped sweeps (direct, pack, unpack) that ran as a lowered
    /// AccessWalkPlan, and those left to the per-tile digit odometer
    /// because a fused group is not linear. Both stay 0 for the
    /// reference nest, which is an affine walk by construction.
    int loweredSweeps = 0;
    int tiledSweeps = 0;
};

class TraceSpan;

/**
 * Record a compiled run on the executor's trace span and the exec.*
 * metrics: engine/thread annotations, exec.compiled_runs, and either
 * exec.parallel_runs or — when more than one thread was requested but
 * no provably disjoint split level exists — exec.parallel_unsplittable.
 * The walker that ran goes to the `walk_form` span argument ("affine"
 * for the reference nest, else "lowered", "tiled" or "mixed") and to
 * the exec.walk_lowered_runs / exec.walk_tiled_runs sweep counters.
 */
void noteWalkRun(TraceSpan &span, const WalkRunStats &stats,
                 int requestedThreads);

/**
 * Stride walk with `splitLevel` (-1: none) cut into contiguous chunks,
 * one serial range walk per worker. The caller guarantees that
 * distinct values of the level touch disjoint accumulated addresses,
 * so the result is bit-identical for every thread count.
 */
template <typename Body>
inline WalkRunStats
runAccessWalkSplit(const AccessWalkPlan &plan, int splitLevel,
                   int numThreads, Body &&body)
{
    WalkRunStats stats;
    std::size_t threads = ThreadPool::resolveThreads(numThreads);
    if (threads <= 1 || splitLevel < 0) {
        runAccessWalk(plan, body);
        return stats;
    }
    std::int64_t extent =
        plan.extents[static_cast<std::size_t>(splitLevel)];
    std::size_t chunks =
        std::min<std::size_t>(threads,
                              static_cast<std::size_t>(extent));
    stats.threadsUsed = static_cast<int>(chunks);
    stats.splitLevel = splitLevel;
    parallelFor(
        chunks,
        [&](std::size_t c) {
            std::int64_t lo = extent * static_cast<std::int64_t>(c) /
                              static_cast<std::int64_t>(chunks);
            std::int64_t hi =
                extent * static_cast<std::int64_t>(c + 1) /
                static_cast<std::int64_t>(chunks);
            runAccessWalkRange(plan, splitLevel, lo, hi, body);
        },
        static_cast<int>(chunks));
    return stats;
}

/**
 * Parallel stride walk: splits `disjointOperand`'s provably disjoint
 * level (searched below splitLimit) into contiguous chunks, one walk
 * per chunk. Falls back to a serial walk when no level qualifies or
 * one thread is requested. Bit-identical for every thread count.
 */
template <typename Body>
inline WalkRunStats
runAccessWalkParallel(const AccessWalkPlan &plan,
                      std::size_t disjointOperand,
                      std::size_t splitLimit, int numThreads,
                      Body &&body)
{
    int level = -1;
    if (ThreadPool::resolveThreads(numThreads) > 1)
        level = pickSplitLevel(plan, disjointOperand, splitLimit);
    return runAccessWalkSplit(plan, level, numThreads, body);
}

} // namespace amos

#endif // AMOS_TENSOR_ACCESS_WALK_HH
