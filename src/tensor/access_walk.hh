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
 * A fused group whose members' coefficients are not proportional to
 * their digit strides walks as a carry level (WalkCarry): the tile's
 * start digits are decoded once, and each step bumps the innermost
 * digit, carries on a wrap and adds a precomputed address delta.
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

/**
 * Carry level: a fused group's intrinsic counter t whose members are
 * the mixed-radix digits of f = q * tile + t, where q is the absolute
 * index of `quotientLevel` (0 without one). The members' address
 * contribution sum_pos coeff[m][pos] * digit_pos is not linear in t,
 * so it stays out of the level strides (which keep only the parts
 * that are): the walker decodes the tile's start digits once per
 * tile, then each step bumps the innermost digit, a wrap carries into
 * the next digit, and every move adds a precomputed address delta.
 */
struct WalkCarry
{
    std::size_t level = 0;
    int quotientLevel = -1; ///< -1: f starts at 0 in every tile
    std::int64_t tile = 1;  ///< I
    std::vector<std::int64_t> radix; ///< member extents, outermost first
    std::vector<std::vector<std::int64_t>> coeff; ///< [operand][digit]
    /// Filled by finalize(): delta[j][m] is operand m's address move
    /// on a step that wraps the j innermost digits (level stride
    /// included); delta[0] is the constant stride of a digit run.
    std::vector<std::vector<std::int64_t>> delta;
};

/** A compiled loop nest: level extents + per-operand strides. */
struct AccessWalkPlan
{
    std::vector<std::int64_t> extents;    ///< last level is innermost
    std::vector<WalkOperand> operands;
    /// Clamped levels (at most one clamp per level); rollbacks and the
    /// address box are computed over the unclamped extents.
    std::vector<WalkClamp> clamps;
    /// Carry levels (at most one per level, never a quotient level of
    /// a clamp or a carry); the address box spans every digit value.
    std::vector<WalkCarry> carries;

    /** Fill rollbacks, carry deltas and min/max addresses. */
    void finalize();

    /** Total number of inner-loop iterations (unclamped). */
    std::int64_t totalSteps() const;

    /** True iff `level` carries a clamp. */
    bool clamped(std::size_t level) const;

    /** The carry of `level`, or nullptr. */
    const WalkCarry *carryAt(std::size_t level) const;
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
 * Clamped levels, carry levels and their quotient levels are never
 * picked. Returns -1 when no level
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

/**
 * The walk of a plan with carry levels, for a fixed operand count N.
 * All levels but the innermost form an odometer; the innermost level
 * runs as constant-stride runs handed to the body whole (one run for
 * a plain level, one per innermost-digit run for a carry level).
 *
 * A carry level keeps its members' digit contribution inside the
 * operand addresses: entering a tile decodes the start digits of
 * f = q * I (q read from the quotient level) and adds their
 * contribution; a step adds delta[j] for its j wrapped digits; a wrap
 * restores the address saved when the tile was entered. Clamps and
 * empty-clamp subtree skips behave as in runFixed.
 */
template <std::size_t N, typename Body>
inline void
runCarried(const AccessWalkPlan &plan, int restrictLevel, std::int64_t lo,
           std::int64_t hi, Body &body)
{
    const std::size_t L = plan.extents.size();
    const std::size_t nops = plan.operands.size();
    const std::size_t C = plan.carries.size();
    std::int64_t a[kMaxWalkOperands] = {};
    std::int64_t ext[kMaxWalkLevels];
    std::int64_t idx[kMaxWalkLevels];
    std::int64_t org[kMaxWalkLevels];
    std::int64_t str[kMaxWalkLevels][N];
    std::int64_t rb[kMaxWalkLevels][N];
    int carryOf[kMaxWalkLevels];
    // Digits of every carry, flattened: carry c owns [first[c],
    // first[c + 1]), outermost digit first.
    std::size_t first[kMaxWalkLevels + 1];
    std::int64_t radix[kMaxWalkLevels], start[kMaxWalkLevels];
    std::int64_t dig[kMaxWalkLevels];
    std::int64_t coeff[kMaxWalkLevels][N], delta[kMaxWalkLevels][N];
    std::int64_t cur[kMaxWalkLevels][N];   ///< start contribution in a
    std::int64_t saved[kMaxWalkLevels][N]; ///< a at the tile's entry

    for (std::size_t l = 0; l < L; ++l) {
        const bool restricted = static_cast<int>(l) == restrictLevel;
        ext[l] = restricted ? hi - lo : plan.extents[l];
        org[l] = restricted ? lo : 0;
        idx[l] = 0;
        carryOf[l] = -1;
        if (ext[l] <= 0)
            return;
        for (std::size_t m = 0; m < N; ++m) {
            str[l][m] = m < nops ? plan.operands[m].stride[l] : 0;
            rb[l][m] = str[l][m] * (ext[l] - 1);
        }
    }
    for (std::size_t m = 0; m < nops; ++m) {
        a[m] = plan.operands[m].base;
        for (std::size_t l = 0; l < L; ++l)
            a[m] += org[l] * str[l][m];
    }
    first[0] = 0;
    for (std::size_t c = 0; c < C; ++c) {
        const WalkCarry &w = plan.carries[c];
        carryOf[w.level] = static_cast<int>(c);
        const std::size_t n = w.radix.size();
        for (std::size_t p = 0; p < n; ++p) {
            const std::size_t d = first[c] + p;
            radix[d] = w.radix[p];
            for (std::size_t m = 0; m < N; ++m) {
                coeff[d][m] = m < nops ? w.coeff[m][p] : 0;
                delta[d][m] = m < nops ? w.delta[p][m] : 0;
            }
        }
        for (std::size_t m = 0; m < N; ++m)
            cur[c][m] = 0;
        first[c + 1] = first[c] + n;
    }

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
    // Enter the tiles of every carry below level `moved` (all of them
    // when moved < 0): re-decode the start digits of those whose
    // quotient may have changed, and save the entry addresses.
    auto enter = [&](int moved) {
        for (std::size_t c = 0; c < C; ++c) {
            const WalkCarry &w = plan.carries[c];
            if (static_cast<int>(w.level) <= moved)
                continue;
            if (moved < 0 || w.quotientLevel >= moved) {
                const std::size_t ql =
                    static_cast<std::size_t>(std::max(w.quotientLevel, 0));
                std::int64_t f = w.quotientLevel < 0
                                     ? 0
                                     : (idx[ql] + org[ql]) * w.tile;
                std::int64_t contrib[N] = {};
                for (std::size_t d = first[c + 1]; d-- > first[c];) {
                    start[d] = f % radix[d];
                    f /= radix[d];
                    for (std::size_t m = 0; m < N; ++m)
                        contrib[m] += coeff[d][m] * start[d];
                }
                for (std::size_t m = 0; m < N; ++m) {
                    a[m] += contrib[m] - cur[c][m];
                    cur[c][m] = contrib[m];
                }
            }
            for (std::size_t d = first[c]; d < first[c + 1]; ++d)
                dig[d] = start[d];
        }
        for (std::size_t c = 0; c < C; ++c)
            if (static_cast<int>(plan.carries[c].level) > moved)
                for (std::size_t m = 0; m < N; ++m)
                    saved[c][m] = a[m];
    };
    // Bump carry c's digits: the innermost one steps, each wrap
    // carries into the next. Returns the number of wrapped digits.
    auto bump = [&](std::int64_t *digits, std::size_t c) {
        std::size_t j = 0;
        for (std::size_t d = first[c + 1] - 1;
             ++digits[d] == radix[d] && d > first[c]; --d, ++j)
            digits[d] = 0;
        return j;
    };
    // One constant-stride run of n elements from r.
    auto runSpan = [&](const std::int64_t *r, const std::int64_t *step,
                       std::int64_t n) {
        if constexpr (requires(const std::int64_t *p, std::int64_t k) {
                          body.run(p, p, k);
                      }) {
            body.run(r, step, n);
        } else {
            std::int64_t e[kMaxWalkOperands] = {};
            for (std::size_t m = 0; m < N; ++m)
                e[m] = r[m];
            for (std::int64_t i = n; i > 0; --i) {
                body(static_cast<const std::int64_t *>(e));
                for (std::size_t m = 0; m < N; ++m)
                    e[m] += step[m];
            }
        }
    };

    if (L == 0) {
        body(static_cast<const std::int64_t *>(a));
        return;
    }
    reclamp(0);
    enter(-1);

    const std::size_t P = L - 1; ///< odometer levels
    std::size_t odoClamps[kMaxWalkLevels];
    std::size_t numOdoClamps = 0;
    for (const auto &c : plan.clamps)
        if (c.level < P)
            odoClamps[numOdoClamps++] = c.level;
    const int inner = carryOf[P];
    std::int64_t innerStep[kMaxWalkOperands] = {};
    for (std::size_t m = 0; m < N; ++m)
        innerStep[m] = inner < 0 ? str[P][m] : delta[first[inner]][m];

    while (true) {
        std::size_t from = P;
        for (std::size_t i = 0; i < numOdoClamps; ++i)
            if (odoClamps[i] < from && ext[odoClamps[i]] <= 0)
                from = odoClamps[i];
        if (from == P && ext[P] > 0) {
            if (inner < 0) {
                runSpan(a, innerStep, ext[P]);
            } else {
                // Innermost-digit runs of the innermost carry level.
                const std::size_t c = static_cast<std::size_t>(inner);
                const std::size_t lastDigit = first[c + 1] - 1;
                std::int64_t r[kMaxWalkOperands] = {};
                std::int64_t d[kMaxWalkLevels];
                for (std::size_t m = 0; m < N; ++m)
                    r[m] = a[m];
                for (std::size_t k = first[c]; k <= lastDigit; ++k)
                    d[k] = start[k];
                for (std::int64_t t = 0;;) {
                    const std::int64_t n = std::min(
                        radix[lastDigit] - d[lastDigit], ext[P] - t);
                    runSpan(r, innerStep, n);
                    t += n;
                    if (t >= ext[P])
                        break;
                    d[lastDigit] += n - 1;
                    const std::size_t j = bump(d, c);
                    for (std::size_t m = 0; m < N; ++m)
                        r[m] += (n - 1) * innerStep[m] +
                                delta[first[c] + j][m];
                }
            }
        }

        // Advance the odometer over levels [0, from).
        std::size_t d = from;
        while (true) {
            if (d == 0)
                return;
            --d;
            const int c = carryOf[d];
            if (++idx[d] < ext[d]) {
                if (c < 0) {
                    for (std::size_t m = 0; m < N; ++m)
                        a[m] += str[d][m];
                } else {
                    const std::size_t j =
                        bump(dig, static_cast<std::size_t>(c));
                    for (std::size_t m = 0; m < N; ++m)
                        a[m] += delta[first[c] + j][m];
                }
                break;
            }
            idx[d] = 0;
            for (std::size_t m = 0; m < N; ++m)
                a[m] = c < 0 ? a[m] - rb[d][m] : saved[c][m];
        }
        if (!plan.clamps.empty())
            reclamp(d);
        enter(static_cast<int>(d));
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
 * [lo, hi) (absolute indices; a restricted level must be neither
 * clamped nor a carry level). Body is called once per index tuple, in interpreter
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
                 !plan.clamped(static_cast<std::size_t>(restrictLevel)) &&
                 !plan.carryAt(static_cast<std::size_t>(restrictLevel))),
            "runAccessWalkRange: cannot restrict level ", restrictLevel);
    using B = std::remove_cvref_t<Body>;
    // Plans without carry levels take the inner-block walk.
    auto walk = [&]<std::size_t N>() {
        if (plan.carries.empty())
            walk_detail::runFixed<N>(plan, restrictLevel, lo, hi, body);
        else
            walk_detail::runCarried<N>(plan, restrictLevel, lo, hi,
                                       body);
    };
    if constexpr (walk_detail::declaredArity<B>() != 0) {
        require(nops == B::kOperands, "runAccessWalkRange: body takes ",
                B::kOperands, " operands, plan has ", nops);
        walk.template operator()<walk_detail::declaredArity<B>()>();
        return;
    }
    switch (walk_detail::walkArity(nops)) {
      case 2:
        walk.template operator()<2>();
        return;
      case 3:
        walk.template operator()<3>();
        return;
      case 4:
        walk.template operator()<4>();
        return;
      default:
        walk.template operator()<kMaxWalkOperands>();
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
    /// AccessWalkPlan; 0 for the reference nest.
    int loweredSweeps = 0;
};

class TraceSpan;

/**
 * Record a compiled run on the executor's trace span and the exec.*
 * metrics: engine/thread annotations, exec.compiled_runs, and either
 * exec.parallel_runs or — when more than one thread was requested but
 * no provably disjoint split level exists — exec.parallel_unsplittable.
 * The walker that ran goes to the `walk_form` span argument ("affine"
 * for the reference nest, "lowered" for a mapped plan) and to the
 * exec.walk_lowered_runs sweep counter.
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
