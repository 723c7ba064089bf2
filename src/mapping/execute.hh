/**
 * @file
 * Functional execution of a mapped computation.
 *
 * Two independent paths, both checked against the reference
 * interpreter in tests:
 *
 *  - executeMappedDirect: walks outer axes x intrinsic iterations,
 *    inverts the fused flat indices back to software coordinates,
 *    skips trailing-padding slots, and applies the update at the
 *    software addresses. Verifies the compute mapping.
 *
 *  - executeMappedPacked: first *stages* every operand into the tiled
 *    layout dictated by the memory mapping (base address + stride
 *    expressions, zero padding in the tails), then executes intrinsic
 *    calls purely on the packed buffers, and finally unpacks the
 *    output. Verifies the memory mapping: any error in the base
 *    address or stride arithmetic breaks the result.
 *
 * Both paths default to the compiled stride-walk engine (see
 * mapping/exec_plan.hh): the mapping is lowered once into per-operand
 * address stride tables and executed without per-element expression
 * evaluation, bit-identical to the scalar interpreters, which remain
 * as the transparent fallback for plans the engine cannot compile
 * (logged via the exec.fallback metric). ExecOptions selects the
 * engine and the thread count of the outer-tile sweep; results are
 * identical for every thread count.
 *
 * With ExecEngine::Jit each path is additionally lowered to native
 * code through the registered JIT hooks (tensor/jit_hook.hh),
 * falling back to the stride walk — and then the interpreter — when
 * the tier declines (logged via exec.jit_fallback). All executors
 * return an ExecReport naming the tier that actually ran.
 */

#ifndef AMOS_MAPPING_EXECUTE_HH
#define AMOS_MAPPING_EXECUTE_HH

#include <vector>

#include "mapping/mapping.hh"
#include "quant/compare.hh"
#include "tensor/access_walk.hh"
#include "tensor/tensor.hh"

namespace amos {

/** Execute via index-remapping (compute-mapping check). */
ExecReport executeMappedDirect(const MappingPlan &plan,
                               const std::vector<const Buffer *> &inputs,
                               Buffer &output);
ExecReport executeMappedDirect(const MappingPlan &plan,
                               const std::vector<const Buffer *> &inputs,
                               Buffer &output, const ExecOptions &opts);

/** Execute via packed tiles (memory-mapping check). */
ExecReport executeMappedPacked(const MappingPlan &plan,
                               const std::vector<const Buffer *> &inputs,
                               Buffer &output);
ExecReport executeMappedPacked(const MappingPlan &plan,
                               const std::vector<const Buffer *> &inputs,
                               Buffer &output, const ExecOptions &opts);

/**
 * Convenience used by tests: run both mapped paths on pattern inputs
 * and return the largest deviation from the reference interpreter.
 */
float mappedVsReferenceError(const MappingPlan &plan,
                             std::uint64_t seed = 7);

/**
 * Differential check of the compiled engine itself: run both mapped
 * paths with the interpreter forced and with the stride-walk engine
 * at `numThreads`, on identical pattern inputs, and return the
 * largest deviation. Zero iff the engine is bit-identical.
 */
float compiledVsInterpreterError(const MappingPlan &plan,
                                 std::uint64_t seed = 7,
                                 int numThreads = 1);

/**
 * Differential check of an arbitrary tier: run both mapped paths
 * with the interpreter forced and with the requested engine, on
 * identical pattern inputs, and return the largest deviation. The
 * optional reports record which tier each path actually used (e.g.
 * to assert that the JIT tier really ran rather than fell back).
 */
float engineVsInterpreterError(const MappingPlan &plan,
                               ExecEngine engine,
                               std::uint64_t seed = 7,
                               ExecReport *directReport = nullptr,
                               ExecReport *packedReport = nullptr);

/**
 * Tolerance-aware differential harness: run both mapped paths with
 * the interpreter forced and with the requested engine at
 * `numThreads`, on identical pattern inputs, and compare each pair
 * of outputs under `spec` (quant/compare.hh). Integer outputs are
 * compared bit-exactly by default; the returned result is the worst
 * of the direct and packed comparisons. The optional reports record
 * which tier each path actually used.
 */
quant::CompareResult
engineVsInterpreterCompare(const MappingPlan &plan, ExecEngine engine,
                           const quant::ToleranceSpec &spec,
                           std::uint64_t seed = 7, int numThreads = 1,
                           ExecReport *directReport = nullptr,
                           ExecReport *packedReport = nullptr);

} // namespace amos

#endif // AMOS_MAPPING_EXECUTE_HH
