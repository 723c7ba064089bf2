/**
 * @file
 * Native lowering of compiled execution plans: turn the walk plans
 * the stride-walk engine runs (tensor/access_walk.hh; a mapped plan's
 * sweeps come from ExecPlan::lowered, mapping/exec_plan.hh) into a
 * self-contained C translation unit the JIT tier compiles at -O3 and
 * dlopens. The same text is what `amos_cli --emit-c` writes: the one
 * C backend, both executed and inspected.
 *
 * Every loop bound, stride, and base address is baked in as a
 * constant, operand pointers are restrict-qualified, and partial flat
 * addresses are hoisted out of inner loops — so the system compiler
 * can strength-reduce and auto-vectorize the inner loops. Clamped
 * levels stop at the end of their fused group, and carry levels read
 * their digits' address contribution from a per-tile table built by
 * carry steps, so no emitted loop divides. Loop order is exactly the
 * stride-walk engine's (which is the interpreter's), so accumulation
 * order — and therefore every floating-point bit — is identical to
 * the other two tiers.
 *
 * All kernels share the exported signature
 *
 *     void amos_exec_kernel(const void *const *inputs,
 *                           void *output);
 *
 * where each pointer's element type is the operand's storage lane
 * (tensor/dtype.hh): float for f16/f32, uint16_t raw bits for bf16,
 * int8_t/uint8_t for the 8-bit lanes, int32_t for exact quantized
 * accumulators. Integer kernels accumulate through an int64
 * intermediate with a wrapping cast back to int32 — the same exact
 * discipline as quant::intDotStep — so every engine's int8 result is
 * bit-identical. bf16 operands are widened to float on each load via
 * an emitted helper; bf16 accumulation is never emitted (it is
 * rejected at classification, see quant/semantics.hh).
 */

#ifndef AMOS_CODEGEN_EXEC_C_HH
#define AMOS_CODEGEN_EXEC_C_HH

#include <string>
#include <vector>

#include "mapping/exec_plan.hh"
#include "tensor/access_walk.hh"
#include "tensor/computation.hh"

namespace amos {

/** Exported symbol of every jitted exec kernel. */
inline constexpr const char *kExecKernelSymbol = "amos_exec_kernel";

/** C function-pointer type of a jitted exec kernel. */
using ExecKernelFn = void (*)(const void *const *, void *);

/**
 * Lower a pure affine walk nest — the reference executor's loop
 * nest — to C. `numInputs` operands of `plan` are inputs, the last
 * is the accumulated output. `operandDtypes` gives the declared
 * dtype of each operand, inputs first, output last (an empty vector
 * means all-f32); the combination must be one the classifier admits
 * (quant/semantics.hh). `description` becomes a header comment (and
 * thereby part of the kernel's content hash).
 */
std::string
generateWalkKernelC(const AccessWalkPlan &plan, CombineKind combine,
                    std::size_t numInputs,
                    const std::string &description,
                    const std::vector<DataType> &operandDtypes = {});

/**
 * Lower a compiled ExecPlan's direct path: its lowered direct sweep
 * (outer axes x per-group tile counters, with padding clamps and
 * carry levels). Requires plan.compiled().
 */
std::string generateDirectKernelC(const ExecPlan &plan,
                                  const std::string &description);

/**
 * Lower a compiled ExecPlan's packed pipeline: calloc'd tile
 * streams, the lowered pack sweep, the pure affine compute stage,
 * and the lowered unpack sweep — one translation unit. A multi-line
 * `description` becomes one comment line per line. Requires
 * plan.compiled().
 */
std::string generatePackedKernelC(const ExecPlan &plan,
                                  const std::string &description);

} // namespace amos

#endif // AMOS_CODEGEN_EXEC_C_HH
