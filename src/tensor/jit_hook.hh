/**
 * @file
 * Registration point for the native-codegen JIT execution tier.
 *
 * The executors live below the JIT tier in the library graph: the
 * reference executor in the tensor library, the mapped executors in
 * the mapping library, and the JIT (src/jit) above codegen and
 * mapping. So none of them can call the tier directly. They call
 * through these hooks instead, which the amos_jit library installs at
 * load time (a static registrar, force-linked via WHOLE_ARCHIVE, or
 * explicitly with jit::ensureLinked()). When no hooks are installed,
 * ExecEngine::Jit degrades to the stride-walk engine with a
 * "jit tier not linked" fallback reason.
 */

#ifndef AMOS_TENSOR_JIT_HOOK_HH
#define AMOS_TENSOR_JIT_HOOK_HH

#include <string>
#include <vector>

#include "tensor/access_walk.hh"
#include "tensor/computation.hh"
#include "tensor/tensor.hh"

namespace amos {

class ExecPlan;
class MappingPlan;

/**
 * JIT entry points of the three execution paths. Each returns true
 * when the jitted kernel ran (output holds the result) and false —
 * with `why` explaining — when the tier declines and the caller
 * should fall back. The walk plan or ExecPlan passed in is already
 * compiled and checked against the buffers.
 */
struct JitHooks
{
    bool (*runReference)(const TensorComputation &comp,
                         const AccessWalkPlan &plan,
                         const std::vector<const Buffer *> &inputs,
                         Buffer &output, std::string *why) = nullptr;
    bool (*runDirect)(const MappingPlan &plan, const ExecPlan &ep,
                      const std::vector<const Buffer *> &inputs,
                      Buffer &output, std::string *why) = nullptr;
    bool (*runPacked)(const MappingPlan &plan, const ExecPlan &ep,
                      const std::vector<const Buffer *> &inputs,
                      Buffer &output, std::string *why) = nullptr;
};

/** Install (or clear, with nullptr) the JIT hooks. */
void setJitHooks(const JitHooks *hooks);

/** The installed hooks, or nullptr when the JIT tier is not linked. */
const JitHooks *jitHooks();

} // namespace amos

#endif // AMOS_TENSOR_JIT_HOOK_HH
