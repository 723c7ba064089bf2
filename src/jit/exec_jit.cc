/**
 * @file
 * The executor-facing half of the JIT tier: lower the precompiled
 * plans to C via codegen/exec_c.hh, compile through the global
 * JitEngine, and run the resulting kernel. Installed into the
 * executors' hook points (tensor/jit_hook.hh, mapping/jit_hook.hh)
 * by a static registrar; binaries link amos_jit with WHOLE_ARCHIVE
 * (or call jit::ensureLinked()) so the registrar is not dropped.
 */

#include "codegen/exec_c.hh"
#include "jit/jit.hh"
#include "mapping/jit_hook.hh"
#include "tensor/jit_hook.hh"

namespace amos {

namespace {

// The emitted kernels declare their operand pointers restrict, so an
// output buffer aliasing an input (outputAliasesInput) would be
// undefined behaviour — the tier declines and the (alias-safe) stride
// walk runs instead.

bool
compileAndRun(const std::string &source,
              const std::vector<const Buffer *> &inputs,
              Buffer &output, std::string *why)
{
    ExecKernelFn fn = JitEngine::global().getOrCompile(source, why);
    if (!fn)
        return false;
    const void *ptrs[kMaxWalkOperands] = {nullptr};
    for (std::size_t i = 0; i < inputs.size(); ++i)
        ptrs[i] = inputs[i]->rawData();
    fn(ptrs, output.rawData());
    return true;
}

bool
jitReferenceRun(const TensorComputation &comp,
                const AccessWalkPlan &plan,
                const std::vector<const Buffer *> &inputs,
                Buffer &output, std::string *why)
{
    if (outputAliasesInput(output, inputs)) {
        *why = "output buffer aliases an input";
        return false;
    }
    std::vector<DataType> dtypes;
    for (const auto &in : comp.inputs())
        dtypes.push_back(in.decl.dtype());
    dtypes.push_back(comp.output().dtype());
    const std::string source = generateWalkKernelC(
        plan, comp.combine(), inputs.size(),
        "reference nest of " + comp.name(), dtypes);
    return compileAndRun(source, inputs, output, why);
}

bool
jitMappedDirectRun(const MappingPlan &plan, const ExecPlan &ep,
                   const std::vector<const Buffer *> &inputs,
                   Buffer &output, std::string *why)
{
    if (outputAliasesInput(output, inputs)) {
        *why = "output buffer aliases an input";
        return false;
    }
    const std::string source = generateDirectKernelC(
        ep, "direct mapped nest of " + plan.computation().name());
    return compileAndRun(source, inputs, output, why);
}

bool
jitMappedPackedRun(const MappingPlan &plan, const ExecPlan &ep,
                   const std::vector<const Buffer *> &inputs,
                   Buffer &output, std::string *why)
{
    if (outputAliasesInput(output, inputs)) {
        *why = "output buffer aliases an input";
        return false;
    }
    const std::string source = generatePackedKernelC(
        ep, "packed mapped nest of " + plan.computation().name());
    return compileAndRun(source, inputs, output, why);
}

const ReferenceJitHook kReferenceHook{&jitReferenceRun};
const MappedJitHooks kMappedHooks{&jitMappedDirectRun,
                                  &jitMappedPackedRun};

void
installHooks()
{
    setReferenceJitHook(&kReferenceHook);
    setMappedJitHooks(&kMappedHooks);
}

struct Registrar
{
    Registrar() { installHooks(); }
};
const Registrar g_registrar{};

} // namespace

namespace jit {

void
ensureLinked()
{
    installHooks();
}

} // namespace jit

} // namespace amos
