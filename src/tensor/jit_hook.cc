#include "jit_hook.hh"

#include <atomic>

namespace amos {

namespace {

std::atomic<const JitHooks *> g_hooks{nullptr};

} // namespace

void
setJitHooks(const JitHooks *hooks)
{
    g_hooks.store(hooks, std::memory_order_release);
}

const JitHooks *
jitHooks()
{
    return g_hooks.load(std::memory_order_acquire);
}

} // namespace amos
