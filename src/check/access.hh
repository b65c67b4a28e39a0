/**
 * @file
 * Cross-fiber access checking for cooperatively shared state.
 *
 * The simulator's concurrency model is cooperative: one fiber (or the
 * event loop) runs at a time, so there are no data races in the OS
 * sense. What CAN go wrong is the cooperative analogue — state shared
 * between an application fiber and the agent servicing it (kernel trap
 * handler, NIC firmware model, DMA completion events) mutated by a
 * context that doesn't hold custody:
 *
 *  - a process fiber touching the rings of an endpoint owned by a
 *    *different* process (a protection violation the paper's
 *    architecture exists to prevent);
 *  - an API entry point handed process A as the claimed caller while
 *    actually running on process B's fiber (impersonation — the
 *    protection checks then validate the wrong process);
 *  - a mutation sequence interleaved across contexts: a fiber yields
 *    halfway through updating shared ring/descriptor state and another
 *    context re-enters it mid-update.
 *
 * ContextGuard is the shadow state for one shared structure. It is
 * advisory (the structure doesn't route its accesses through the
 * guard; checked call sites do), cheap — a thread-local read and a
 * pointer compare per check — and compiles to a completely empty
 * object when UNET_CHECK is OFF.
 *
 * Custody model, matching the ownership tracker's lenient/strict
 * split: the *main/event context* (event callbacks, kernel agents,
 * test harnesses) may always touch guarded state — agents legitimately
 * service every endpoint, and harnesses stuff rings directly. A
 * *process fiber* may only touch state whose guard it owns; unbound
 * guards (no owner recorded) are lenient for boot-time and fixture
 * code.
 */

#ifndef UNET_CHECK_ACCESS_HH
#define UNET_CHECK_ACCESS_HH

#include <source_location>
#include <string>

#include "check/enroll.hh"
#include "check/hb/hooks.hh"
#include "sim/current_process.hh"

namespace unet::check {

#if defined(UNET_CHECK) && UNET_CHECK

/**
 * Shadow custody state for one cooperatively shared structure.
 *
 * Besides the custody checks below, every guard doubles as an
 * instrumentation point for the happens-before race auditor
 * (src/check/hb/): when an Auditor is attached, each mutate()/
 * observe()/Scope records the calling context's vector clock and
 * source location against this guard's shadow state, and unordered
 * cross-domain access pairs are flagged as latent cross-shard races.
 * Enrollment (check/enroll.hh) lets the shardability report enumerate
 * every live guard, including ones a run never touched.
 */
class ContextGuard : public Enrolled<ContextGuard>
{
  public:
    /** @param what Static description of the guarded structure (a
     *  string literal; the guard stores only the pointer). */
    explicit ContextGuard(const char *what) : what(what), _label(what) {}

    ~ContextGuard() { hb::noteGuardDestroyed(*this); }

    ContextGuard(const ContextGuard &) = delete;
    ContextGuard &operator=(const ContextGuard &) = delete;

    /**
     * Name this guard for the shardability report. Instance-unique
     * labels ("node0.ep0.sendq") aggregate better than the static
     * description; unset, the description is the label.
     */
    void setLabel(std::string label) { _label = std::move(label); }
    const std::string &label() const { return _label; }

    /**
     * Record the owning process. Mutations from any *other* process
     * fiber then panic. nullptr (the default) leaves the guard
     * lenient: only interleaving is checked.
     */
    void bindOwner(const sim::Process *owner) { _owner = owner; }
    const sim::Process *owner() const { return _owner; }

    /**
     * Check a single mutation of the guarded structure. Panics when
     * the calling context is a process fiber that is not the bound
     * owner. The main/event context always passes (agents and
     * harnesses hold custody by construction). The defaulted
     * source_location captures the *call site*, which the
     * happens-before auditor reports as the access site of a race.
     */
    void
    mutate(const char *op,
           std::source_location site =
               std::source_location::current()) const
    {
        hb::noteGuardAccess(*this, op, /*write=*/true, site);
        // The main/event context (nullptr) and unbound guards pass.
        const sim::Process *p = sim::currentProcess();
        if (p != nullptr && _owner != nullptr && p != _owner) [[unlikely]]
            panicForeign(op);
    }

    /**
     * Record a read of the guarded structure for the happens-before
     * auditor (read/write race pairs). No custody check: reads from
     * the wrong context are not a protection violation in the
     * cooperative model, only a sharding hazard.
     */
    void
    observe(const char *op,
            std::source_location site =
                std::source_location::current()) const
    {
        hb::noteGuardAccess(*this, op, /*write=*/false, site);
    }

    /**
     * RAII span of exclusive access for multi-step mutations. Entering
     * a scope while another *context* is still inside one on the same
     * guard panics: that is a mutation sequence interleaved across a
     * yield — the cooperative equivalent of a data race. Same-context
     * re-entry is fine (nested calls on one fiber cannot race
     * themselves).
     */
    class Scope
    {
      public:
        Scope(ContextGuard &guard, const char *op,
              std::source_location site = std::source_location::current())
            : guard(guard)
        {
            guard.mutate(op, site);
            const void *ctx = sim::currentProcess();
            if (guard.depth > 0 && guard.holder != ctx) [[unlikely]]
                guard.panicInterleaved(op);
            guard.holder = ctx;
            guard.holderOp = op;
            ++guard.depth;
        }

        ~Scope()
        {
            if (--guard.depth == 0) {
                guard.holder = nullptr;
                guard.holderOp = nullptr;
            }
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        ContextGuard &guard;
    };

  private:
    friend class Scope;

    [[noreturn]] void panicForeign(const char *op) const;
    [[noreturn]] void panicInterleaved(const char *op) const;

    const char *what;
    std::string _label;
    const sim::Process *_owner = nullptr;

    // Scope bookkeeping: the context currently inside a Scope (the
    // running fiber, nullptr for main/event), the op that entered it,
    // and the nesting depth.
    const void *holder = nullptr;
    const char *holderOp = nullptr;
    int depth = 0;
};

/** assertCaller's out-of-line failure path. */
[[noreturn]] void panicImpersonation(const sim::Process &claimed,
                                     const char *op);

/**
 * Verify an API entry point's claimed caller: when running on a
 * process fiber, the claimed process must BE that fiber's process.
 * Called from the main context (harness/boot code acting on a
 * process's behalf) it passes. Panics on impersonation.
 */
inline void
assertCaller(const sim::Process &claimed, const char *op)
{
    const sim::Process *p = sim::currentProcess();
    if (p != nullptr && p != &claimed) [[unlikely]]
        panicImpersonation(claimed, op);
}

#else // !UNET_CHECK

/** No-op stand-in so call sites need no #ifdefs. */
class ContextGuard
{
  public:
    explicit ContextGuard(const char *) {}

    ContextGuard(const ContextGuard &) = delete;
    ContextGuard &operator=(const ContextGuard &) = delete;

    void bindOwner(const sim::Process *) {}
    const sim::Process *owner() const { return nullptr; }
    void setLabel(const std::string &) {}
    const std::string &
    label() const
    {
        static const std::string empty;
        return empty;
    }
    void mutate(const char *) const {}
    void observe(const char *) const {}

    class Scope
    {
      public:
        Scope(ContextGuard &, const char *) {}
    };
};

inline void assertCaller(const sim::Process &, const char *) {}

#endif // UNET_CHECK

} // namespace unet::check

#endif // UNET_CHECK_ACCESS_HH
