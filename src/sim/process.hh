/**
 * @file
 * Blocking processes on top of fibers and the event queue.
 *
 * A Process runs a body function on a fiber. Inside the body, delay()
 * advances simulated time and waitOn() blocks until a WaitChannel is
 * notified (optionally with a timeout). This is the substrate on which
 * user applications — ping-pong loops, Split-C programs — are written as
 * ordinary sequential code.
 */

#ifndef UNET_SIM_PROCESS_HH
#define UNET_SIM_PROCESS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/current_process.hh"
#include "sim/event.hh"
#include "sim/fiber.hh"
#include "sim/simulation.hh"
#include "sim/time.hh"

namespace unet::sim {

class Process;

/**
 * A condition processes can block on.
 *
 * notifyAll() wakes every currently-blocked process; each resumes at the
 * current tick, in the order it blocked. There is no stored "signal":
 * a notify with no waiters is lost, so callers must re-check their
 * predicate after waking (standard condition-variable discipline).
 */
class WaitChannel
{
  public:
    /** Wake all processes currently blocked on this channel. */
    void notifyAll();

    /** Number of processes currently blocked. */
    std::size_t waiterCount() const { return waiters.size(); }

  private:
    friend class Process;
    std::vector<Process *> waiters;
};

/**
 * A simulated thread of control.
 *
 * The body runs when start() is called (or after the given delay) and
 * interleaves with the rest of the simulation whenever it blocks.
 */
class Process
{
  public:
    /**
     * @param sim        Owning simulation.
     * @param name       Diagnostic name.
     * @param body       Code to run; receives this process.
     * @param stack_size Fiber stack in bytes (default 256 KiB); raise
     *                   it for deeply nested handler chains.
     */
    Process(Simulation &sim, std::string name,
            std::function<void(Process &)> body,
            std::size_t stack_size = 256 * 1024);

    ~Process();

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /** Begin execution @p delay ticks from now. */
    void start(Tick delay = 0);

    /** True once the body has returned. */
    bool finished() const { return fiber && fiber->finished(); }

    const std::string &name() const { return _name; }

    /**
     * Stable id, allocated from the owning simulation in construction
     * order. Use this — never the Process address — as a map key:
     * addresses vary across perturbation salts, ids do not.
     */
    std::uint64_t id() const { return _id; }

    /**
     * Declare which shard of the planned parallel simulation this
     * fiber belongs to (by convention the host name, or a "fabric.*"
     * name for switch/hub-side work). The happens-before auditor
     * treats unordered accesses from two *different* non-empty domains
     * as latent cross-shard races; an unbound fiber (empty domain) is
     * a benign wildcard. Purely diagnostic — no simulation behavior
     * reads it.
     */
    void bindShardDomain(std::string domain)
    {
        _shardDomain = std::move(domain);
    }
    const std::string &shardDomain() const { return _shardDomain; }

    Simulation &simulation() { return sim; }

    /** The process currently executing, or nullptr. */
    static Process *current() { return currentProcess(); }

    /**
     * @name Blocking operations — only callable from inside the body.
     * @{
     */

    /** Advance simulated time by @p d while "running". */
    void delay(Tick d);

    /** Block until @p ch is notified. */
    void waitOn(WaitChannel &ch);

    /**
     * Block until @p ch is notified or @p timeout elapses.
     * @return true if notified, false on timeout.
     */
    bool waitOn(WaitChannel &ch, Tick timeout);

    /** Yield to other same-tick activity and resume immediately. */
    void yieldNow();

    /** @} */

  private:
    friend class WaitChannel;

    /** Resume the fiber from the event loop. */
    void resume();

    /** Yield out of the fiber back to the event loop. */
    void suspend();

    /**
     * Why the fiber is currently suspended, as a digest token mixed
     * into Simulation::suspensionDigest() (0 while running/unstarted).
     * Distinct suspension reasons at the same point of progress —
     * delay() vs waitOn() with a timeout — leave identical event
     * queues and resume counters; this token is what still tells them
     * apart in the explorer's pruning digest.
     */
    enum SuspendKind : std::uint64_t
    {
        suspendDelay = 1,
        suspendWait = 2,
        suspendWaitTimeout = 3,
    };

    /** RAII suspension-point token around a suspend() call. */
    class SuspendToken
    {
      public:
        SuspendToken(Process &p, SuspendKind kind);
        ~SuspendToken();

        SuspendToken(const SuspendToken &) = delete;
        SuspendToken &operator=(const SuspendToken &) = delete;

      private:
        Process &p;
        std::uint64_t token;
    };

    Simulation &sim;
    std::string _name;
    std::uint64_t _id;
    std::string _shardDomain;
    std::function<void(Process &)> body;
    std::size_t stackSize;
    std::unique_ptr<Fiber> fiber;
    bool started = false;
    std::uint64_t _resumeCount = 0;

    // Wakeup bookkeeping for waitOn with timeout.
    bool wokenByNotify = false;
    EventHandle timeoutEvent;
};

} // namespace unet::sim

#endif // UNET_SIM_PROCESS_HH
