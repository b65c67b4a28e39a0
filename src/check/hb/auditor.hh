/**
 * @file
 * Happens-before race auditor for the fiber/event core.
 *
 * The simulator is cooperatively scheduled: one context runs at a
 * time, so nothing ever races in the OS sense. The planned parallel
 * discrete-event backend (ROADMAP) breaks that guarantee — shards run
 * concurrently and only *scheduler edges* order work across them. This
 * auditor answers, on today's serial runs, the question that plan
 * depends on: which guarded state is provably ordered by scheduler
 * edges, and which pairs of accesses merely happen to be serialized by
 * the single-threaded event loop?
 *
 * Mechanism: a vector-clock happens-before analysis in the style of
 * dynamic race detectors (ThreadSanitizer/FastTrack), driven by the
 * scheduler's true ordering edges via sim::TaskObserver:
 *
 *  - schedule -> fire: an event is ordered after the context that
 *    scheduled it (this one edge also covers WaitChannel::notifyAll
 *    and Process::delay, both of which wake fibers through scheduled
 *    resume events);
 *  - fiber resume/suspend: a fiber task is ordered after the event
 *    that resumed it, and the event's remaining code is ordered after
 *    the fiber's yield (synchronous call nesting);
 *  - same-tick FIFO: Order::dependent events at one tick fire in
 *    scheduling order by documented contract, so each is ordered
 *    after the previous dependent event of that tick;
 *  - boot/harness: the main context is ordered after every event that
 *    has already fired (the run loop returns before harness code
 *    inspects state).
 *
 * Clocks use chain decomposition: every task extends an existing
 * chain when it is ordered after that chain's current tail, so clock
 * width tracks the number of genuinely concurrent contexts, not the
 * number of tasks. Each fiber keeps a persistent chain.
 *
 * Access instrumentation rides on the PR-5 ContextGuard custody plane:
 * every mutate()/observe()/Scope on a guard records the calling
 * task's clock, shard domain, and call site into the guard's shadow
 * state (last writer, last reader per chain). An access pair that is
 * (a) unordered by the edges above and (b) tagged with two different
 * non-empty shard domains is a latent cross-shard race: under the
 * parallel plan those two contexts live on different threads with no
 * synchronization between them. Races carry both source locations and
 * the active UNET_PERTURB salt, so a flagged schedule is replayable.
 *
 * Shard domains come from two sources: Process::bindShardDomain for
 * fibers, and ScopedTaskDomain retags at servicing entry points
 * (kernel trap/interrupt handlers, NIC firmware, hub/switch fabric).
 * Untagged contexts (empty domain) are benign wildcards — boot code
 * and fixtures touch everything by design.
 */

#ifndef UNET_CHECK_HB_AUDITOR_HH
#define UNET_CHECK_HB_AUDITOR_HH

#include <cstdint>
#include <map>
#include <set>
#include <source_location>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "check/hb/hooks.hh"
#include "sim/event.hh"

namespace unet::sim {
class Simulation;
}

namespace unet::check {
class ContextGuard;
}

namespace unet::check::hb {

/** Ordering-edge kinds, as a bitmask (report classification). */
enum Edge : unsigned
{
    edgeBoot = 1u << 0,     ///< main/harness context
    edgeSchedule = 1u << 1, ///< event schedule -> fire
    edgeFiber = 1u << 2,    ///< fiber suspend/resume bracket
    edgeFifo = 1u << 3,     ///< same-tick Order::dependent FIFO
    edgeCall = 1u << 4,     ///< synchronous cross-domain entry
};

/** The set bits of @p mask as sorted edge names. */
std::vector<std::string> edgeNames(unsigned mask);

/** One recorded access site. */
struct AccessSite
{
    const char *op = "";
    const char *file = "";
    unsigned line = 0;
};

/** One flagged unordered cross-domain access pair. */
struct RaceRecord
{
    std::string object;       ///< guard label
    const char *kind = "";    ///< "write/write" or "read/write"
    std::string firstDomain;  ///< shard domain of the earlier access
    std::string secondDomain; ///< shard domain of the later access
    AccessSite first;
    AccessSite second;
    std::uint64_t salt = 0; ///< UNET_PERTURB salt, for replay
};

/** Aggregated per-object classification for the shardability report. */
struct ObjectSummary
{
    std::set<std::string> domains; ///< non-empty shard domains seen
    unsigned edges = 0;            ///< Edge mask over all accesses
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t races = 0;
    bool classifyOnly = false; ///< race checking suppressed (see cc)
};

#if defined(UNET_CHECK) && UNET_CHECK

/** Vector clock: chain id -> epoch. */
using VectorClock = std::map<std::uint32_t, std::uint64_t>;

/**
 * The auditor itself. Construct one per simulation (it installs
 * itself as the queue's TaskObserver and as the thread's current
 * auditor); run the workload; read races() and objects(). At most one
 * auditor may be live per thread.
 */
class Auditor : public sim::TaskObserver
{
  public:
    explicit Auditor(sim::Simulation &sim);
    ~Auditor() override;

    Auditor(const Auditor &) = delete;
    Auditor &operator=(const Auditor &) = delete;

    /** The live auditor on this thread, or nullptr (guard hooks). */
    static Auditor *current() { return detail::liveAuditor; }

    /** @name sim::TaskObserver — the scheduler's ordering edges. @{ */
    void onEventScheduled(std::uint64_t seq, sim::Tick when,
                          sim::Order order) override;
    void onEventFireBegin(std::uint64_t seq, sim::Tick when,
                          sim::Order order) override;
    void onEventFireEnd(std::uint64_t seq) override;
    void onEventCancelled(std::uint64_t seq) override;
    void onFiberResume(sim::Process &proc) override;
    void onFiberSuspend(sim::Process &proc) override;
    /** @} */

    /** Guard plane: one instrumented access (see noteGuardAccess). */
    void recordAccess(const ContextGuard &guard, const char *op,
                      bool write, const std::source_location &site);

    /** Guard plane: drop shadow state for a dying guard. */
    void guardDestroyed(const ContextGuard &guard);

    /** Flagged races, in detection order. */
    const std::vector<RaceRecord> &races() const { return _races; }

    /** Per-object classification, keyed by guard label (sorted). */
    const std::map<std::string, ObjectSummary> &objects() const
    {
        return _objects;
    }

    /** Number of clock chains allocated (diagnostic). */
    std::size_t chainCount() const { return _chainTail.size(); }

  private:
    friend class ScopedTaskDomain;

    /** One live execution context (event task or fiber slice). */
    struct TaskCtx
    {
        VectorClock clock;
        std::uint32_t chain = 0;
        std::string domain;
        unsigned edges = edgeBoot;
    };

    /** Clock snapshot taken when an event was scheduled. */
    struct Snapshot
    {
        VectorClock clock;
        std::string domain;
        std::uint32_t chain = 0;
    };

    /** Persistent per-fiber clock state across suspensions. */
    struct FiberState
    {
        VectorClock clock;
        std::uint32_t chain = 0;
        bool chainAssigned = false;
    };

    /** One shadowed access (FastTrack-style last writer/readers). */
    struct Access
    {
        std::uint32_t chain = 0;
        std::uint64_t epoch = 0;
        std::string domain;
        AccessSite site;
    };

    /** Shadow state for one guard. */
    struct Shadow
    {
        std::string label;
        Access lastWrite;
        bool hasWrite = false;
        std::map<std::uint32_t, Access> readers; ///< per chain
    };

    TaskCtx &top() { return _stack.back(); }
    static void join(VectorClock &into, const VectorClock &from);
    std::uint32_t pickChain(const VectorClock &clock,
                            std::uint32_t preferred);
    void advance(TaskCtx &t);
    void flagRace(ObjectSummary &obj, const std::string &label,
                  const char *kind, const Access &prev,
                  const Access &cur);
    void recordRegistryAccess(const char *op, bool write);

    sim::Simulation &_sim;
    std::vector<TaskCtx> _stack;
    std::map<std::uint64_t, Snapshot> _snaps; ///< pending events, by seq
    std::map<std::uint32_t, std::uint64_t> _chainTail;
    std::map<std::uint64_t, FiberState> _fibers; ///< by process id
    std::uint32_t _nextChain = 1;

    // Same-tick FIFO contract among Order::dependent events.
    sim::Tick _lastDepTick = 0;
    VectorClock _lastDepClock;
    bool _haveDep = false;

    // Guard shadows are looked up by object identity on the access
    // hot path and never iterated (the report walks the deterministic
    // Enrolled<ContextGuard> list and the label-keyed _objects map).
    // nondet-ok(unordered-container): keyed by pointer, never iterated
    std::unordered_map<const ContextGuard *, Shadow> _shadow;

    std::map<std::string, ObjectSummary> _objects;
    std::vector<RaceRecord> _races;
    std::set<std::string> _raceKeys; ///< site-pair dedup
};

/**
 * RAII shard-domain retag for the current task: servicing entry
 * points (trap handlers, interrupt handlers, NIC firmware, fabric
 * models) run in whatever context scheduled them, but *belong* to a
 * shard. Retagging from one non-empty domain to a different one also
 * records an edgeCall crossing — the synchronous entry the parallel
 * backend must turn into a message.
 */
class ScopedTaskDomain
{
  public:
    /** With no live auditor, construction and destruction are one
     *  inline null test each: a literal domain such as "fabric.eth"
     *  is never built into a std::string. */
    explicit ScopedTaskDomain(std::string_view domain)
        : _auditor(Auditor::current())
    {
        if (_auditor) [[unlikely]]
            enter(domain);
    }

    ~ScopedTaskDomain()
    {
        if (_auditor) [[unlikely]]
            leave();
    }

    ScopedTaskDomain(const ScopedTaskDomain &) = delete;
    ScopedTaskDomain &operator=(const ScopedTaskDomain &) = delete;

  private:
    void enter(std::string_view domain);
    void leave();

    Auditor *_auditor;
    std::string _saved;
};

#else // !UNET_CHECK

/** No-op stand-ins so product entry points need no #ifdefs. */
class Auditor
{
  public:
    explicit Auditor(sim::Simulation &) {}

    Auditor(const Auditor &) = delete;
    Auditor &operator=(const Auditor &) = delete;

    static Auditor *current() { return nullptr; }

    const std::vector<RaceRecord> &
    races() const
    {
        static const std::vector<RaceRecord> empty;
        return empty;
    }

    const std::map<std::string, ObjectSummary> &
    objects() const
    {
        static const std::map<std::string, ObjectSummary> empty;
        return empty;
    }

    std::size_t chainCount() const { return 0; }
};

class ScopedTaskDomain
{
  public:
    explicit ScopedTaskDomain(std::string_view) {}

    ScopedTaskDomain(const ScopedTaskDomain &) = delete;
    ScopedTaskDomain &operator=(const ScopedTaskDomain &) = delete;
};

#endif // UNET_CHECK

} // namespace unet::check::hb

#endif // UNET_CHECK_HB_AUDITOR_HH
