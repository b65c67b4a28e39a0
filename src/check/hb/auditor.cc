#include "check/hb/auditor.hh"

#include <utility>

namespace unet::check::hb {

std::vector<std::string>
edgeNames(unsigned mask)
{
    // Sorted by name so report output is canonical.
    std::vector<std::string> names;
    if (mask & edgeBoot)
        names.push_back("boot");
    if (mask & edgeCall)
        names.push_back("call");
    if (mask & edgeFiber)
        names.push_back("fiber");
    if (mask & edgeFifo)
        names.push_back("fifo");
    if (mask & edgeSchedule)
        names.push_back("schedule");
    return names;
}

} // namespace unet::check::hb

#if defined(UNET_CHECK) && UNET_CHECK

#include "check/access.hh"
#include "sim/logging.hh"
#include "sim/perturb.hh"
#include "sim/process.hh"
#include "sim/simulation.hh"

namespace unet::check::hb {

Auditor::Auditor(sim::Simulation &sim) : _sim(sim)
{
    if (detail::liveAuditor)
        UNET_PANIC("happens-before auditor: one per thread (a "
                   "previous Auditor is still live)");
    if (sim.events().taskObserver())
        UNET_PANIC("happens-before auditor: the event queue already "
                   "has a TaskObserver");
    detail::liveAuditor = this;
    sim.events().setTaskObserver(this);

    // The metrics registry is instrumented classify-only: counters
    // are commutative sinks whose parallel-DES plan is per-shard
    // registries merged deterministically at the end of a quantum, so
    // unordered cross-domain updates are by-design, not races. The
    // domain set still lands in the shardability report.
    _objects["metrics.registry"].classifyOnly = true;
    sim.metrics().setAuditHook([this](const char *op, bool write) {
        recordRegistryAccess(op, write);
    });

    // Bottom of the context stack: the boot/harness context, chain 0.
    // Every finished event merges its clock here (the run loop
    // returns before harness code inspects state), so main-context
    // accesses are ordered after everything that already fired.
    TaskCtx boot;
    boot.chain = 0;
    boot.clock[0] = 0;
    boot.edges = edgeBoot;
    _stack.push_back(std::move(boot));
    _chainTail[0] = 0;
}

Auditor::~Auditor()
{
    _sim.events().setTaskObserver(nullptr);
    _sim.metrics().setAuditHook({});
    detail::liveAuditor = nullptr;
}

void
Auditor::join(VectorClock &into, const VectorClock &from)
{
    for (const auto &[chain, epoch] : from) {
        auto [it, inserted] = into.try_emplace(chain, epoch);
        if (!inserted && it->second < epoch)
            it->second = epoch;
    }
}

std::uint32_t
Auditor::pickChain(const VectorClock &clock, std::uint32_t preferred)
{
    // A task may extend chain c when it is ordered after c's current
    // tail — its joined clock covers the tail epoch exactly. Prefer
    // the scheduling parent's chain (keeps fiber -> resume-event ->
    // fiber sequences on one chain), else reuse any extendable chain,
    // else open a new one.
    auto extendable = [&](std::uint32_t c) {
        auto it = clock.find(c);
        return it != clock.end() && it->second == _chainTail.at(c);
    };
    if (_chainTail.count(preferred) && extendable(preferred))
        return preferred;
    for (const auto &[c, tail] : _chainTail) {
        (void)tail;
        if (extendable(c))
            return c;
    }
    return _nextChain++;
}

void
Auditor::advance(TaskCtx &t)
{
    t.clock[t.chain] = ++_chainTail[t.chain];
}

void
Auditor::onEventScheduled(std::uint64_t seq, sim::Tick when,
                          sim::Order order)
{
    (void)when;
    (void)order;
    const TaskCtx &t = top();
    _snaps.emplace(seq, Snapshot{t.clock, t.domain, t.chain});
}

void
Auditor::onEventFireBegin(std::uint64_t seq, sim::Tick when,
                          sim::Order order)
{
    TaskCtx t;
    t.edges = edgeSchedule;
    std::uint32_t preferred = 0;
    if (auto it = _snaps.find(seq); it != _snaps.end()) {
        t.clock = std::move(it->second.clock);
        t.domain = std::move(it->second.domain);
        preferred = it->second.chain;
        _snaps.erase(it);
    }
    if (order == sim::Order::dependent) {
        // Same-tick FIFO contract: dependent events at one tick fire
        // in scheduling order, so this event is ordered after the
        // previous dependent event of the tick even when their
        // scheduling contexts were unrelated.
        if (_haveDep && _lastDepTick == when) {
            join(t.clock, _lastDepClock);
            t.edges |= edgeFifo;
        }
    }
    t.chain = pickChain(t.clock, preferred);
    advance(t);
    if (order == sim::Order::dependent) {
        _lastDepTick = when;
        _lastDepClock = t.clock;
        _haveDep = true;
    }
    _stack.push_back(std::move(t));
}

void
Auditor::onEventFireEnd(std::uint64_t seq)
{
    (void)seq;
    if (_stack.size() < 2)
        UNET_PANIC("happens-before auditor: unbalanced event end");
    TaskCtx done = std::move(_stack.back());
    _stack.pop_back();
    // Synchronous-return edge: the parent context (another event's
    // frame, or the boot loop) continues after this task finished.
    join(top().clock, done.clock);
}

void
Auditor::onEventCancelled(std::uint64_t seq)
{
    _snaps.erase(seq);
}

void
Auditor::onFiberResume(sim::Process &proc)
{
    FiberState &f = _fibers[proc.id()];
    if (!f.chainAssigned) {
        f.chain = _nextChain++;
        f.chainAssigned = true;
        _chainTail[f.chain] = 0;
    }
    // Resume edge: the fiber is ordered after the task resuming it.
    join(f.clock, top().clock);
    TaskCtx t;
    t.chain = f.chain;
    t.clock = std::move(f.clock);
    t.domain = proc.shardDomain();
    t.edges = edgeFiber;
    advance(t);
    _stack.push_back(std::move(t));
}

void
Auditor::onFiberSuspend(sim::Process &proc)
{
    if (_stack.size() < 2)
        UNET_PANIC("happens-before auditor: unbalanced fiber suspend");
    TaskCtx done = std::move(_stack.back());
    _stack.pop_back();
    // Yield edge: the resuming task's remaining code runs after the
    // fiber suspended (synchronous call nesting).
    join(top().clock, done.clock);
    _fibers[proc.id()].clock = std::move(done.clock);
}

void
Auditor::recordAccess(const ContextGuard &guard, const char *op,
                      bool write, const std::source_location &site)
{
    const TaskCtx &t = top();
    ObjectSummary &obj = _objects[guard.label()];
    if (!t.domain.empty())
        obj.domains.insert(t.domain);
    obj.edges |= t.edges;
    if (write)
        ++obj.writes;
    else
        ++obj.reads;

    Shadow &s = _shadow[&guard];
    s.label = guard.label();

    Access cur;
    cur.chain = t.chain;
    cur.epoch = t.clock.at(t.chain);
    cur.domain = t.domain;
    cur.site = AccessSite{op, site.file_name(),
                          static_cast<unsigned>(site.line())};

    // A pair races when it is (a) unordered by scheduler edges and
    // (b) tagged with two different non-empty shard domains: the
    // parallel backend would run the two accesses on different
    // threads with nothing ordering them.
    auto ordered = [&](const Access &prev) {
        auto it = t.clock.find(prev.chain);
        return it != t.clock.end() && it->second >= prev.epoch;
    };
    auto races = [&](const Access &prev) {
        return !prev.domain.empty() && !cur.domain.empty() &&
               prev.domain != cur.domain && !ordered(prev);
    };

    if (!obj.classifyOnly) {
        if (write) {
            if (s.hasWrite && races(s.lastWrite))
                flagRace(obj, s.label, "write/write", s.lastWrite,
                         cur);
            for (const auto &[chain, r] : s.readers) {
                (void)chain;
                if (races(r))
                    flagRace(obj, s.label, "read/write", r, cur);
            }
            s.lastWrite = cur;
            s.hasWrite = true;
            s.readers.clear();
        } else {
            if (s.hasWrite && races(s.lastWrite))
                flagRace(obj, s.label, "read/write", s.lastWrite,
                         cur);
            Access &slot = s.readers[cur.chain];
            if (slot.epoch <= cur.epoch)
                slot = cur;
        }
    }
}

void
Auditor::flagRace(ObjectSummary &obj, const std::string &label,
                  const char *kind, const Access &prev,
                  const Access &cur)
{
    // Dedup by (object, kind, both sites): a racy poll loop should
    // read as one finding, not one per iteration.
    std::string key = label;
    key += '|';
    key += kind;
    key += '|';
    key += prev.site.file;
    key += ':';
    key += std::to_string(prev.site.line);
    key += '|';
    key += cur.site.file;
    key += ':';
    key += std::to_string(cur.site.line);
    if (!_raceKeys.insert(key).second)
        return;

    RaceRecord r;
    r.object = label;
    r.kind = kind;
    r.firstDomain = prev.domain;
    r.secondDomain = cur.domain;
    r.first = prev.site;
    r.second = cur.site;
    r.salt = sim::perturb::salt();
    _races.push_back(std::move(r));
    ++obj.races;
}

void
Auditor::recordRegistryAccess(const char *op, bool write)
{
    (void)op;
    const TaskCtx &t = top();
    ObjectSummary &obj = _objects["metrics.registry"];
    if (!t.domain.empty())
        obj.domains.insert(t.domain);
    obj.edges |= t.edges;
    if (write)
        ++obj.writes;
    else
        ++obj.reads;
}

void
Auditor::guardDestroyed(const ContextGuard &guard)
{
    _shadow.erase(&guard);
}

void
ScopedTaskDomain::enter(std::string_view domain)
{
    Auditor::TaskCtx &t = _auditor->top();
    _saved = t.domain;
    if (!_saved.empty() && _saved != domain)
        t.edges |= edgeCall;
    t.domain = domain;
}

void
ScopedTaskDomain::leave()
{
    _auditor->top().domain = _saved;
}

namespace detail {

void
recordGuardAccess(Auditor &auditor, const ContextGuard &guard,
                  const char *op, bool write,
                  const std::source_location &site)
{
    auditor.recordAccess(guard, op, write, site);
}

void
recordGuardDestroyed(Auditor &auditor, const ContextGuard &guard)
{
    auditor.guardDestroyed(guard);
}

} // namespace detail

} // namespace unet::check::hb

#endif // UNET_CHECK
