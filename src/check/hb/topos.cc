#include "check/hb/topos.hh"

#include <memory>
#include <span>

#include "am/active_messages.hh"
#include "check/hb/report.hh"
#include "fault/fault.hh"
#include "serve/rig.hh"
#include "sim/logging.hh"
#include "topo/topology.hh"
#include "unet/vep/vep.hh"

namespace unet::check::hb {

namespace {

EndpointConfig
smallEndpoint()
{
    EndpointConfig cfg;
    cfg.sendQueueDepth = 8;
    cfg.recvQueueDepth = 8;
    cfg.freeQueueDepth = 8;
    cfg.bufferAreaBytes = 32 * 1024;
    return cfg;
}

/** Harvest the auditor's product after a run. */
TopoResult
harvest(const Auditor &auditor, const std::string &name)
{
    TopoResult r;
    r.races = auditor.races();
    r.objects = auditor.objects();
    r.report = reportString(auditor, name);
    r.reportVerbose = reportString(auditor, name, /*verbose=*/true);
    r.chains = auditor.chainCount();
    return r;
}

// ----------------------------------------------------------------- fig5

/** Two-node ping-pong over a hub: the Figure 5 latency rig, with both
 *  application fibers bound to their hosts' shard domains. */
TopoResult
runFig5()
{
    constexpr int rounds = 2;
    sim::Simulation s;
    topo::Topology topology(s, topo::Spec::numbered(eth::HubSpec{}, 2));
    topo::FeNode &a = topology.fe(0), &b = topology.fe(1);
    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;

    sim::Process ping(s, "ping", [&](sim::Process &self) {
        RecvDescriptor rd;
        for (int r = 0; r < rounds; ++r) {
            if (!a.unet.send(self, *epA, fragmentSend(chanA, {16384, 48})))
                UNET_PANIC("hb fig5: ping send refused");
            a.unet.flush(self, *epA);
            if (!epA->wait(self, rd, sim::seconds(1)))
                UNET_PANIC("hb fig5: ping timed out");
        }
    });
    sim::Process echo(s, "echo", [&](sim::Process &self) {
        RecvDescriptor rd;
        for (int r = 0; r < rounds; ++r) {
            if (!epB->wait(self, rd, sim::seconds(1)))
                UNET_PANIC("hb fig5: echo timed out");
            if (!b.unet.send(self, *epB,
                             fragmentSend(chanB, {16384, rd.length})))
                UNET_PANIC("hb fig5: echo send refused");
            b.unet.flush(self, *epB);
        }
    });
    ping.bindShardDomain(a.host.name());
    echo.bindShardDomain(b.host.name());

    epA = &a.unet.createEndpoint(&ping, smallEndpoint());
    epB = &b.unet.createEndpoint(&echo, smallEndpoint());
    topology.connect(0, *epA, 1, *epB, chanA, chanB);

    Auditor auditor(s);
    echo.start();
    ping.start(sim::microseconds(5));
    s.run();
    if (!ping.finished() || !echo.finished())
        UNET_PANIC("hb fig5: rig deadlocked");
    return harvest(auditor, "fig5");
}

// ---------------------------------------------------------------- fault

/** Bidirectional AM traffic with a planted drop burst on the A->B
 *  direction: the fault-scenario reference topology. Go-Back-N
 *  retransmission timers and crossing ACK traffic exercise the
 *  schedule-edge model far harder than the clean ping-pong. */
TopoResult
runFault()
{
    static constexpr std::uint32_t messages = 3;
    sim::Simulation s;
    topo::Topology topology(s,
                            topo::Spec::numbered(topo::EthLinkSpec{}, 2));
    topo::FeNode &a = topology.fe(0), &b = topology.fe(1);
    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<am::ActiveMessages> amA, amB;
    std::vector<am::Word> received[2];

    auto body = [&](sim::Process &p, int side) {
        am::ActiveMessages &am = side == 0 ? *amA : *amB;
        ChannelId chan = side == 0 ? chanA : chanB;
        for (std::uint32_t i = 0; i < messages; ++i)
            if (!am.request(p, chan, 1, {i, 0, 0, 0}))
                UNET_PANIC("hb fault: request refused");
        if (!am.drain(p, sim::seconds(1)))
            UNET_PANIC("hb fault: drain timed out");
        if (!am.pollUntil(
                p,
                [&received, side] {
                    return received[side].size() >= messages;
                },
                sim::seconds(1)))
            UNET_PANIC("hb fault: receive timed out");
        // Let the final ACK flush so the peer's drain succeeds.
        am.pollUntil(p, [] { return false; }, sim::milliseconds(2));
    };
    sim::Process procA(s, "A", [&](sim::Process &p) { body(p, 0); });
    sim::Process procB(s, "B", [&](sim::Process &p) { body(p, 1); });
    procA.bindShardDomain(a.host.name());
    procB.bindShardDomain(b.host.name());

    EndpointConfig cfg = smallEndpoint();
    cfg.sendQueueDepth = 16;
    cfg.recvQueueDepth = 16;
    cfg.freeQueueDepth = 16;
    cfg.bufferAreaBytes = 64 * 1024;
    epA = &a.unet.createEndpoint(&procA, cfg);
    epB = &b.unet.createEndpoint(&procB, cfg);
    topology.connect(0, *epA, 1, *epB, chanA, chanB);

    amA = std::make_unique<am::ActiveMessages>(a.unet, *epA);
    amB = std::make_unique<am::ActiveMessages>(b.unet, *epB);
    amA->openChannel(chanA);
    amB->openChannel(chanB);
    amA->setHandler(
        1, [&](sim::Process &, am::Token, const am::Args &args,
               std::span<const std::uint8_t>) {
            received[0].push_back(args[0]);
        });
    amB->setHandler(
        1, [&](sim::Process &, am::Token, const am::Args &args,
               std::span<const std::uint8_t>) {
            received[1].push_back(args[0]);
        });

    // Deterministic burst: the 2nd and 3rd frames crossing A->B are
    // dropped. Declared before attach, destroyed after the sim.
    fault::Plan plan;
    plan.model("eth.link.0").dropUnits = {1, 2};
    topology.attachFaults(plan);

    Auditor auditor(s);
    procA.start(sim::microseconds(5));
    procB.start(sim::microseconds(5));
    s.run();
    if (!procA.finished() || !procB.finished())
        UNET_PANIC("hb fault: rig deadlocked");
    if (amA->retransmits() == 0)
        UNET_PANIC("hb fault: the drop burst was never exercised");
    return harvest(auditor, "fault");
}

// ---------------------------------------------------------------- serve

/** A small serving cluster from the RPC plane: two clients fan into
 *  one server across the Bay-28115 switch model. */
TopoResult
runServe()
{
    serve::RigSpec spec;
    spec.nic = serve::NicKind::Fe;
    spec.clients = 2;
    serve::ServeRig rig(spec);

    serve::Workload w;
    w.closedLoop = true;
    w.requestsPerClient = 4;
    w.window = 1;

    Auditor auditor(rig.simulation());
    serve::RunResult res = rig.run(w);
    if (!res.finished)
        UNET_PANIC("hb serve: rig did not quiesce");
    if (res.completed == 0)
        UNET_PANIC("hb serve: no request completed");
    return harvest(auditor, "serve");
}

// ----------------------------------------------------------- planted-ww

/** Two fibers on different shard domains write one ResidencyCache
 *  with no scheduler edge between them: the canonical write/write
 *  cross-shard race the parallel backend would hit. */
TopoResult
runPlantedWw()
{
    sim::Simulation s;
    vep::ResidencyCache cache(s, {}, "planted.vep");

    sim::Process writerA(s, "writerA", [&](sim::Process &) {
        // hb planted: unordered cross-shard write #1
        cache.touch(1);
    });
    sim::Process writerB(s, "writerB", [&](sim::Process &) {
        // hb planted: unordered cross-shard write #2
        cache.touch(2);
    });
    writerA.bindShardDomain("shardA");
    writerB.bindShardDomain("shardB");

    Auditor auditor(s);
    // Both start events are scheduled from the boot context before
    // either ran, so neither fiber's clock covers the other: the two
    // touches are concurrent under the happens-before model even
    // though the serial event loop runs them 5us apart.
    writerA.start(sim::microseconds(5));
    writerB.start(sim::microseconds(10));
    s.run();
    return harvest(auditor, "planted-ww");
}

// ----------------------------------------------------------- planted-rw

/** A foreign-shard monitor fiber peeks an endpoint send ring that the
 *  owning node's kernel path wrote: a read/write cross-shard race on
 *  a Figure-1 ring. */
TopoResult
runPlantedRw()
{
    sim::Simulation s;
    topo::Topology topology(s, topo::Spec::numbered(eth::HubSpec{}, 2));
    topo::FeNode &a = topology.fe(0), &b = topology.fe(1);
    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;

    sim::Process ping(s, "ping", [&](sim::Process &self) {
        RecvDescriptor rd;
        if (!a.unet.send(self, *epA, fragmentSend(chanA, {16384, 48})))
            UNET_PANIC("hb planted-rw: send refused");
        a.unet.flush(self, *epA);
        if (!epA->wait(self, rd, sim::seconds(1)))
            UNET_PANIC("hb planted-rw: ping timed out");
    });
    sim::Process echo(s, "echo", [&](sim::Process &self) {
        RecvDescriptor rd;
        if (!epB->wait(self, rd, sim::seconds(1)))
            UNET_PANIC("hb planted-rw: echo timed out");
        if (!b.unet.send(self, *epB,
                         fragmentSend(chanB, {16384, rd.length})))
            UNET_PANIC("hb planted-rw: echo send refused");
        b.unet.flush(self, *epB);
    });
    // The monitor belongs to a different shard and reads the ring
    // without any ordering edge to node0's writes (its start event
    // predates all of them). observe() is deliberate: a foreign READ
    // is not a custody violation, only a sharding hazard — exactly
    // the class the custody plane alone cannot catch.
    sim::Process spy(s, "spy", [&](sim::Process &) {
        // hb planted: unordered cross-shard read of node0's send ring
        epA->sendGuard().observe("spy ring peek");
    });
    ping.bindShardDomain(a.host.name());
    echo.bindShardDomain(b.host.name());
    spy.bindShardDomain("monitor");

    epA = &a.unet.createEndpoint(&ping, smallEndpoint());
    epB = &b.unet.createEndpoint(&echo, smallEndpoint());
    topology.connect(0, *epA, 1, *epB, chanA, chanB);

    Auditor auditor(s);
    echo.start();
    ping.start(sim::microseconds(5));
    spy.start(sim::microseconds(400));
    s.run();
    if (!ping.finished() || !echo.finished() || !spy.finished())
        UNET_PANIC("hb planted-rw: rig deadlocked");
    return harvest(auditor, "planted-rw");
}

const std::vector<Topo> &
topoTable()
{
    static const std::vector<Topo> topos = {
        {"fig5", "two-node FE ping-pong over a hub", false},
        {"fault", "AM Go-Back-N recovery under a drop burst", false},
        {"serve", "two RPC clients fanning into one server", false},
        {"planted-ww",
         "planted write/write race on a ResidencyCache", true},
        {"planted-rw",
         "planted read/write race on an endpoint send ring", true},
    };
    return topos;
}

} // namespace

const std::vector<Topo> &
topologies()
{
    return topoTable();
}

const Topo *
findTopo(const std::string &name)
{
    for (const Topo &t : topoTable())
        if (t.name == name)
            return &t;
    return nullptr;
}

TopoResult
runTopo(const std::string &name)
{
    if (name == "fig5")
        return runFig5();
    if (name == "fault")
        return runFault();
    if (name == "serve")
        return runServe();
    if (name == "planted-ww")
        return runPlantedWw();
    if (name == "planted-rw")
        return runPlantedRw();
    UNET_FATAL("unknown hb topology '", name,
               "' (see unet-hb --list)");
}

} // namespace unet::check::hb
