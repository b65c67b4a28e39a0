/**
 * @file
 * Closed configurations for the model checker.
 *
 * Each config is a small, fully self-contained simulation — nodes,
 * processes, traffic, and oracles — rebuilt from scratch for every
 * explored run. Kept deliberately tiny: the schedule space grows with
 * the number of same-tick permutable events, and these rigs exist to
 * be enumerated, not to be representative workloads.
 *
 *   fig5        two-node FE ping-pong (the Figure 5 rig), two rounds
 *               with distinct lengths for the in-order oracle
 *   retransmit  burst loss on the A->B link inside an AM window;
 *               exactly-once delivery through Go-Back-N recovery
 *   demux       three same-tick senders into three endpoints on one
 *               receiving node: the receive-demux race
 *   seeded-credit-bug
 *               six permutable same-tick events with a planted credit
 *               double-return on exactly one of the 720 orderings —
 *               the regression that salts miss and exploration finds
 *   sendv-race  three fibers on one ATM host post overlapping sendv
 *               descriptor trains while the i960 firmware's tx polls
 *               race the doorbells; exactly-once, in-order,
 *               credit-conservation oracles
 *   atm-cmdqueue
 *               two fibers on one ATM host post scalar sends, one
 *               doorbell command each, while the i960's per-endpoint
 *               tx polls race the command queue; exactly-once,
 *               in-order oracles
 *   upcall      two sender nodes race into one receiving endpoint in
 *               the upcall (signal-handler) receive model; per-lane
 *               exactly-once, in-order oracles over the activation
 *               batching
 *   ep-evict    three senders fire into a node whose endpoint hot set
 *               holds 2 of 3 endpoints while a local fiber sends from
 *               the paged-out one: receive demux races LRU eviction,
 *               the send races its own page-in; exactly-once,
 *               capacity, and pin-safety oracles
 */

#include <memory>
#include <string>
#include <vector>

#include "am/active_messages.hh"
#include "check/credits.hh"
#include "check/explore/explore.hh"
#include "fault/fault.hh"
#include "sim/logging.hh"
#include "topo/topology.hh"

namespace unet::check::explore {

namespace {

/** Mix an endpoint's externally visible queue state. */
void
mixEndpoint(obs::Digest &d, const Endpoint &ep)
{
    d.mix(static_cast<std::uint64_t>(ep.sendQueue().size()));
    auto &mut = const_cast<Endpoint &>(ep);
    d.mix(static_cast<std::uint64_t>(mut.recvQueue().size()));
    d.mix(static_cast<std::uint64_t>(mut.freeQueue().size()));
}

// ---------------------------------------------------------------- fig5

/** Two-node ping-pong over a hub, as the Figure 5 latency rig. */
class Fig5Instance : public ConfigInstance
{
  public:
    static constexpr int rounds = 2;

    static std::uint32_t
    length(int round)
    {
        // Distinct per-round lengths make reordering observable; both
        // are under smallMessageMax, so receives are descriptor-inline
        // and the rig needs no free-queue traffic.
        return 40 + 8 * static_cast<std::uint32_t>(round);
    }

    Fig5Instance()
        : topology(s, topo::Spec::numbered(eth::HubSpec{}, 2)),
          a(topology.fe(0)), b(topology.fe(1)),
          ping(s, "ping", [this](sim::Process &p) { pingBody(p); }),
          echo(s, "echo", [this](sim::Process &p) { echoBody(p); })
    {
        EndpointConfig cfg;
        cfg.sendQueueDepth = 8;
        cfg.recvQueueDepth = 8;
        cfg.freeQueueDepth = 8;
        cfg.bufferAreaBytes = 32 * 1024;
        epA = &a.unet.createEndpoint(&ping, cfg);
        epB = &b.unet.createEndpoint(&echo, cfg);
        topology.connect(0, *epA, 1, *epB, chanA, chanB);
        echo.start();
        ping.start(sim::microseconds(5));
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        epA->auditRings();
        epB->auditRings();
        if (epA->rxQueueDrops() || epB->rxQueueDrops())
            UNET_PANIC("fig5: receive-queue drop in a lossless rig");
    }

    void
    checkEnd() override
    {
        if (!ping.finished() || !echo.finished())
            UNET_PANIC("fig5: deadlock (ping finished=",
                       ping.finished() ? 1 : 0, ", echo finished=",
                       echo.finished() ? 1 : 0, ")");
        if (echoSeen.size() != rounds || pingSeen.size() != rounds)
            UNET_PANIC("fig5: exactly-once violated: echo saw ",
                       echoSeen.size(), ", ping saw ", pingSeen.size(),
                       " of ", rounds, " messages");
        for (int r = 0; r < rounds; ++r) {
            if (echoSeen[static_cast<std::size_t>(r)] != length(r))
                UNET_PANIC("fig5: in-order violated at echo round ", r,
                           ": got length ",
                           echoSeen[static_cast<std::size_t>(r)],
                           ", expected ", length(r));
            if (pingSeen[static_cast<std::size_t>(r)] != length(r))
                UNET_PANIC("fig5: in-order violated at ping round ", r,
                           ": got length ",
                           pingSeen[static_cast<std::size_t>(r)],
                           ", expected ", length(r));
        }
    }

    void
    mixState(obs::Digest &d) const override
    {
        d.mix(static_cast<std::uint64_t>(pingSeen.size()));
        for (std::uint32_t v : pingSeen)
            d.mix(static_cast<std::uint64_t>(v));
        d.mix(static_cast<std::uint64_t>(echoSeen.size()));
        for (std::uint32_t v : echoSeen)
            d.mix(static_cast<std::uint64_t>(v));
        d.mix(static_cast<std::uint64_t>(ping.finished()));
        d.mix(static_cast<std::uint64_t>(echo.finished()));
        mixEndpoint(d, *epA);
        mixEndpoint(d, *epB);
    }

  private:
    void
    pingBody(sim::Process &self)
    {
        RecvDescriptor rd;
        for (int r = 0; r < rounds; ++r) {
            if (!a.unet.send(self, *epA,
                             fragmentSend(chanA, {16384, length(r)})))
                UNET_PANIC("fig5: ping send ", r, " refused");
            a.unet.flush(self, *epA);
            if (!epA->wait(self, rd, sim::seconds(1)))
                UNET_PANIC("fig5: ping timed out in round ", r);
            pingSeen.push_back(rd.length);
        }
    }

    void
    echoBody(sim::Process &self)
    {
        RecvDescriptor rd;
        for (int r = 0; r < rounds; ++r) {
            if (!epB->wait(self, rd, sim::seconds(1)))
                UNET_PANIC("fig5: echo timed out in round ", r);
            echoSeen.push_back(rd.length);
            if (!b.unet.send(self, *epB,
                             fragmentSend(chanB, {16384, rd.length})))
                UNET_PANIC("fig5: echo send ", r, " refused");
            b.unet.flush(self, *epB);
        }
    }

    sim::Simulation s;
    topo::Topology topology;
    topo::FeNode &a, &b;
    sim::Process ping, echo;
    Endpoint *epA = nullptr;
    Endpoint *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::vector<std::uint32_t> pingSeen, echoSeen;
};

// ---------------------------------------------------------- retransmit

/** Burst loss inside an AM send window, with symmetric bidirectional
 *  traffic: both sides fire their requests from the same tick (the
 *  same-tick concurrency the explorer permutes), the fault plane
 *  drops a burst in the A->B direction, and Go-Back-N must recover
 *  to exactly-once, in-order delivery with all credits returned. */
class RetransmitInstance : public ConfigInstance
{
  public:
    static constexpr std::uint32_t messages = 3;

    RetransmitInstance()
        : topology(s, topo::Spec::numbered(topo::EthLinkSpec{}, 2)),
          a(topology.fe(0)), b(topology.fe(1)),
          procA(s, "A", [this](sim::Process &p) { body(p, 0); }),
          procB(s, "B", [this](sim::Process &p) { body(p, 1); })
    {
        EndpointConfig cfg;
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
            1, [this](sim::Process &, am::Token, const am::Args &args,
                      std::span<const std::uint8_t>) {
                received[0].push_back(args[0]);
            });
        amB->setHandler(
            1, [this](sim::Process &, am::Token, const am::Args &args,
                      std::span<const std::uint8_t>) {
                received[1].push_back(args[0]);
            });

        // Deterministic burst: the 2nd and 3rd frames crossing the
        // A->B direction are dropped (direction 0 belongs to the
        // first-attached station, node a). Consumes no randomness.
        plan.model("eth.link.0").dropUnits = {1, 2};
        topology.attachFaults(plan);

        // Same tick on both sides: their request trains and the
        // crossing ACK/data traffic are the permutable events.
        procA.start(sim::microseconds(5));
        procB.start(sim::microseconds(5));
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        epA->auditRings();
        epB->auditRings();
    }

    void
    checkEnd() override
    {
        if (!procA.finished() || !procB.finished())
            UNET_PANIC("retransmit: deadlock (A finished=",
                       procA.finished() ? 1 : 0, ", B finished=",
                       procB.finished() ? 1 : 0, ")");
        for (int side = 0; side < 2; ++side) {
            const auto &ids = received[side];
            if (ids.size() != messages)
                UNET_PANIC("retransmit: exactly-once violated on side ",
                           side, ": handler ran ", ids.size(),
                           " times for ", messages, " requests");
            for (std::uint32_t i = 0; i < messages; ++i)
                if (ids[i] != i)
                    UNET_PANIC("retransmit: in-order violated on side ",
                               side, " at ", i, ": got id ", ids[i]);
        }
        if (amA->retransmits() == 0)
            UNET_PANIC("retransmit: the loss burst was never "
                       "exercised (no retransmissions)");
        CreditWindow::forEachEnrolled([](const CreditWindow &w) {
            if (w.held() != 0)
                UNET_PANIC("retransmit: ", w.held(),
                           " credits still held after drain");
        });
    }

    void
    mixState(obs::Digest &d) const override
    {
        for (int side = 0; side < 2; ++side) {
            d.mix(static_cast<std::uint64_t>(received[side].size()));
            for (am::Word v : received[side])
                d.mix(static_cast<std::uint64_t>(v));
        }
        d.mix(amA->sent());
        d.mix(amA->retransmits());
        d.mix(amA->received());
        d.mix(amB->sent());
        d.mix(amB->received());
        d.mix(amB->duplicates());
        d.mix(static_cast<std::uint64_t>(procA.finished()));
        d.mix(static_cast<std::uint64_t>(procB.finished()));
        mixEndpoint(d, *epA);
        mixEndpoint(d, *epB);
    }

  private:
    void
    body(sim::Process &p, int side)
    {
        am::ActiveMessages &am = side == 0 ? *amA : *amB;
        ChannelId chan = side == 0 ? chanA : chanB;
        for (std::uint32_t i = 0; i < messages; ++i)
            if (!am.request(p, chan, 1, {i, 0, 0, 0}))
                UNET_PANIC("retransmit: side ", side, " request ", i,
                           " refused");
        if (!am.drain(p, sim::seconds(1)))
            UNET_PANIC("retransmit: side ", side, " drain timed out");
        if (!am.pollUntil(
                p,
                [this, side] {
                    return received[side].size() >= messages;
                },
                sim::seconds(1)))
            UNET_PANIC("retransmit: side ", side, " receive timed out");
        // Let the final ACK flush so the peer's drain succeeds.
        am.pollUntil(p, [] { return false; }, sim::milliseconds(2));
    }

    sim::Simulation s;
    topo::Topology topology;
    topo::FeNode &a, &b;
    sim::Process procA, procB;
    Endpoint *epA = nullptr;
    Endpoint *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<am::ActiveMessages> amA, amB;
    std::vector<am::Word> received[2];

    /** Declared last: armed injectors register metrics in s's
     *  registry and must deregister before it dies. */
    fault::Plan plan;
};

// --------------------------------------------------------------- demux

/** Three sender nodes fire at the same tick into three endpoints of
 *  one receiving node (over a switch, so no CSMA/CD backoff widens
 *  the space): whatever order the frames reach the receive demux,
 *  each message must land on its own endpoint, exactly once. */
class DemuxInstance : public ConfigInstance
{
  public:
    static constexpr int lanes = 3;

    static std::uint32_t
    length(int lane)
    {
        return 40 + static_cast<std::uint32_t>(lane);
    }

    /** Receiver b is node 0; sender i is node i + 1. */
    DemuxInstance()
        : topology(s,
                   topo::Spec::numbered(eth::SwitchSpec{}, lanes, {lanes})),
          b(topology.fe(0))
    {
        EndpointConfig cfg;
        cfg.sendQueueDepth = 8;
        cfg.recvQueueDepth = 8;
        cfg.freeQueueDepth = 8;
        cfg.bufferAreaBytes = 16 * 1024;
        for (int i = 0; i < lanes; ++i) {
            senders.push_back(std::make_unique<sim::Process>(
                s, "send" + std::to_string(i),
                [this, i](sim::Process &p) { senderBody(p, i); }));
            UNet &un = topology.unet(i + 1);
            epA.push_back(&un.createEndpoint(senders.back().get(), cfg));
            // Receiver endpoints have no process: messages are small,
            // land descriptor-inline, and are polled at the end.
            epB.push_back(&b.unet.createEndpoint(nullptr, cfg));
            ChannelId ca = invalidChannel, cb = invalidChannel;
            topology.connect(i + 1, *epA.back(), 0, *epB.back(), ca, cb);
            chans.push_back(ca);
        }
        for (auto &proc : senders)
            proc->start(sim::microseconds(10)); // same tick: the race
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        for (int i = 0; i < lanes; ++i) {
            epA[static_cast<std::size_t>(i)]->auditRings();
            epB[static_cast<std::size_t>(i)]->auditRings();
        }
    }

    void
    checkEnd() override
    {
        for (auto &proc : senders)
            if (!proc->finished())
                UNET_PANIC("demux: sender ", proc->name(),
                           " did not finish");
        for (int i = 0; i < lanes; ++i) {
            Endpoint &ep = *epB[static_cast<std::size_t>(i)];
            RecvDescriptor rd;
            if (!ep.poll(rd))
                UNET_PANIC("demux: endpoint ", i, " received nothing");
            if (!rd.isSmall || rd.length != length(i))
                UNET_PANIC("demux: endpoint ", i, " got a ", rd.length,
                           "-byte message, expected ", length(i),
                           " (misrouted demux)");
            if (ep.poll(rd))
                UNET_PANIC("demux: endpoint ", i,
                           " received more than one message");
        }
    }

    void
    mixState(obs::Digest &d) const override
    {
        for (int i = 0; i < lanes; ++i) {
            d.mix(static_cast<std::uint64_t>(
                senders[static_cast<std::size_t>(i)]->finished()));
            mixEndpoint(d, *epA[static_cast<std::size_t>(i)]);
            mixEndpoint(d, *epB[static_cast<std::size_t>(i)]);
        }
    }

  private:
    void
    senderBody(sim::Process &self, int i)
    {
        UNetFe &un = topology.fe(i + 1).unet;
        Endpoint &ep = *epA[static_cast<std::size_t>(i)];
        if (!un.send(self, ep,
                     fragmentSend(chans[static_cast<std::size_t>(i)],
                                  {0, length(i)})))
            UNET_PANIC("demux: sender ", i, " refused");
        un.flush(self, ep);
    }

    sim::Simulation s;
    topo::Topology topology;
    topo::FeNode &b;
    std::vector<std::unique_ptr<sim::Process>> senders;
    std::vector<Endpoint *> epA, epB;
    std::vector<ChannelId> chans;
};

// --------------------------------------------------- seeded-credit-bug

/**
 * The planted order-dependence regression. Six permutable events share
 * one tick; exactly one of the 720 orderings trips a credit
 * double-return (an extra release() beyond the two held credits),
 * which the CreditWindow checker reports as an underflow. The trigger
 * order is chosen so that the salted tie-break misses it for every
 * salt in 0..100 (verified by the test suite) — only enumeration
 * finds it.
 */
class SeededBugInstance : public ConfigInstance
{
  public:
    static constexpr int events = 6;

    /** The one firing order (of 720) that trips the planted bug. */
    static const std::vector<int> &
    buggyOrder()
    {
        static const std::vector<int> order = {3, 1, 4, 0, 5, 2};
        return order;
    }

    SeededBugInstance()
    {
        window.setLimit(4);
        window.acquire();
        window.acquire();
        for (int i = 0; i < events; ++i)
            s.scheduleIn(sim::microseconds(10),
                         [this, i] { fired(i); });
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkEnd() override
    {
        if (order.size() != events)
            UNET_PANIC("seeded-credit-bug: only ", order.size(), " of ",
                       events, " events fired");
    }

    void
    mixState(obs::Digest &d) const override
    {
        d.mix(static_cast<std::uint64_t>(order.size()));
        for (int v : order)
            d.mix(static_cast<std::uint64_t>(v));
        d.mix(window.stateHash());
    }

  private:
    void
    fired(int i)
    {
        order.push_back(i);
        if (order.size() == events && order == buggyOrder()) {
            // The planted bug: this interleaving releases one credit
            // more than it holds. The third release underflows and
            // the checker panics.
            window.release();
            window.release();
            window.release();
        }
    }

    sim::Simulation s;
    CreditWindow window;
    std::vector<int> order;
};

// ---------------------------------------------------------- sendv-race

/**
 * Batched-submission race on one ATM adapter. Three fibers on host A,
 * each owning its own endpoint on the SAME PCA-200, post overlapping
 * sendv descriptor trains from one wakeup tick; the i960's weighted tx
 * polls (one poll event per endpoint, racing each other and the
 * doorbells) drain all trains onto one shared fiber toward host B.
 * Oracles: per-lane exactly-once, in-order delivery; ring audits each
 * step; a per-lane CreditWindow that must drain to zero (checked
 * globally by the explorer's invariant sweep at every choice point).
 */
class SendvRaceInstance : public ConfigInstance
{
  public:
    static constexpr int lanes = 3;
    static constexpr std::uint32_t batch = 2;

    static std::uint32_t
    length(int lane, std::uint32_t k)
    {
        // Single-cell (<= 40 bytes) so receives land descriptor-inline
        // and the rig needs no free-queue traffic; distinct per-lane,
        // per-position lengths make misrouting and reordering visible.
        return 16 + 8 * static_cast<std::uint32_t>(lane) + k;
    }

    SendvRaceInstance()
        : topology(s,
                   {atm::LinkSpec::oc3(), {{.name = "a"}, {.name = "b"}}}),
          a(topology.atm(0)), b(topology.atm(1))
    {
        EndpointConfig cfg;
        cfg.sendQueueDepth = 8;
        cfg.recvQueueDepth = 8;
        cfg.freeQueueDepth = 8;
        cfg.bufferAreaBytes = 16 * 1024;
        for (int i = 0; i < lanes; ++i) {
            senders.push_back(std::make_unique<sim::Process>(
                s, "send" + std::to_string(i),
                [this, i](sim::Process &p) { senderBody(p, i); }));
            epA.push_back(
                &a.unet.createEndpoint(senders.back().get(), cfg));
            // Receiver endpoints have no process: messages are small,
            // land descriptor-inline, and are polled at the end.
            epB.push_back(&b.unet.createEndpoint(nullptr, cfg));
            ChannelId ca = invalidChannel, cb = invalidChannel;
            topology.connect(0, *epA.back(), 1, *epB.back(), ca, cb,
                             static_cast<atm::Vci>(10 + i));
            chans.push_back(ca);
            credits[i].setLimit(cfg.sendQueueDepth);
        }
        // Both fibers wake at the same tick — that resume order is the
        // first choice point. Inside the body, lane i then delays
        // i*4 us (just over one sendv's PIO burst) so the single-CPU
        // host never sees two concurrent busy() computations; the i960
        // still needs ~20 us per train, so the second doorbellTrain
        // always lands mid-drain of the first and the firmware polls
        // race both trains' cells.
        for (auto &proc : senders)
            proc->start(sim::microseconds(10)); // same tick: the race
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        for (int i = 0; i < lanes; ++i) {
            epA[static_cast<std::size_t>(i)]->auditRings();
            epB[static_cast<std::size_t>(i)]->auditRings();
            if (epB[static_cast<std::size_t>(i)]->rxQueueDrops())
                UNET_PANIC("sendv-race: receive-queue drop in a "
                           "lossless rig");
        }
    }

    void
    checkEnd() override
    {
        for (auto &proc : senders)
            if (!proc->finished())
                UNET_PANIC("sendv-race: sender ", proc->name(),
                           " did not finish");
        for (int i = 0; i < lanes; ++i) {
            Endpoint &ep = *epB[static_cast<std::size_t>(i)];
            RecvDescriptor out[batch + 1];
            std::size_t got = b.unet.pollv(ep, out, batch + 1);
            if (got != batch)
                UNET_PANIC("sendv-race: lane ", i, " delivered ", got,
                           " of ", batch, " messages");
            for (std::uint32_t k = 0; k < batch; ++k) {
                if (!out[k].isSmall || out[k].length != length(i, k))
                    UNET_PANIC("sendv-race: lane ", i, " message ", k,
                               " has length ", out[k].length,
                               ", expected ", length(i, k),
                               " (misrouted or reordered)");
                if (out[k].inlineData[0] != k)
                    UNET_PANIC("sendv-race: lane ", i, " position ", k,
                               " carries sequence ",
                               unsigned(out[k].inlineData[0]));
                credits[i].release();
            }
            if (credits[i].held() != 0)
                UNET_PANIC("sendv-race: lane ", i, " ends with ",
                           credits[i].held(), " credits in flight");
        }
    }

    void
    mixState(obs::Digest &d) const override
    {
        for (int i = 0; i < lanes; ++i) {
            d.mix(static_cast<std::uint64_t>(
                senders[static_cast<std::size_t>(i)]->finished()));
            d.mix(credits[i].stateHash());
            mixEndpoint(d, *epA[static_cast<std::size_t>(i)]);
            mixEndpoint(d, *epB[static_cast<std::size_t>(i)]);
        }
        d.mix(a.nic.messagesSent());
        d.mix(b.nic.messagesDelivered());
    }

  private:
    void
    senderBody(sim::Process &self, int i)
    {
        if (i)
            self.delay(sim::microseconds(4) *
                       static_cast<sim::Tick>(i));
        SendDescriptor descs[batch];
        for (std::uint32_t k = 0; k < batch; ++k) {
            descs[k].channel = chans[static_cast<std::size_t>(i)];
            descs[k].isInline = true;
            descs[k].inlineLength =
                static_cast<std::uint8_t>(length(i, k));
            descs[k].inlineData[0] = static_cast<std::uint8_t>(k);
        }
        // Credits cover the posted window; the checkEnd poll returns
        // them, so a lost or duplicated message leaves a nonzero
        // balance.
        for (std::uint32_t k = 0; k < batch; ++k)
            credits[i].acquire();
        std::size_t accepted =
            a.unet.sendv(self, *epA[static_cast<std::size_t>(i)], descs,
                         batch);
        if (accepted != batch)
            UNET_PANIC("sendv-race: lane ", i, " sendv accepted ",
                       accepted, " of ", batch);
    }

    sim::Simulation s;
    topo::Topology topology;
    topo::AtmNode &a, &b;
    std::vector<std::unique_ptr<sim::Process>> senders;
    std::vector<Endpoint *> epA, epB;
    std::vector<ChannelId> chans;
    CreditWindow credits[lanes];
};

// -------------------------------------------------------- atm-cmdqueue

/**
 * The host-driver command queue racing the firmware's polling loop.
 * Two fibers on one ATM host, each owning its own endpoint on the SAME
 * PCA-200, wake at one tick and post scalar sends — each send followed
 * by an explicit flush, i.e. one doorbell command per descriptor on
 * the adapter's command queue. The i960 runs one weighted tx-poll
 * event per endpoint; those polls race each other, the doorbells, and
 * the second fiber's posts landing mid-drain. Oracles: per-lane
 * exactly-once, in-order delivery at host B; ring audits and a
 * no-drop invariant each step.
 */
class AtmCmdQueueInstance : public ConfigInstance
{
  public:
    static constexpr int lanes = 2;
    static constexpr std::uint32_t messages = 2;

    static std::uint32_t
    length(int lane, std::uint32_t k)
    {
        // Single-cell (<= 40 bytes), descriptor-inline on receive;
        // distinct per-lane, per-position lengths expose misrouting
        // and reordering.
        return 20 + 8 * static_cast<std::uint32_t>(lane) + k;
    }

    AtmCmdQueueInstance()
        : topology(s,
                   {atm::LinkSpec::oc3(), {{.name = "a"}, {.name = "b"}}}),
          a(topology.atm(0)), b(topology.atm(1))
    {
        EndpointConfig cfg;
        cfg.sendQueueDepth = 8;
        cfg.recvQueueDepth = 8;
        cfg.freeQueueDepth = 8;
        cfg.bufferAreaBytes = 16 * 1024;
        for (int i = 0; i < lanes; ++i) {
            senders.push_back(std::make_unique<sim::Process>(
                s, "cmd" + std::to_string(i),
                [this, i](sim::Process &p) { senderBody(p, i); }));
            epA.push_back(
                &a.unet.createEndpoint(senders.back().get(), cfg));
            // Receiver endpoints have no process: single-cell messages
            // land descriptor-inline and are polled at the end.
            epB.push_back(&b.unet.createEndpoint(nullptr, cfg));
            ChannelId ca = invalidChannel, cb = invalidChannel;
            topology.connect(0, *epA.back(), 1, *epB.back(), ca, cb,
                             static_cast<atm::Vci>(20 + i));
            chans.push_back(ca);
        }
        // Same tick: the wakeup order is the first choice point. Lane 1
        // then delays past lane 0's PIO burst (one CPU), but well
        // inside the i960's multi-microsecond drain of lane 0's
        // commands, so its doorbells land mid-poll.
        for (auto &proc : senders)
            proc->start(sim::microseconds(10));
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        for (int i = 0; i < lanes; ++i) {
            epA[static_cast<std::size_t>(i)]->auditRings();
            epB[static_cast<std::size_t>(i)]->auditRings();
            if (epB[static_cast<std::size_t>(i)]->rxQueueDrops())
                UNET_PANIC("atm-cmdqueue: receive-queue drop in a "
                           "lossless rig");
        }
    }

    void
    checkEnd() override
    {
        for (auto &proc : senders)
            if (!proc->finished())
                UNET_PANIC("atm-cmdqueue: sender ", proc->name(),
                           " did not finish");
        for (int i = 0; i < lanes; ++i) {
            Endpoint &ep = *epB[static_cast<std::size_t>(i)];
            RecvDescriptor out[messages + 1];
            std::size_t got = b.unet.pollv(ep, out, messages + 1);
            if (got != messages)
                UNET_PANIC("atm-cmdqueue: lane ", i, " delivered ",
                           got, " of ", messages, " messages");
            for (std::uint32_t k = 0; k < messages; ++k) {
                if (!out[k].isSmall || out[k].length != length(i, k))
                    UNET_PANIC("atm-cmdqueue: lane ", i, " message ",
                               k, " has length ", out[k].length,
                               ", expected ", length(i, k),
                               " (misrouted or reordered)");
                if (out[k].inlineData[0] != k)
                    UNET_PANIC("atm-cmdqueue: lane ", i, " position ",
                               k, " carries sequence ",
                               unsigned(out[k].inlineData[0]));
            }
        }
    }

    void
    mixState(obs::Digest &d) const override
    {
        for (int i = 0; i < lanes; ++i) {
            d.mix(static_cast<std::uint64_t>(
                senders[static_cast<std::size_t>(i)]->finished()));
            mixEndpoint(d, *epA[static_cast<std::size_t>(i)]);
            mixEndpoint(d, *epB[static_cast<std::size_t>(i)]);
        }
        d.mix(a.nic.messagesSent());
        d.mix(b.nic.messagesDelivered());
    }

  private:
    void
    senderBody(sim::Process &self, int i)
    {
        // Past lane 0's whole PIO burst (~7.5 us per posted command on
        // one CPU), inside the i960's ~10 us-per-message drain of lane
        // 0's commands: the doorbells land mid-poll.
        if (i)
            self.delay(sim::microseconds(16) *
                       static_cast<sim::Tick>(i));
        for (std::uint32_t k = 0; k < messages; ++k) {
            SendDescriptor sd;
            sd.channel = chans[static_cast<std::size_t>(i)];
            sd.isInline = true;
            sd.inlineLength =
                static_cast<std::uint8_t>(length(i, k));
            sd.inlineData[0] = static_cast<std::uint8_t>(k);
            if (!a.unet.send(self, *epA[static_cast<std::size_t>(i)], sd))
                UNET_PANIC("atm-cmdqueue: lane ", i, " send ", k,
                           " refused");
            // One doorbell command per descriptor: the command-queue
            // traffic the firmware polls race against.
            a.unet.flush(self, *epA[static_cast<std::size_t>(i)]);
        }
    }

    sim::Simulation s;
    topo::Topology topology;
    topo::AtmNode &a, &b;
    std::vector<std::unique_ptr<sim::Process>> senders;
    std::vector<Endpoint *> epA, epB;
    std::vector<ChannelId> chans;
};

// -------------------------------------------------------------- upcall

/**
 * The signal-handler receive model under racing arrivals. Two sender
 * nodes wake at one tick and each posts two small messages through a
 * switch into ONE receiving endpoint that uses setUpcall() — every
 * activation pays the signal-delivery latency once, then consumes all
 * pending messages. The explorer permutes which sender's frames reach
 * the demux first and how arrivals batch into activations; whatever
 * the interleaving, each lane's messages must arrive exactly once and
 * in per-lane order.
 */
class UpcallInstance : public ConfigInstance
{
  public:
    static constexpr int lanes = 2;
    static constexpr std::uint32_t messages = 2;

    static std::uint32_t
    length(int lane, std::uint32_t k)
    {
        return 40 + 8 * static_cast<std::uint32_t>(lane) + k;
    }

    /** Receiver b is node 0; sender i is node i + 1. */
    UpcallInstance()
        : topology(s,
                   topo::Spec::numbered(eth::SwitchSpec{}, lanes, {lanes})),
          b(topology.fe(0))
    {
        EndpointConfig cfg;
        cfg.sendQueueDepth = 8;
        cfg.recvQueueDepth = 8;
        cfg.freeQueueDepth = 8;
        cfg.bufferAreaBytes = 16 * 1024;
        // The receiving endpoint has no process: the upcall IS the
        // receive discipline.
        epB = &b.unet.createEndpoint(nullptr, cfg);
        epB->setUpcall(
            [this](const RecvDescriptor &rd) {
                ++handlerRuns;
                seen.push_back(rd.length);
            },
            sim::microseconds(5));
        for (int i = 0; i < lanes; ++i) {
            senders.push_back(std::make_unique<sim::Process>(
                s, "send" + std::to_string(i),
                [this, i](sim::Process &p) { senderBody(p, i); }));
            UNet &un = topology.unet(i + 1);
            epA.push_back(&un.createEndpoint(senders.back().get(), cfg));
            ChannelId ca = invalidChannel, cb = invalidChannel;
            topology.connect(i + 1, *epA.back(), 0, *epB, ca, cb);
            chans.push_back(ca);
        }
        for (auto &proc : senders)
            proc->start(sim::microseconds(10)); // same tick: the race
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        epB->auditRings();
        for (auto *ep : epA)
            ep->auditRings();
        if (epB->rxQueueDrops())
            UNET_PANIC("upcall: receive-queue drop in a lossless rig");
    }

    void
    checkEnd() override
    {
        for (auto &proc : senders)
            if (!proc->finished())
                UNET_PANIC("upcall: sender ", proc->name(),
                           " did not finish");
        if (seen.size() != lanes * messages)
            UNET_PANIC("upcall: exactly-once violated: handler saw ",
                       seen.size(), " of ", lanes * messages,
                       " messages");
        // Per-lane in-order: decode (lane, k) from the length and
        // require each lane's sequence to be 0,1,... in seen order.
        std::uint32_t nextInLane[lanes] = {};
        for (std::uint32_t len : seen) {
            std::uint32_t lane = (len - 40) / 8;
            std::uint32_t k = (len - 40) % 8;
            if (lane >= lanes || k >= messages)
                UNET_PANIC("upcall: impossible length ", len);
            if (k != nextInLane[lane])
                UNET_PANIC("upcall: lane ", lane,
                           " out of order: got sequence ", k,
                           ", expected ", nextInLane[lane]);
            ++nextInLane[lane];
        }
    }

    void
    mixState(obs::Digest &d) const override
    {
        d.mix(static_cast<std::uint64_t>(seen.size()));
        for (std::uint32_t v : seen)
            d.mix(static_cast<std::uint64_t>(v));
        d.mix(handlerRuns);
        for (auto &proc : senders)
            d.mix(static_cast<std::uint64_t>(proc->finished()));
        for (auto *ep : epA)
            mixEndpoint(d, *ep);
        mixEndpoint(d, *epB);
    }

  private:
    void
    senderBody(sim::Process &self, int i)
    {
        UNetFe &un = topology.fe(i + 1).unet;
        Endpoint &ep = *epA[static_cast<std::size_t>(i)];
        for (std::uint32_t k = 0; k < messages; ++k) {
            // Distinct gather regions: the first frame's buffer stays
            // agent-owned until it leaves the NIC.
            if (!un.send(self, ep,
                         fragmentSend(chans[static_cast<std::size_t>(i)],
                                      {k * 4096, length(i, k)})))
                UNET_PANIC("upcall: sender ", i, " send ", k,
                           " refused");
            un.flush(self, ep);
        }
    }

    sim::Simulation s;
    topo::Topology topology;
    topo::FeNode &b;
    std::vector<std::unique_ptr<sim::Process>> senders;
    std::vector<Endpoint *> epA;
    Endpoint *epB = nullptr;
    std::vector<ChannelId> chans;
    std::vector<std::uint32_t> seen;
    std::uint64_t handlerRuns = 0;
};

// ------------------------------------------------------------ ep-evict

/**
 * Endpoint-residency churn under concurrent traffic. The receiving
 * node's hot set holds 2 of its 3 endpoints, so endpoint 0 starts
 * paged out (creation order warms 0, 1, 2 and the third warm evicts
 * the LRU). From one tick: three remote senders fire into endpoints
 * 0/1/2 — the receive demux faults endpoint 0 back in and evicts a
 * neighbour, racing the other arrivals — while a local fiber sends
 * *from* endpoint 0, whose trap-side drain races the same page-in and
 * holds a pin across the device TX ring. Whatever the interleaving:
 * exactly-once per-lane delivery, the hot set never exceeds capacity,
 * a pinned endpoint is never evicted (the cache panics if the LRU
 * scan is wrong), at least one fault is charged (endpoint 0 cannot
 * start resident), and every pin is released by quiescence.
 */
class EpEvictInstance : public ConfigInstance
{
  public:
    static constexpr int lanes = 3;
    static constexpr std::size_t hotCapacity = 2;

    static std::uint32_t
    length(int lane)
    {
        return 40 + static_cast<std::uint32_t>(lane);
    }

    static constexpr std::uint32_t beeLength = 52;

    EpEvictInstance()
        : topology(s, spec()), b(topology.fe(0)), c(topology.fe(1)),
          bee(s, "bee", [this](sim::Process &p) { beeBody(p); })
    {
        EndpointConfig cfg;
        cfg.sendQueueDepth = 8;
        cfg.recvQueueDepth = 8;
        cfg.freeQueueDepth = 8;
        cfg.bufferAreaBytes = 16 * 1024;
        // Endpoint 0 first: the two later warms evict it, so it is
        // the guaranteed-cold endpoint both race arms contend over.
        for (int i = 0; i < lanes; ++i)
            epB.push_back(&b.unet.createEndpoint(
                i == 0 ? &bee : nullptr, cfg));
        epC = &c.unet.createEndpoint(nullptr, cfg);
        topology.connect(0, *epB[0], 1, *epC, chanBee, chanAtC);
        for (int i = 0; i < lanes; ++i) {
            senders.push_back(std::make_unique<sim::Process>(
                s, "send" + std::to_string(i),
                [this, i](sim::Process &p) { senderBody(p, i); }));
            UNet &un = topology.unet(i + 2);
            epA.push_back(&un.createEndpoint(senders.back().get(), cfg));
            ChannelId ca = invalidChannel, cb = invalidChannel;
            topology.connect(i + 2, *epA.back(), 0,
                             *epB[static_cast<std::size_t>(i)], ca, cb);
            chans.push_back(ca);
        }
        for (auto &proc : senders)
            proc->start(sim::microseconds(10)); // same tick: the race
        bee.start(sim::microseconds(10));
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        for (int i = 0; i < lanes; ++i) {
            epA[static_cast<std::size_t>(i)]->auditRings();
            epB[static_cast<std::size_t>(i)]->auditRings();
            if (epB[static_cast<std::size_t>(i)]->rxQueueDrops())
                UNET_PANIC("ep-evict: receive-queue drop in a "
                           "lossless rig");
        }
        epC->auditRings();
        const vep::ResidencyCache &cache = b.unet.residency();
        if (cache.residentCount() > hotCapacity)
            UNET_PANIC("ep-evict: ", cache.residentCount(),
                       " endpoints resident in a ", hotCapacity,
                       "-slot hot set");
    }

    void
    checkEnd() override
    {
        for (auto &proc : senders)
            if (!proc->finished())
                UNET_PANIC("ep-evict: sender ", proc->name(),
                           " did not finish");
        if (!bee.finished())
            UNET_PANIC("ep-evict: bee did not finish");
        for (int i = 0; i < lanes; ++i) {
            Endpoint &ep = *epB[static_cast<std::size_t>(i)];
            RecvDescriptor rd;
            if (!ep.poll(rd))
                UNET_PANIC("ep-evict: endpoint ", i,
                           " received nothing");
            if (!rd.isSmall || rd.length != length(i))
                UNET_PANIC("ep-evict: endpoint ", i, " got a ",
                           rd.length, "-byte message, expected ",
                           length(i), " (misrouted demux)");
            if (ep.poll(rd))
                UNET_PANIC("ep-evict: endpoint ", i,
                           " received more than one message");
        }
        RecvDescriptor rd;
        if (!epC->poll(rd) || rd.length != beeLength)
            UNET_PANIC("ep-evict: bee's message never reached node c");
        if (epC->poll(rd))
            UNET_PANIC("ep-evict: node c received a duplicate");
        const vep::ResidencyCache &cache = b.unet.residency();
        if (cache.faults() == 0)
            UNET_PANIC("ep-evict: no residency fault charged, but "
                       "endpoint 0 started paged out");
        if (cache.pinnedCount() != 0)
            UNET_PANIC("ep-evict: ", cache.pinnedCount(),
                       " pins still held at quiescence");
    }

    void
    mixState(obs::Digest &d) const override
    {
        for (int i = 0; i < lanes; ++i) {
            d.mix(static_cast<std::uint64_t>(
                senders[static_cast<std::size_t>(i)]->finished()));
            mixEndpoint(d, *epA[static_cast<std::size_t>(i)]);
            mixEndpoint(d, *epB[static_cast<std::size_t>(i)]);
        }
        d.mix(static_cast<std::uint64_t>(bee.finished()));
        mixEndpoint(d, *epC);
        const vep::ResidencyCache &cache = b.unet.residency();
        d.mix(cache.stateHash());
        d.mix(cache.faults());
        d.mix(cache.evictions());
        d.mix(cache.hits());
        d.mix(static_cast<std::uint64_t>(cache.residentCount()));
        d.mix(static_cast<std::uint64_t>(cache.pinnedCount()));
    }

  private:
    /** Receiver b (node 0, a hotCapacity-slot hot set), node c (node
     *  1), then sender i as node i + 2. */
    static topo::Spec
    spec()
    {
        topo::Spec sp = topo::Spec::numbered(eth::SwitchSpec{}, lanes,
                                             {lanes, lanes + 1});
        sp.nodes[0].fe.vep.hotCapacity = hotCapacity;
        return sp;
    }

    void
    beeBody(sim::Process &self)
    {
        if (!b.unet.send(self, *epB[0],
                         fragmentSend(chanBee, {0, beeLength})))
            UNET_PANIC("ep-evict: bee send refused");
        b.unet.flush(self, *epB[0]);
    }

    void
    senderBody(sim::Process &self, int i)
    {
        UNetFe &un = topology.fe(i + 2).unet;
        Endpoint &ep = *epA[static_cast<std::size_t>(i)];
        if (!un.send(self, ep,
                     fragmentSend(chans[static_cast<std::size_t>(i)],
                                  {0, length(i)})))
            UNET_PANIC("ep-evict: sender ", i, " refused");
        un.flush(self, ep);
    }

    sim::Simulation s;
    topo::Topology topology;
    topo::FeNode &b, &c;
    sim::Process bee;
    std::vector<std::unique_ptr<sim::Process>> senders;
    std::vector<Endpoint *> epA, epB;
    Endpoint *epC = nullptr;
    std::vector<ChannelId> chans;
    ChannelId chanBee = invalidChannel, chanAtC = invalidChannel;
};

// ------------------------------------------------------------ registry

template <typename Instance>
class SimpleConfig : public Config
{
  public:
    SimpleConfig(const char *name, const char *description)
        : _name(name), _description(description)
    {}

    const char *name() const override { return _name; }
    const char *description() const override { return _description; }

    std::unique_ptr<ConfigInstance>
    make() const override
    {
        return std::make_unique<Instance>();
    }

  private:
    const char *_name;
    const char *_description;
};

const SimpleConfig<Fig5Instance> fig5Config{
    "fig5",
    "two-node FE ping-pong (Figure 5 rig), two rounds, in-order + "
    "exactly-once oracles"};

const SimpleConfig<RetransmitInstance> retransmitConfig{
    "retransmit",
    "burst loss inside an AM window; Go-Back-N recovery to "
    "exactly-once delivery with credits conserved"};

const SimpleConfig<DemuxInstance> demuxConfig{
    "demux",
    "three same-tick senders into three endpoints of one node; the "
    "receive-demux race"};

const SimpleConfig<SeededBugInstance> seededConfig{
    "seeded-credit-bug",
    "planted credit double-return on one of 720 same-tick orderings; "
    "the regression salts miss"};

const SimpleConfig<SendvRaceInstance> sendvRaceConfig{
    "sendv-race",
    "three overlapping sendv descriptor trains on one ATM adapter "
    "racing the firmware tx polls; exactly-once + credit oracles"};

const SimpleConfig<AtmCmdQueueInstance> atmCmdQueueConfig{
    "atm-cmdqueue",
    "scalar doorbell commands from two fibers on one ATM adapter "
    "racing the i960 command-queue polls; exactly-once + in-order "
    "oracles"};

const SimpleConfig<UpcallInstance> upcallConfig{
    "upcall",
    "two senders race into one endpoint in the upcall receive model; "
    "per-lane exactly-once + in-order oracles over activation "
    "batching"};

const SimpleConfig<EpEvictInstance> epEvictConfig{
    "ep-evict",
    "receive demux races LRU eviction of a 2-slot endpoint hot set "
    "while a local send races its own page-in; exactly-once + "
    "capacity + pin-safety oracles"};

} // namespace

const std::vector<const Config *> &
configs()
{
    static const std::vector<const Config *> all = {
        &fig5Config, &retransmitConfig, &demuxConfig, &seededConfig,
        &sendvRaceConfig, &atmCmdQueueConfig, &upcallConfig,
        &epEvictConfig};
    return all;
}

const Config *
findConfig(std::string_view name)
{
    for (const Config *config : configs())
        if (name == config->name())
            return config;
    return nullptr;
}

} // namespace unet::check::explore
