/**
 * @file
 * RPC serving-plane semantics: exactly-once completion per request id,
 * duplicate-response suppression, retransmit/histogram reconciliation
 * under seeded burst loss, and custody-span validation of the reported
 * end-to-end latency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "serve/rig.hh"
#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::test;

namespace {

serve::RigSpec
feSpec(int clients)
{
    serve::RigSpec spec;
    spec.nic = serve::NicKind::Fe;
    spec.clients = clients;
    spec.seed = 1;
    return spec;
}

} // namespace

TEST(RpcServe, OpenLoopEchoCompletesExactlyOnce)
{
    serve::ServeRig rig(feSpec(4));
    serve::Workload w;
    w.requestsPerClient = 10;
    w.meanGap = sim::microseconds(300);
    serve::RunResult r = rig.run(w);

    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.issued, 40u);
    EXPECT_EQ(r.completed, 40u);
    EXPECT_EQ(r.giveUps, 0u);
    EXPECT_EQ(r.dupResponses, 0u);
    EXPECT_EQ(r.served, 40u);
    EXPECT_EQ(r.serverRxQueueDrops, 0u);

    // Every completion landed in the latency histogram exactly once.
    EXPECT_EQ(rig.stats().latencyNs().count(), 40u);
    EXPECT_EQ(rig.stats().methodLatencyNs(0).count(), 40u);
    EXPECT_GT(r.p50Us, 0.0);
    EXPECT_GE(r.p999Us, r.p99Us);
    EXPECT_GE(r.p99Us, r.p50Us);
}

TEST(RpcServe, ClosedLoopWindowCompletes)
{
    serve::RigSpec spec = feSpec(2);
    serve::ServeRig rig(spec);
    serve::Workload w;
    w.closedLoop = true;
    w.requestsPerClient = 12;
    w.window = 2;
    w.meanThink = sim::microseconds(50);
    serve::RunResult r = rig.run(w);

    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.issued, 24u);
    EXPECT_EQ(r.completed, 24u);
    EXPECT_EQ(r.giveUps, 0u);
    EXPECT_EQ(rig.stats().latencyNs().count(), 24u);
}

/**
 * A request at a method id outside the dispatch table is counted and
 * dropped — never answered — so the client's only exit is the
 * give-up path at its completion timeout.
 */
TEST(RpcServe, UnknownMethodNeverCompletes)
{
    sim::Simulation s(1);
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    obs::Registry reg;
    serve::ServeStats stats(reg, 1, sim::microseconds(400));

    std::unique_ptr<serve::RpcClient> client;
    std::unique_ptr<serve::RpcServer> server;

    sim::Process serverProc(s, "server", [&](sim::Process &p) {
        // Exit once the hostile request has been counted; serve()
        // drains the (empty) reply window on the way out.
        EXPECT_TRUE(server->serve(
            p, [&] { return server->unknownMethods() >= 1; },
            sim::milliseconds(100)));
        server->am().pollUntil(p, [] { return false; },
                               sim::milliseconds(30));
    });
    sim::Process clientProc(s, "client", [&](sim::Process &p) {
        ASSERT_TRUE(client->issue(p, 99, s.now()));
        EXPECT_FALSE(client->awaitAll(p, sim::milliseconds(20)));
        client->am().drain(p, sim::seconds(1));
        client->am().pollUntil(p, [] { return false; },
                               sim::milliseconds(5));
    });

    Endpoint &epServer = b.unet.createEndpoint(&serverProc, {});
    Endpoint &epClient = a.unet.createEndpoint(&clientProc, {});
    ChannelId chanC = invalidChannel, chanS = invalidChannel;
    UNetFe::connect(a.unet, epClient, b.unet, epServer, chanC, chanS);

    server = std::make_unique<serve::RpcServer>(b.unet, epServer);
    server->addMethod({});
    server->openChannel(chanS);
    client = std::make_unique<serve::RpcClient>(a.unet, epClient,
                                                chanC, 0, stats);

    serverProc.start();
    clientProc.start(sim::microseconds(5));
    s.run();

    ASSERT_TRUE(clientProc.finished());
    ASSERT_TRUE(serverProc.finished());
    EXPECT_EQ(server->unknownMethods(), 1u);
    EXPECT_EQ(server->served(), 0u);
    EXPECT_EQ(stats.issued(), 1u);
    EXPECT_EQ(stats.completed(), 0u);
    EXPECT_EQ(stats.giveUps(), 1u);
    EXPECT_EQ(stats.latencyNs().count(), 0u);
}

/**
 * A hand-rolled double-replying server: every request gets two
 * responses with the same request id. The client must complete the
 * request once and count the second response as a suppressed
 * duplicate.
 */
TEST(RpcServe, DuplicateResponsesAreSuppressed)
{
    constexpr int requests = 3;

    sim::Simulation s(1);
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    obs::Registry reg;
    serve::ServeStats stats(reg, 1, sim::microseconds(400));

    Endpoint *epClient = nullptr, *epServer = nullptr;
    ChannelId chanC = invalidChannel, chanS = invalidChannel;
    std::unique_ptr<serve::RpcClient> client;
    std::unique_ptr<am::ActiveMessages> serverAm;
    int served = 0;

    sim::Process serverProc(s, "server", [&](sim::Process &p) {
        serverAm->pollUntil(p, [&] { return served >= requests; },
                            sim::seconds(1));
        serverAm->drain(p, sim::seconds(1));
        serverAm->pollUntil(p, [] { return false; },
                            sim::milliseconds(2));
    });
    sim::Process clientProc(s, "client", [&](sim::Process &p) {
        for (int i = 0; i < requests; ++i) {
            ASSERT_TRUE(client->issue(p, 0, s.now()));
            ASSERT_TRUE(client->awaitAll(p, sim::milliseconds(50)));
        }
        client->am().drain(p, sim::seconds(1));
        client->am().pollUntil(p, [] { return false; },
                               sim::milliseconds(5));
    });

    epServer = &b.unet.createEndpoint(&serverProc, {});
    epClient = &a.unet.createEndpoint(&clientProc, {});
    UNetFe::connect(a.unet, *epClient, b.unet, *epServer, chanC,
                    chanS);

    serverAm = std::make_unique<am::ActiveMessages>(b.unet, *epServer);
    serverAm->openChannel(chanS);
    serverAm->setHandler(
        serve::requestHandler,
        [&](sim::Process &p, am::Token token, const am::Args &args,
            std::span<const std::uint8_t>) {
            ++served;
            // The at-least-once failure mode: the same response id
            // goes out twice.
            serverAm->reply(p, token, serve::responseHandler,
                            {args[0], args[1], args[2], 0}, {});
            serverAm->reply(p, token, serve::responseHandler,
                            {args[0], args[1], args[2], 0}, {});
        });
    client = std::make_unique<serve::RpcClient>(a.unet, *epClient,
                                                chanC, 0, stats);

    serverProc.start();
    clientProc.start(sim::microseconds(5));
    s.run();

    ASSERT_TRUE(clientProc.finished());
    ASSERT_TRUE(serverProc.finished());
    EXPECT_EQ(stats.issued(), static_cast<std::uint64_t>(requests));
    EXPECT_EQ(stats.completed(), static_cast<std::uint64_t>(requests));
    EXPECT_EQ(stats.dupResponses(),
              static_cast<std::uint64_t>(requests));
    EXPECT_EQ(stats.latencyNs().count(),
              static_cast<std::uint64_t>(requests));
}

/**
 * Seeded Gilbert-Elliott burst loss at the switch: the AM layer must
 * retransmit through the bursts, and however many wire-level replays
 * that takes, the serving plane's exactly-once accounting has to
 * reconcile — per-method completions equal the aggregate histogram,
 * nothing is double-counted, and the losses really happened.
 */
TEST(RpcServe, ExactlyOnceUnderBurstLoss)
{
    serve::RigSpec spec = feSpec(8);
    spec.faults = "seed=11 eth.switch.ge=0.02/0.2/0.8";
    serve::ServeRig rig(spec);

    serve::Workload w;
    w.requestsPerClient = 25;
    w.meanGap = sim::microseconds(250);
    serve::RunResult r = rig.run(w);

    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.completed + r.giveUps, r.issued);
    EXPECT_EQ(r.issued, 200u);

    // The loss plan was exercised: the reliability layer retransmitted,
    // yet no retransmit leaked into the completion accounting.
    EXPECT_GT(r.clientRetransmits + r.serverRetransmits, 0u);
    EXPECT_EQ(rig.stats().latencyNs().count(), r.completed);
    EXPECT_EQ(rig.stats().methodLatencyNs(0).count(), r.completed);

    // am.retransmits reconciliation through the metrics registry: the
    // server handled every client wire-level delivery exactly once per
    // surviving request (duplicates are dropped below the AM handler),
    // so served == completions + responses the clients gave up on.
    EXPECT_GE(r.served, r.completed);
    EXPECT_LE(r.served, r.issued);

    // Every duplicate the clients suppressed is a real wire replay:
    // it cannot exceed the retransmits that could have caused it.
    EXPECT_LE(r.dupResponses, r.serverRetransmits);
}


/**
 * The reported end-to-end latency (issue epoch to response consume)
 * must be validated by the custody trace: each message's custody
 * spans tile contiguously, and the request-post -> response-consume
 * interval they delimit fits inside the measured latency (the epoch
 * precedes the post by at most the generator's poll quantum).
 */
TEST(RpcServe, CustodySpansTileReportedLatency)
{
    serve::RigSpec spec = feSpec(1);
    serve::ServeRig rig(spec);
    rig.simulation().enableTrace();

    serve::Workload w;
    w.requestsPerClient = 1;
    w.meanGap = sim::microseconds(200);
    serve::RunResult r = rig.run(w);
    ASSERT_TRUE(r.finished);
    ASSERT_EQ(r.completed, 1u);

    auto *tr = rig.simulation().trace();
    ASSERT_NE(tr, nullptr);

    // Group custody spans per message id.
    std::map<std::uint64_t, std::vector<obs::Span>> chains;
    tr->forEach([&](const obs::Span &sp) {
        if (obs::isCustody(sp.kind) && sp.id != 0)
            chains[sp.id].push_back(sp);
    });
    ASSERT_GE(chains.size(), 2u); // request + response (+ late ACKs)

    // Tiling within every chain: contiguous custody, no gap, no
    // overlap, start-to-end sum equals the chain extent.
    for (auto &[id, chain] : chains) {
        std::sort(chain.begin(), chain.end(),
                  [](const obs::Span &x, const obs::Span &y) {
                      return x.start < y.start;
                  });
        sim::Tick total = 0;
        for (std::size_t i = 0; i < chain.size(); ++i) {
            if (i > 0) {
                EXPECT_EQ(chain[i].start, chain[i - 1].end)
                    << "custody gap in message " << id << " hop " << i;
            }
            total += chain[i].end - chain[i].start;
        }
        EXPECT_EQ(total, chain.back().end - chain.front().start);
    }

    // The request chain starts on the client; the response chain's
    // custody ends when the client consumes it from the endpoint
    // queue, after which only the AM dispatch cost separates it from
    // the completion tick ServeStats recorded.
    sim::Tick firstPost = sim::maxTick, lastConsume = 0;
    for (auto &[id, chain] : chains) {
        firstPost = std::min(firstPost, chain.front().start);
        // ACK chains flushed after the completion are excluded by
        // taking the consume that matches the recorded completion.
        if (chain.back().end <= rig.stats().lastCompletion())
            lastConsume = std::max(lastConsume, chain.back().end);
    }
    ASSERT_LT(firstPost, lastConsume);
    EXPECT_LE(lastConsume, rig.stats().lastCompletion());
    EXPECT_LE(rig.stats().lastCompletion() - lastConsume,
              sim::microseconds(1));

    // The histogram's single sample is the epoch->consume interval;
    // custody covers post->consume, so it can undercut the reported
    // latency only by the sub-poll-quantum epoch-to-post offset.
    sim::Tick span = lastConsume - firstPost;
    auto latencyTicks =
        static_cast<sim::Tick>(rig.stats().latencyNs().sum()) * 1000;
    EXPECT_LE(span, latencyTicks + sim::microseconds(1));
    EXPECT_GE(span, latencyTicks - sim::microseconds(2));
}


/**
 * Fan-in wider than the old fixed-endpoint ceiling: 72 clients is more
 * channels than one paper-era NIC table (64) could hold. The OS
 * service's id-keyed quota table and the rig's boot-time channel
 * ceiling admit the whole fleet, and the virtualized endpoint layer
 * keeps the traffic exactly-once.
 */
TEST(RpcServe, FanInBeyondSixtyFourClients)
{
    serve::RigSpec spec = feSpec(72);
    serve::ServeRig rig(spec);
    serve::Workload w;
    w.closedLoop = true;
    w.requestsPerClient = 2;
    w.window = 1;
    w.meanThink = sim::microseconds(100);
    serve::RunResult r = rig.run(w);

    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.issued, 144u);
    EXPECT_EQ(r.completed, 144u);
    EXPECT_EQ(r.giveUps, 0u);
    EXPECT_EQ(r.dupResponses, 0u);
    EXPECT_EQ(rig.stats().latencyNs().count(), 144u);
}
