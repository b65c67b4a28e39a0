/**
 * @file
 * End-to-end custody tiling: every traced message through the full
 * U-Net/FE or U-Net/ATM stack must produce a hop chain whose spans
 * partition the send-post -> consume interval exactly, whether it was
 * posted by send() or in a sendv() batch.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::test;
using namespace unet::sim::literals;

namespace {

/** Sender node 0 and receiver node 1 on one Fast Ethernet link. */
struct FeRig
{
    explicit FeRig(sim::Simulation &s)
        : link(s), na(s, link, 0), nb(s, link, 1)
    {}

    void
    connect(Endpoint &ea, Endpoint &eb, ChannelId &ca, ChannelId &cb)
    {
        UNetFe::connect(na.unet, ea, nb.unet, eb, ca, cb);
    }

    eth::FullDuplexLink link;
    FeNode na, nb;
    UNet &a = na.unet, &b = nb.unet;
};

/** Sender node 0 and receiver node 1 around one ATM switch. */
struct AtmRig
{
    explicit AtmRig(sim::Simulation &s) : star(s, 2) {}

    void
    connect(Endpoint &ea, Endpoint &eb, ChannelId &ca, ChannelId &cb)
    {
        UNetAtm::connect(star[0].unet, ea, star.ports[0], star[1].unet, eb,
                         star.ports[1], star.signalling, ca, cb);
    }

    AtmStar star;
    UNet &a = star[0].unet, &b = star[1].unet;
};

/** One custody span, with its track name resolved. */
struct Hop
{
    obs::SpanKind kind;
    std::string track;
    sim::Tick start, end;
};

/** What a run observed, per message in receive order. */
struct TracedRun
{
    bool traced = false;
    sim::Tick posted = -1;
    std::uint64_t prestampedId = 0;
    std::vector<std::uint8_t> payloadSeeds;
    std::vector<std::uint64_t> ids;
    std::vector<sim::Tick> consumed;
    std::map<std::uint64_t, std::vector<Hop>> chains;
};

/**
 * Post @p n 16-byte inline messages from node 0 to node 1 in one call
 * (send() when n == 1, sendv() otherwise) and consume them all.
 * Message k carries pattern seed k. When @p prestamp is a valid index,
 * that descriptor is stamped before the call.
 */
template <class Rig>
TracedRun
runMessages(std::size_t n, bool trace = true,
            std::size_t prestamp = SIZE_MAX)
{
    sim::Simulation s;
    if (trace)
        s.enableTrace();
    Rig rig(s);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    TracedRun run;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        for (std::size_t k = 0; k < n; ++k) {
            RecvDescriptor got;
            if (!epB->wait(self, got, 10_ms))
                return;
            run.payloadSeeds.push_back(got.inlineData[0]);
            run.ids.push_back(got.trace.id);
            run.consumed.push_back(s.now());
        }
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        std::vector<SendDescriptor> batch;
        for (std::size_t k = 0; k < n; ++k)
            batch.push_back(inlineSend(
                chanA, pattern(16, static_cast<std::uint8_t>(k))));
        if (prestamp < n) {
            s.trace()->begin(batch[prestamp].trace, s.now());
            run.prestampedId = batch[prestamp].trace.id;
        }
        run.posted = s.now();
        if (n == 1)
            EXPECT_TRUE(rig.a.send(self, *epA, batch[0]));
        else
            EXPECT_EQ(rig.a.sendv(self, *epA, batch.data(), n), n);
    });

    epA = &rig.a.createEndpoint(&tx, {});
    epB = &rig.b.createEndpoint(&rx, {});
    rig.connect(*epA, *epB, chanA, chanB);

    rx.start();
    tx.start(1_us);
    s.run();

    if (auto *tr = s.trace()) {
        run.traced = true;
        tr->forEach([&](const obs::Span &sp) {
            if (obs::isCustody(sp.kind))
                run.chains[sp.id].push_back(
                    {sp.kind, tr->nameOf(sp.track), sp.start, sp.end});
        });
    }
    return run;
}

/** Expect @p chain to run contiguously from @p from to @p to. */
void
expectTiles(const std::vector<Hop> &chain, sim::Tick from, sim::Tick to)
{
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.front().start, from);
    EXPECT_EQ(chain.back().end, to);
    EXPECT_EQ(chain.back().kind, obs::SpanKind::RxQueue);
    sim::Tick total = 0;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        if (i > 0) {
            EXPECT_EQ(chain[i].start, chain[i - 1].end)
                << "gap/overlap before hop " << i;
        }
        total += chain[i].end - chain[i].start;
    }
    EXPECT_EQ(total, to - from);
}

/**
 * One traced send(): a single non-zero id whose custody hops are
 * @p expected (kind, track; an empty track is not checked) and tile
 * post to consume.
 */
template <class Rig>
void
expectHopChain(
    const std::vector<std::pair<obs::SpanKind, std::string>> &expected)
{
    TracedRun run = runMessages<Rig>(1);
    ASSERT_EQ(run.ids.size(), 1u);
    ASSERT_EQ(run.chains.size(), 1u);
    EXPECT_NE(run.ids[0], 0u);
    const auto &chain = run.chains[run.ids[0]];
    ASSERT_EQ(chain.size(), expected.size());
    for (std::size_t i = 0; i < chain.size(); ++i) {
        EXPECT_EQ(chain[i].kind, expected[i].first) << "hop " << i;
        if (!expected[i].second.empty()) {
            EXPECT_EQ(chain[i].track, expected[i].second) << "hop " << i;
        }
    }
    expectTiles(chain, run.posted, run.consumed[0]);
}

/**
 * A traced sendv of 4, descriptor 2 stamped beforehand: 4 distinct
 * non-zero ids, the ones sendv stamped in post order, the pre-stamped
 * one kept, and every chain tiling post to consume.
 */
template <class Rig>
void
expectSendvStampsEachDescriptor()
{
    TracedRun run = runMessages<Rig>(4, true, 2);
    ASSERT_EQ(run.ids.size(), 4u);
    EXPECT_EQ(run.payloadSeeds, (std::vector<std::uint8_t>{0, 1, 2, 3}));

    EXPECT_NE(run.prestampedId, 0u);
    EXPECT_EQ(run.ids[2], run.prestampedId);
    EXPECT_NE(run.ids[0], 0u);
    EXPECT_LT(run.ids[0], run.ids[1]);
    EXPECT_LT(run.ids[1], run.ids[3]);
    EXPECT_NE(run.ids[3], run.ids[2]);

    EXPECT_EQ(run.chains.size(), 4u);
    for (std::size_t k = 0; k < run.ids.size(); ++k) {
        SCOPED_TRACE(k);
        expectTiles(run.chains[run.ids[k]], run.posted, run.consumed[k]);
    }
}

} // namespace

// Custody starts when send() posts and ends when wait() consumes.
TEST(TraceE2E, CustodySpansTileSendToConsume)
{
    // The kernel trap posts, the DC21140 serializes, the receiving
    // kernel demuxes into the endpoint.
    expectHopChain<FeRig>({{obs::SpanKind::TxPost, "node0.cpu"},
                           {obs::SpanKind::TxNic, "node0.nic"},
                           {obs::SpanKind::Wire, "eth.wire"},
                           {obs::SpanKind::RxKernel, "node1.cpu"},
                           {obs::SpanKind::RxQueue, ""}});
}

TEST(TraceE2E, AtmCustodySpansTileSendToConsume)
{
    // The i960 takes custody at the pop of the host's PIO store and
    // hands the last cell to the wire; the receiving i960 reassembles
    // into the receive queue.
    expectHopChain<AtmRig>({{obs::SpanKind::TxPost, "node0.cpu"},
                            {obs::SpanKind::TxFw, "node0.fw"},
                            {obs::SpanKind::Wire, "atm.wire"},
                            {obs::SpanKind::RxFw, "node1.fw"},
                            {obs::SpanKind::RxQueue, ""}});
}

TEST(TraceE2E, FeSendvStampsEachDescriptor)
{
    expectSendvStampsEachDescriptor<FeRig>();
}

TEST(TraceE2E, AtmSendvStampsEachDescriptor)
{
    expectSendvStampsEachDescriptor<AtmRig>();
}

TEST(TraceE2E, DisabledTracerRecordsNothing)
{
    TracedRun run = runMessages<FeRig>(1, false);
    ASSERT_EQ(run.ids.size(), 1u);
    EXPECT_FALSE(run.traced);
    EXPECT_EQ(run.ids[0], 0u);
}
