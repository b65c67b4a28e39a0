/**
 * @file
 * Unit and death tests for the buffer-ownership state machine and the
 * credit-window auditor, plus an end-to-end proof that a double-posted
 * send buffer is caught at the U-Net API boundary.
 */

#include <gtest/gtest.h>

#include "check/credits.hh"
#include "check/ownership.hh"
#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::check;
using namespace unet::test;
using namespace unet::sim::literals;

TEST(BufStateName, AllStatesNamed)
{
    EXPECT_STREQ(name(BufState::TxPosted), "posted-to-send");
    EXPECT_STREQ(name(BufState::TxAgent), "agent-owned (tx gather)");
    EXPECT_STREQ(name(BufState::RxPosted), "rx-posted (free queue)");
    EXPECT_STREQ(name(BufState::RxAgent), "agent-owned (rx fill)");
    EXPECT_STREQ(name(BufState::Delivered), "delivered");
}

#if defined(UNET_CHECK) && UNET_CHECK

TEST(Ownership, SendLifecycle)
{
    OwnershipTracker t(4096);
    t.postSend({0, 512});
    EXPECT_EQ(t.tracked(), 1u);
    EXPECT_EQ(t.bytesIn(BufState::TxPosted), 512u);

    t.claimSend({0, 512});
    EXPECT_EQ(t.bytesIn(BufState::TxAgent), 512u);

    t.releaseSend({0, 512});
    EXPECT_EQ(t.tracked(), 0u);
}

TEST(Ownership, ReceiveLifecycle)
{
    OwnershipTracker t(4096);
    t.postFree({1024, 2048});
    EXPECT_EQ(t.bytesIn(BufState::RxPosted), 2048u);

    t.claimRecv({1024, 2048});
    EXPECT_EQ(t.bytesIn(BufState::RxAgent), 2048u);

    // The message fills only part of the buffer; the descriptor and
    // the writes reference the truncated range.
    t.rxWrite({1024, 300});
    t.deliver({1024, 300});
    EXPECT_EQ(t.bytesIn(BufState::Delivered), 2048u);

    // Consuming the descriptor returns the whole region to the app.
    t.consume({1024, 300});
    EXPECT_EQ(t.tracked(), 0u);
}

TEST(Ownership, DropPathReturnsBufferToFreeQueue)
{
    OwnershipTracker t(4096);
    t.postFree({0, 2048});
    t.claimRecv({0, 2048});
    t.unclaimRecv({0, 2048});
    EXPECT_EQ(t.bytesIn(BufState::RxPosted), 2048u);

    // Re-claim, then lose it to a full free queue: the region leaves
    // the tracker entirely.
    t.claimRecv({0, 2048});
    t.releaseRecv({0, 2048});
    EXPECT_EQ(t.tracked(), 0u);
}

TEST(Ownership, AgentOpsAreLenientAboutUntrackedRegions)
{
    // Boot-time code and test harnesses push rings directly without
    // the tracked API; the agent-side hooks must tolerate that.
    OwnershipTracker t(4096);
    t.claimSend({0, 64});
    t.releaseSend({0, 64});
    t.claimRecv({128, 64});
    t.unclaimRecv({128, 64});
    t.rxWrite({256, 64});
    t.deliver({256, 64});
    t.consume({256, 64});
    EXPECT_EQ(t.tracked(), 0u);
}

TEST(Ownership, ZeroLengthPostsAreIgnored)
{
    OwnershipTracker t(4096);
    t.postSend({0, 0});
    t.postFree({64, 0});
    EXPECT_EQ(t.tracked(), 0u);
}

TEST(Ownership, DisjointRegionsTrackIndependently)
{
    OwnershipTracker t(8192);
    t.postSend({0, 1024});
    t.postFree({1024, 1024});
    t.postSend({4096, 512});
    EXPECT_EQ(t.tracked(), 3u);
    EXPECT_EQ(t.bytesIn(BufState::TxPosted), 1536u);
    EXPECT_EQ(t.bytesIn(BufState::RxPosted), 1024u);

    // Adjacent (touching, non-overlapping) regions are legal.
    t.releaseSend({0, 1024});
    t.postSend({0, 1024});
    EXPECT_EQ(t.tracked(), 3u);
}

TEST(OwnershipDeathTest, DoublePostSendPanics)
{
    OwnershipTracker t(4096);
    t.postSend({0, 512});
    EXPECT_DEATH(t.postSend({0, 512}), "overlaps region");
}

TEST(OwnershipDeathTest, OverlappingPostPanics)
{
    OwnershipTracker t(4096);
    t.postSend({256, 512});
    // Overlap from below, from above, and containment all panic.
    EXPECT_DEATH(t.postSend({0, 300}), "overlaps region");
    EXPECT_DEATH(t.postFree({700, 512}), "overlaps region");
    EXPECT_DEATH(t.postFree({300, 64}), "overlaps region");
}

TEST(OwnershipDeathTest, FreeWhilePostedToSendPanics)
{
    OwnershipTracker t(4096);
    t.postSend({0, 512});
    EXPECT_DEATH(t.postFree({0, 512}), "posted-to-send");
}

TEST(OwnershipDeathTest, OutOfBoundsDescriptorPanics)
{
    OwnershipTracker t(4096);
    EXPECT_DEATH(t.postSend({4000, 200}), "outside the");
    EXPECT_DEATH(t.postFree({0, 8192}), "outside the");
}

TEST(OwnershipDeathTest, WrongStateTransitionsPanic)
{
    OwnershipTracker t(4096);
    t.postFree({0, 1024});
    // A free-queue buffer gathered as send payload is corruption.
    EXPECT_DEATH(t.claimSend({0, 1024}), "rx-posted");
    // Delivering a buffer the agent never claimed is corruption.
    EXPECT_DEATH(t.deliver({0, 1024}), "rx-posted");

    t.claimRecv({0, 1024});
    t.deliver({0, 1024});
    // Receive data landing in an already-delivered buffer would
    // corrupt a message the application may be reading.
    EXPECT_DEATH(t.rxWrite({0, 100}), "delivered");
}

TEST(OwnershipDeathTest, ConsumeUndeliveredPanics)
{
    OwnershipTracker t(4096);
    t.postFree({0, 1024});
    EXPECT_DEATH(t.consume({0, 1024}), "expected delivered");
}

TEST(OwnershipDeathTest, ReferenceLargerThanRegionPanics)
{
    OwnershipTracker t(4096);
    t.postSend({0, 256});
    EXPECT_DEATH(t.claimSend({0, 512}), "exceeds the");
}

TEST(Credits, AcquireReleaseTracksInFlight)
{
    CreditWindow w;
    w.setLimit(4);
    EXPECT_EQ(w.held(), 0u);
    w.acquire();
    w.acquire();
    EXPECT_EQ(w.held(), 2u);
    w.release();
    EXPECT_EQ(w.held(), 1u);
    // Re-stating the same limit is fine (channels re-open lazily).
    w.setLimit(4);
}

TEST(CreditsDeathTest, OverflowAndUnderflowPanic)
{
    CreditWindow w;
    w.setLimit(2);
    w.acquire();
    w.acquire();
    EXPECT_DEATH(w.acquire(), "credit overflow");
    w.release();
    w.release();
    EXPECT_DEATH(w.release(), "credit underflow");
}

TEST(CreditsDeathTest, UnsizedWindowPanics)
{
    CreditWindow w;
    EXPECT_DEATH(w.acquire(), "before the window was sized");
}

TEST(CreditsDeathTest, ResizingTheWindowPanics)
{
    CreditWindow w;
    w.setLimit(4);
    EXPECT_DEATH(w.setLimit(8), "re-limited");
}

namespace {

/** Drive a U-Net/FE pair where the sender double-posts one buffer. */
void
doublePostScenario()
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    Endpoint *ep_a = nullptr, *ep_b = nullptr;
    ChannelId chan_a = invalidChannel, chan_b = invalidChannel;

    sim::Process rx(s, "rx", [](sim::Process &) {});
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        // Post the same 512-byte buffer twice back-to-back. The first
        // descriptor is still in flight (send queue or device ring)
        // when the second post lands: a zero-copy violation — the
        // second message could transmit bytes the first is reading.
        a.unet.send(self, *ep_a, fragmentSend(chan_a, {0, 512}));
        a.unet.send(self, *ep_a, fragmentSend(chan_a, {0, 512}));
    });

    ep_a = &a.unet.createEndpoint(&tx, {});
    ep_b = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *ep_a, b.unet, *ep_b, chan_a, chan_b);

    rx.start();
    tx.start(1_us);
    s.run();
}

} // namespace

TEST(OwnershipDeathTest, EndToEndDoublePostedSendBufferIsCaught)
{
    EXPECT_DEATH(doublePostScenario(), "postSend.*overlaps region");
}

TEST(Ownership, EndpointTracksPostedFreeBuffers)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    Endpoint *ep_a = nullptr, *ep_b = nullptr;
    ChannelId chan_a = invalidChannel, chan_b = invalidChannel;
    bool received = false;
    RecvDescriptor got;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        b.unet.postFree(self, *ep_b, {0, 2048});
        EXPECT_EQ(ep_b->ownership().bytesIn(BufState::RxPosted), 2048u);
        received = ep_b->wait(self, got, 10_ms);
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto data = pattern(400);
        ep_a->buffers().write({0, 400}, data);
        a.unet.send(self, *ep_a, fragmentSend(chan_a, {0, 400}));
    });

    ep_a = &a.unet.createEndpoint(&tx, {});
    ep_b = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *ep_a, b.unet, *ep_b, chan_a, chan_b);

    rx.start();
    tx.start(1_us);
    s.run();

    ASSERT_TRUE(received);
    ASSERT_FALSE(got.isSmall);
    // poll()/wait() consumed the receive descriptor: the buffer is
    // back in application hands and untracked.
    EXPECT_EQ(ep_b->ownership().tracked(), 0u);
    // The ring invariants hold after real traffic.
    ep_a->auditRings();
    ep_b->auditRings();
}

TEST(Ownership, FeZeroCopyStreamRepostsOnCompletion)
{
    // Two send fragments alternate through the DC21140 TX ring: each
    // is re-posted as soon as its completion writeback releases it.
    // The stream outlasts the 64-slot ring, so every slot is refilled
    // right after its previous frame's completion reaped it.
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    Endpoint *ep_a = nullptr, *ep_b = nullptr;
    ChannelId chan_a = invalidChannel, chan_b = invalidChannel;
    constexpr std::size_t kSends = 150;
    constexpr std::uint32_t kMsgBytes = 900;
    constexpr std::uint32_t kBufBytes = 1024;
    constexpr std::size_t kFreeBuffers = 8;
    std::size_t accepted = 0;
    std::size_t received = 0;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        for (std::size_t i = 0; i < kFreeBuffers; ++i)
            ASSERT_TRUE(b.unet.postFree(
                self, *ep_b,
                {static_cast<std::uint32_t>(i) * kBufBytes, kBufBytes}));
        RecvDescriptor rd;
        while (received < kSends && ep_b->wait(self, rd, 10_ms)) {
            ++received;
            ASSERT_EQ(rd.length, kMsgBytes);
            for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
                ASSERT_TRUE(b.unet.postFree(
                    self, *ep_b, {rd.buffers[i].offset, kBufBytes}));
        }
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        const BufferRef frags[2] = {{0, kMsgBytes}, {4096, kMsgBytes}};
        for (std::size_t m = 0; m < kSends; ++m) {
            // Completions arrive in ring order, so the fragment to
            // re-post is the older one; wait (in 100 ns steps) until
            // its writeback has released it.
            sim::Tick waited = 0;
            while (m >= 2 && ep_a->ownership().tracked() >= 2) {
                ASSERT_LT(waited, 1_ms)
                    << "send " << m << ": no completion released a "
                    << "fragment";
                self.delay(100_ns);
                waited += 100_ns;
            }
            const BufferRef frag = frags[m % 2];
            ep_a->buffers().write(
                frag,
                pattern(kMsgBytes, static_cast<std::uint8_t>(1 + m % 2)));
            if (a.unet.send(self, *ep_a, fragmentSend(chan_a, frag)))
                ++accepted;
        }
    });

    ep_a = &a.unet.createEndpoint(&tx, {});
    ep_b = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *ep_a, b.unet, *ep_b, chan_a, chan_b);

    rx.start();
    tx.start(1_us);
    s.run();

    ASSERT_GT(kSends, a.nic.txRingSize());
    EXPECT_EQ(accepted, kSends);
    EXPECT_EQ(received, kSends);
    EXPECT_EQ(a.unet.txBacklog(*ep_a), 0u);

    const check::OwnershipTracker &tx_books = ep_a->ownership();
    EXPECT_EQ(tx_books.bytesIn(BufState::TxPosted), 0u);
    EXPECT_EQ(tx_books.bytesIn(BufState::TxAgent), 0u);
    EXPECT_EQ(tx_books.tracked(), 0u);

    const check::OwnershipTracker &rx_books = ep_b->ownership();
    EXPECT_EQ(rx_books.bytesIn(BufState::RxPosted),
              kFreeBuffers * kBufBytes);
    EXPECT_EQ(rx_books.bytesIn(BufState::RxAgent), 0u);
    EXPECT_EQ(rx_books.bytesIn(BufState::Delivered), 0u);
    EXPECT_EQ(rx_books.tracked(), kFreeBuffers);
    ep_a->auditRings();
    ep_b->auditRings();
}

namespace {

/**
 * One custody scenario between two endpoints, driven end to end on
 * U-Net/FE or U-Net/ATM. The receiver posts @c freeBuffers 512-byte
 * buffers and never polls; the sender posts @c messages 1200-byte
 * sends (three buffers each), optionally on an invalid channel. The
 * expectations are the receiver's tracker books once the simulation
 * drains, and the drop counters.
 */
struct CustodyCase
{
    const char *name;
    bool atm;
    std::size_t freeBuffers;
    std::size_t messages;
    std::size_t recvQueueDepth;
    bool invalidChannel;

    std::size_t rxPosted;
    std::size_t delivered;
    std::size_t tracked;
    std::uint64_t noBufferDrops;
    std::uint64_t rxQueueDrops;
};

// Print a case by name: gtest's default dump shows the bytes of the
// name pointer, which ASLR changes each run, and ctest registers the
// printed value as part of each test's name.
void
PrintTo(const CustodyCase &c, std::ostream *os)
{
    *os << c.name;
}

topo::Spec
custodySpec(bool atm)
{
    if (atm)
        return topo::Spec::numbered(atm::SwitchSpec::asx200(), 2);
    return topo::Spec::numbered(topo::EthLinkSpec{}, 2);
}

class EndpointCustody : public ::testing::TestWithParam<CustodyCase>
{};

TEST_P(EndpointCustody, BooksBalanceEndToEnd)
{
    const CustodyCase &c = GetParam();
    constexpr std::uint32_t bufBytes = 512;
    constexpr std::uint32_t msgBytes = 1200;

    sim::Simulation s;
    topo::Topology topology(s, custodySpec(c.atm));
    UNet &tx_unet = topology.unet(0);
    UNet &rx_unet = topology.unet(1);

    Endpoint *ep_a = nullptr, *ep_b = nullptr;
    ChannelId chan_a = invalidChannel, chan_b = invalidChannel;
    std::size_t accepted = 0;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        for (std::size_t i = 0; i < c.freeBuffers; ++i)
            ASSERT_TRUE(rx_unet.postFree(
                self, *ep_b,
                {static_cast<std::uint32_t>(i * bufBytes), bufBytes}));
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto data = pattern(msgBytes);
        const ChannelId chan =
            c.invalidChannel ? static_cast<ChannelId>(7) : chan_a;
        for (std::size_t m = 0; m < c.messages; ++m) {
            BufferRef frag{static_cast<std::uint32_t>(m * 2048),
                           msgBytes};
            ep_a->buffers().write(frag, data);
            if (tx_unet.send(self, *ep_a, fragmentSend(chan, frag)))
                ++accepted;
        }
    });

    EndpointConfig rx_cfg;
    rx_cfg.recvQueueDepth = c.recvQueueDepth;
    ep_a = &tx_unet.createEndpoint(&tx, {});
    ep_b = &rx_unet.createEndpoint(&rx, rx_cfg);
    topology.connect(0, *ep_a, 1, *ep_b, chan_a, chan_b);

    rx.start();
    tx.start(1_us);
    s.run();

    EXPECT_EQ(accepted, c.messages);
    // Every send fragment went back to the application, delivered or
    // dropped by the agent.
    EXPECT_EQ(ep_a->ownership().tracked(), 0u);

    const check::OwnershipTracker &books = ep_b->ownership();
    EXPECT_EQ(books.bytesIn(BufState::TxPosted), 0u);
    EXPECT_EQ(books.bytesIn(BufState::TxAgent), 0u);
    EXPECT_EQ(books.bytesIn(BufState::RxPosted), c.rxPosted);
    EXPECT_EQ(books.bytesIn(BufState::RxAgent), 0u);
    EXPECT_EQ(books.bytesIn(BufState::Delivered), c.delivered);
    EXPECT_EQ(books.tracked(), c.tracked);

    const std::uint64_t no_buffer =
        c.atm ? topology.atm(1).nic.noBufferDrops()
              : topology.fe(1).unet.rxNoFreeBuffer();
    EXPECT_EQ(no_buffer, c.noBufferDrops);
    EXPECT_EQ(ep_b->rxQueueDrops(), c.rxQueueDrops);

    // Consuming every delivered message hands its whole buffers back
    // to the application; only free-queue buffers stay tracked.
    RecvDescriptor rd;
    while (ep_b->poll(rd))
        EXPECT_FALSE(rd.isSmall);
    EXPECT_EQ(books.bytesIn(BufState::Delivered), 0u);
    EXPECT_EQ(books.tracked(), c.rxPosted / bufBytes);
    ep_a->auditRings();
    ep_b->auditRings();
}

// name, atm, free buffers, messages, recv depth, invalid channel;
// rx-posted, delivered, tracked, no-buffer drops, rx-queue drops.
const CustodyCase custodyCases[] = {
    {"FeDelivered", false, 4, 1, 64, false, 512, 1536, 4, 0, 0},
    {"AtmDelivered", true, 4, 1, 64, false, 512, 1536, 4, 0, 0},
    {"FeNoFreeBuffer", false, 1, 1, 64, false, 512, 0, 1, 1, 0},
    {"AtmNoFreeBuffer", true, 1, 1, 64, false, 512, 0, 1, 1, 0},
    {"FeRecvQueueFull", false, 6, 2, 1, false, 1536, 1536, 6, 0, 1},
    {"AtmRecvQueueFull", true, 6, 2, 1, false, 1536, 1536, 6, 0, 1},
    {"FeInvalidChannel", false, 2, 1, 64, true, 1024, 0, 2, 0, 0},
};

INSTANTIATE_TEST_SUITE_P(
    FeAtm, EndpointCustody, ::testing::ValuesIn(custodyCases),
    [](const ::testing::TestParamInfo<CustodyCase> &info) {
        return std::string(info.param.name);
    });

} // namespace

#else // !UNET_CHECK

TEST(Ownership, NoOpTrackerCompilesAndTracksNothing)
{
    OwnershipTracker t(4096);
    t.postSend({0, 512});
    t.postFree({1024, 512});
    EXPECT_EQ(t.tracked(), 0u);
    EXPECT_EQ(t.bytesIn(BufState::TxPosted), 0u);

    CreditWindow w;
    w.setLimit(1);
    w.acquire();
    w.acquire(); // no-op variant never panics
    EXPECT_EQ(w.held(), 0u);
}

#endif // UNET_CHECK
