#include <gtest/gtest.h>

#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::test;
using namespace unet::sim::literals;

namespace {

/** Two FE nodes on a full-duplex link with a channel between them. */
struct FePair
{
    FePair()
        : link(s), a(s, link, 0), b(s, link, 1),
          sender(s, "sender", [](sim::Process &) {}),
          receiver(s, "receiver", [](sim::Process &) {})
    {
        epA = &a.unet.createEndpoint(&sender, {});
        epB = &b.unet.createEndpoint(&receiver, {});
        UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);
    }

    sim::Simulation s;
    eth::FullDuplexLink link;
    FeNode a, b;
    sim::Process sender, receiver;
    Endpoint *epA = nullptr;
    Endpoint *epB = nullptr;
    ChannelId chanA = invalidChannel;
    ChannelId chanB = invalidChannel;
};

[[maybe_unused]] void
epSend(FePair &p, sim::Process &self)
{
    auto data = pattern(40);
    p.a.unet.send(self, *p.epA, inlineSend(p.chanA, data));
}

} // namespace

TEST(UNetFe, SmallMessageEndToEnd)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    auto data = pattern(40);
    RecvDescriptor got;
    bool received = false;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        received = epB->wait(self, got, 10_ms);
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        EXPECT_TRUE(a.unet.send(self, *epA, inlineSend(chanA, data)));
    });

    epA = &a.unet.createEndpoint(&tx, {});
    epB = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);

    rx.start();
    tx.start(1_us);
    s.run();

    ASSERT_TRUE(received);
    EXPECT_TRUE(got.isSmall);
    EXPECT_EQ(got.length, 40u);
    EXPECT_EQ(got.channel, chanB);
    EXPECT_TRUE(std::equal(data.begin(), data.end(),
                           got.inlineData.begin()));
    EXPECT_EQ(a.unet.messagesSent(), 1u);
    EXPECT_EQ(b.unet.messagesDelivered(), 1u);
}

TEST(UNetFe, LargeMessageUsesFreeBuffers)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    auto data = pattern(1000, 9);
    RecvDescriptor got;
    bool received = false;
    std::vector<std::uint8_t> received_bytes;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        // Provide receive buffers first.
        b.unet.postFree(self, *epB, {0, 2048});
        received = epB->wait(self, got, 10_ms);
        if (received && !got.isSmall) {
            for (std::uint8_t i = 0; i < got.bufferCount; ++i) {
                auto span = epB->buffers().span(got.buffers[i]);
                received_bytes.insert(received_bytes.end(), span.begin(),
                                      span.end());
            }
        }
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        // Compose in the buffer area, send zero-copy.
        epA->buffers().write({100, 1000}, data);
        EXPECT_TRUE(a.unet.send(self, *epA,
                                fragmentSend(chanA, {100, 1000})));
    });

    epA = &a.unet.createEndpoint(&tx, {});
    epB = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);

    rx.start();
    tx.start(5_us);
    s.run();

    ASSERT_TRUE(received);
    EXPECT_FALSE(got.isSmall);
    EXPECT_EQ(got.length, 1000u);
    EXPECT_EQ(received_bytes, data);
}

TEST(UNetFe, Ipv4EncapsulationShrinksMaxMessage)
{
    // The IPv4 header comes out of the Ethernet payload, so the
    // largest message the instance reports is the largest it accepts.
    sim::Simulation s;
    topo::Spec spec = topo::Spec::numbered(topo::EthLinkSpec{}, 2);
    for (topo::NodeSpec &node : spec.nodes)
        node.fe.ipv4Encapsulation = true;
    topo::Topology topology(s, spec);
    UNetFe &a = topology.fe(0).unet;
    UNetFe &b = topology.fe(1).unet;
    ASSERT_EQ(a.maxMessageBytes(), 1474u);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    auto data = pattern(1474, 5);
    RecvDescriptor got;
    bool received = false;
    std::vector<std::uint8_t> received_bytes;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        b.postFree(self, *epB, {0, 2048});
        received = epB->wait(self, got, 10_ms);
        if (received && !got.isSmall)
            for (std::uint8_t i = 0; i < got.bufferCount; ++i) {
                auto span = epB->buffers().span(got.buffers[i]);
                received_bytes.insert(received_bytes.end(), span.begin(),
                                      span.end());
            }
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        epA->buffers().write({0, 1474}, data);
        EXPECT_TRUE(a.send(self, *epA, fragmentSend(chanA, {0, 1474})));
    });

    epA = &a.createEndpoint(&tx, {});
    epB = &b.createEndpoint(&rx, {});
    UNetFe::connect(a, *epA, b, *epB, chanA, chanB);

    rx.start();
    tx.start(5_us);
    s.run();

    ASSERT_TRUE(received);
    EXPECT_EQ(got.length, 1474u);
    EXPECT_EQ(received_bytes, data);
}

TEST(UNetFe, NoFreeBufferDropsLargeMessage)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    bool received = true;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        RecvDescriptor got;
        received = epB->wait(self, got, 2_ms);
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        epA->buffers().write({0, 500}, pattern(500));
        EXPECT_TRUE(a.unet.send(self, *epA,
                                fragmentSend(chanA, {0, 500})));
    });

    epA = &a.unet.createEndpoint(&tx, {});
    epB = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);

    rx.start();
    tx.start(1_us);
    s.run();

    EXPECT_FALSE(received);
    EXPECT_EQ(b.unet.rxNoFreeBuffer(), 1u);
    EXPECT_EQ(b.unet.messagesDelivered(), 0u);
}

TEST(UNetFe, ProtectionFaultOnForeignEndpoint)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    Endpoint *epA = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;

    sim::Process owner(s, "owner", [](sim::Process &) {});
    sim::Process intruder(s, "intruder", [&](sim::Process &self) {
        auto data = pattern(16);
        // A process that does not own the endpoint must be rejected.
        EXPECT_FALSE(a.unet.send(self, *epA, inlineSend(chanA, data)));
    });

    epA = &a.unet.createEndpoint(&owner, {});
    Endpoint *epB = &b.unet.createEndpoint(&owner, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);

    intruder.start();
    s.run();
    EXPECT_EQ(a.unet.protectionFaults(), 1u);
    EXPECT_EQ(a.unet.messagesSent(), 0u);
}

TEST(UNetFe, SendProcessorOverheadMatchesFig3)
{
    FePair p;
    sim::Tick elapsed = -1;
    sim::Process tx(p.s, "tx", [&](sim::Process &self) {
        auto data = pattern(40);
        sim::Tick t0 = p.s.now();
        p.a.unet.send(self, *p.epA, inlineSend(p.chanA, data));
        elapsed = p.s.now() - t0;
    });
    tx.start();
    // Rebind endpoint ownership to the actual sender.
    p.epA = &p.a.unet.createEndpoint(&tx, {});
    ChannelId ca, cb;
    UNetFe::connect(p.a.unet, *p.epA, p.b.unet, *p.epB, ca, cb);
    p.chanA = ca;
    p.s.run();

    // "processor overhead required to push a message into the network
    // is approximately 4.2 us" (+ the user-level descriptor push and
    // the small inline copy in our accounting).
    EXPECT_GT(sim::toMicroseconds(elapsed), 4.0);
    EXPECT_LT(sim::toMicroseconds(elapsed), 6.5);
}

TEST(UNetFe, TxTimelineSumsToFourPointTwo)
{
    FePair p;
    p.s.enableTrace();
    sim::Process tx(p.s, "tx",
                    [&](sim::Process &self) { epSend(p, self); });
    p.epA = &p.a.unet.createEndpoint(&tx, {});
    ChannelId ca, cb;
    UNetFe::connect(p.a.unet, *p.epA, p.b.unet, *p.epB, ca, cb);
    p.chanA = ca;
    tx.start();
    p.s.run();

    // The Fig. 3 timeline is the Step spans on the sender's CPU track.
    auto *tr = p.s.trace();
    std::vector<obs::Span> steps;
    tr->forEach([&](const obs::Span &sp) {
        if (sp.kind == obs::SpanKind::Step &&
            tr->nameOf(sp.track) == "node0.cpu")
            steps.push_back(sp);
    });

    ASSERT_EQ(steps.size(), 8u); // the eight Fig. 3 steps
    sim::Tick total = 0;
    for (const auto &sp : steps)
        total += sp.end - sp.start;
    EXPECT_NEAR(sim::toMicroseconds(total), 4.2, 0.1);
    EXPECT_EQ(tr->nameOf(steps.front().label), "trap entry");
    EXPECT_EQ(tr->nameOf(steps.back().label), "return from trap");

    // "about 20% are consumed by the trap overhead"
    double trap = sim::toMicroseconds(
        (steps.front().end - steps.front().start) +
        (steps.back().end - steps.back().start));
    EXPECT_NEAR(trap / sim::toMicroseconds(total), 0.20, 0.03);
}

TEST(UNetFe, UnknownPortCounted)
{
    FePair p;
    sim::Process tx(p.s, "tx", [&](sim::Process &self) {
        auto data = pattern(8);
        p.a.unet.send(self, *p.epA, inlineSend(p.chanA, data));
    });
    p.epA = &p.a.unet.createEndpoint(&tx, {});
    // Point the channel at a port that exists on no endpoint at B.
    p.chanA = p.a.unet.addChannelTo(*p.epA, p.b.nic.address(), 199);
    tx.start();
    p.s.run();
    EXPECT_EQ(p.b.unet.rxUnknownPort(), 1u);
}

TEST(UNetFe, UnknownSourceChannelCounted)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    sim::Process tx(s, "tx", [](sim::Process &) {});
    Endpoint *epA = &a.unet.createEndpoint(&tx, {});
    Endpoint *epB = &b.unet.createEndpoint(&tx, {});
    // One-way registration: A knows B, but B has no channel back to A,
    // so B cannot attribute the message to a channel.
    ChannelId chanA =
        a.unet.addChannelTo(*epA, b.nic.address(), b.unet.portOf(*epB));

    sim::Process sender(s, "sender", [&](sim::Process &self) {
        auto data = pattern(8);
        a.unet.send(self, *epA, inlineSend(chanA, data));
    });
    epA = &a.unet.createEndpoint(&sender, {});
    chanA = a.unet.addChannelTo(*epA, b.nic.address(),
                                b.unet.portOf(*epB));
    sender.start();
    s.run();
    EXPECT_EQ(b.unet.rxNoChannel(), 1u);
}

TEST(UNetFe, TxBacklogMatchesRingSweepUnderSendvAndFlush)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    constexpr std::size_t kMessages = 600;
    constexpr std::uint32_t kRegion = 1024;
    // 64-entry send queue + 64-slot TX ring: a region is re-posted
    // only after 128 later sends, when it has left the device.
    constexpr std::size_t kRegions = 128;
    std::size_t sent = 0;

    sim::Process rx(s, "rx", [](sim::Process &) {});
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        sim::Random rng(20261020);
        auto inline_data = pattern(16);
        std::array<SendDescriptor, 16> batch;
        while (sent < kMessages) {
            const auto n = static_cast<std::size_t>(std::min<std::int64_t>(
                rng.uniform(1, 16),
                static_cast<std::int64_t>(kMessages - sent)));
            for (std::size_t i = 0; i < n; ++i) {
                if (rng.uniform(0, 3) == 0) {
                    batch[i] = inlineSend(chanA, inline_data);
                } else {
                    const auto off = static_cast<std::uint32_t>(
                        ((sent + i) % kRegions) * kRegion);
                    const auto len =
                        static_cast<std::uint32_t>(rng.uniform(100, 1000));
                    batch[i] = fragmentSend(chanA, {off, len});
                }
            }
            sent += a.unet.sendv(self, *epA, batch.data(), n);
            if (rng.uniform(0, 3) == 0)
                a.unet.flush(self, *epA);
            if (rng.uniform(0, 1) == 0)
                self.delay(sim::microseconds(rng.uniform(0, 120)));
        }
        // Flush whatever the last traps left in the send queue.
        for (int i = 0; i < 100 && !epA->sendQueue().empty(); ++i) {
            a.unet.flush(self, *epA);
            self.delay(50_us);
        }
    });

    epA = &a.unet.createEndpoint(&tx, {});
    epB = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);

    TxBacklogProbe probe(s, a.unet, *epA);
    rx.start();
    tx.start(1_us);
    s.run();

    EXPECT_EQ(sent, kMessages);
    EXPECT_EQ(a.unet.messagesSent(), kMessages);
    EXPECT_GT(probe.checks, kMessages);
    EXPECT_EQ(probe.mismatches, 0u);
    // The send queue and the ring were both loaded at some point.
    EXPECT_GT(probe.maxBacklog, 64u);
    EXPECT_EQ(a.unet.txBacklog(*epA), 0u);
    EXPECT_EQ(epA->ownership().tracked(), 0u);
}
