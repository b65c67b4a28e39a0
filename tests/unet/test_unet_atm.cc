#include <gtest/gtest.h>

#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::test;
using namespace unet::sim::literals;

TEST(UNetAtm, SingleCellMessageEndToEnd)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    auto data = pattern(40);
    RecvDescriptor got;
    bool received = false;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        received = epB->wait(self, got, 10_ms);
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        EXPECT_TRUE(star[0].unet.send(self, *epA,
                                      inlineSend(chanA, data)));
    });

    epA = &star[0].unet.createEndpoint(&tx, {});
    epB = &star[1].unet.createEndpoint(&rx, {});
    UNetAtm::connect(star[0].unet, *epA, star.ports[0], star[1].unet,
                     *epB, star.ports[1], star.signalling, chanA, chanB);

    rx.start();
    tx.start(1_us);
    s.run();

    ASSERT_TRUE(received);
    EXPECT_TRUE(got.isSmall); // single-cell fast path
    EXPECT_EQ(got.length, 40u);
    EXPECT_EQ(got.channel, chanB);
    EXPECT_TRUE(std::equal(data.begin(), data.end(),
                           got.inlineData.begin()));
    EXPECT_EQ(star[0].nic.cellsSent(), 1u);
    EXPECT_EQ(star[1].nic.messagesDelivered(), 1u);
}

TEST(UNetAtm, SingleCellRoundTripsAllocateNoEventCallables)
{
    // The PCA-200's single-cell receive path schedules its firmware
    // completion with a capture that must fit the event queue's
    // inline storage: a ping-pong of single-cell messages adds no
    // heap-allocated callable.
    sim::Simulation s;
    AtmStar star(s, 2);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    constexpr int kRoundTrips = 200;
    auto data = pattern(40);
    int echoed = 0, returned = 0;

    sim::Process pong(s, "pong", [&](sim::Process &self) {
        RecvDescriptor rd;
        for (int i = 0; i < kRoundTrips; ++i) {
            if (!epB->wait(self, rd, 10_ms) || !rd.isSmall)
                return;
            star[1].unet.send(self, *epB, inlineSend(chanB, data));
            ++echoed;
        }
    });
    sim::Process ping(s, "ping", [&](sim::Process &self) {
        RecvDescriptor rd;
        for (int i = 0; i < kRoundTrips; ++i) {
            star[0].unet.send(self, *epA, inlineSend(chanA, data));
            if (!epA->wait(self, rd, 10_ms) || !rd.isSmall)
                return;
            ++returned;
        }
    });

    epA = &star[0].unet.createEndpoint(&ping, {});
    epB = &star[1].unet.createEndpoint(&pong, {});
    UNetAtm::connect(star[0].unet, *epA, star.ports[0], star[1].unet,
                     *epB, star.ports[1], star.signalling, chanA, chanB);

    const std::uint64_t before = s.events().heapCallableAllocs();
    pong.start();
    ping.start(1_us);
    s.run();

    EXPECT_EQ(echoed, kRoundTrips);
    EXPECT_EQ(returned, kRoundTrips);
    EXPECT_EQ(star[0].nic.cellsSent(), std::uint64_t{kRoundTrips});
    EXPECT_EQ(s.events().heapCallableAllocs(), before);
}

TEST(UNetAtm, MultiCellMessageIntoBuffers)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    auto data = pattern(1500, 3);
    RecvDescriptor got;
    bool received = false;
    std::vector<std::uint8_t> received_bytes;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        star[1].unet.postFree(self, *epB, {0, 4096});
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
        epA->buffers().write({0, 1500}, data);
        EXPECT_TRUE(star[0].unet.send(self, *epA,
                                      fragmentSend(chanA, {0, 1500})));
    });

    epA = &star[0].unet.createEndpoint(&tx, {});
    epB = &star[1].unet.createEndpoint(&rx, {});
    UNetAtm::connect(star[0].unet, *epA, star.ports[0], star[1].unet,
                     *epB, star.ports[1], star.signalling, chanA, chanB);

    rx.start();
    tx.start(1_us);
    s.run();

    ASSERT_TRUE(received);
    EXPECT_FALSE(got.isSmall);
    EXPECT_EQ(got.length, 1500u);
    EXPECT_EQ(received_bytes, data);
    // 1500 + 8 trailer = 32 cells.
    EXPECT_EQ(star[0].nic.cellsSent(), 32u);
    EXPECT_EQ(star.sw.cellsForwarded(), 32u);
}

TEST(UNetAtm, NoFreeBufferPoisonsPdu)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    bool received = true;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        RecvDescriptor got;
        received = epB->wait(self, got, 5_ms); // no free buffers posted
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        epA->buffers().write({0, 500}, pattern(500));
        star[0].unet.send(self, *epA, fragmentSend(chanA, {0, 500}));
    });

    epA = &star[0].unet.createEndpoint(&tx, {});
    epB = &star[1].unet.createEndpoint(&rx, {});
    UNetAtm::connect(star[0].unet, *epA, star.ports[0], star[1].unet,
                     *epB, star.ports[1], star.signalling, chanA, chanB);

    rx.start();
    tx.start(1_us);
    s.run();

    EXPECT_FALSE(received);
    EXPECT_EQ(star[1].nic.noBufferDrops(), 1u);
    EXPECT_EQ(star[1].nic.messagesDelivered(), 0u);
}

TEST(UNetAtm, ProtectionFaultOnForeignEndpoint)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    sim::Process owner(s, "owner", [](sim::Process &) {});
    Endpoint *epA = &star[0].unet.createEndpoint(&owner, {});
    Endpoint *epB = &star[1].unet.createEndpoint(&owner, {});
    ChannelId chanA, chanB;
    UNetAtm::connect(star[0].unet, *epA, star.ports[0], star[1].unet,
                     *epB, star.ports[1], star.signalling, chanA, chanB);

    sim::Process intruder(s, "intruder", [&](sim::Process &self) {
        auto data = pattern(8);
        EXPECT_FALSE(star[0].unet.send(self, *epA,
                                       inlineSend(chanA, data)));
    });
    intruder.start();
    s.run();
    EXPECT_EQ(star[0].unet.protectionFaults(), 1u);
}

TEST(UNetAtm, HostSendOverheadIsOnePointFive)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    Endpoint *epA = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    sim::Tick elapsed = -1;

    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto data = pattern(40);
        sim::Tick t0 = s.now();
        star[0].unet.send(self, *epA, inlineSend(chanA, data));
        elapsed = s.now() - t0;
    });

    epA = &star[0].unet.createEndpoint(&tx, {});
    Endpoint *epB = &star[1].unet.createEndpoint(&tx, {});
    UNetAtm::connect(star[0].unet, *epA, star.ports[0], star[1].unet,
                     *epB, star.ports[1], star.signalling, chanA, chanB);
    tx.start();
    s.run();

    // "the processor overhead for sending a 40-byte message on
    // U-Net/ATM is about 1.5 usec" — an order less than U-Net/FE.
    EXPECT_NEAR(sim::toMicroseconds(elapsed), 1.5, 0.1);
}

TEST(UNetAtm, I960CarriesTheWork)
{
    sim::Simulation s;
    AtmStar star(s, 2);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        RecvDescriptor got;
        epB->wait(self, got, 10_ms);
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto data = pattern(40);
        star[0].unet.send(self, *epA, inlineSend(chanA, data));
    });

    epA = &star[0].unet.createEndpoint(&tx, {});
    epB = &star[1].unet.createEndpoint(&rx, {});
    UNetAtm::connect(star[0].unet, *epA, star.ports[0], star[1].unet,
                     *epB, star.ports[1], star.signalling, chanA, chanB);
    rx.start();
    tx.start();
    s.run();

    // "the i960 overhead is about 10 usec" on send and ~13 us receive.
    EXPECT_NEAR(sim::toMicroseconds(star[0].nic.i960().busyTime()), 10.0,
                1.0);
    EXPECT_NEAR(sim::toMicroseconds(star[1].nic.i960().busyTime()), 13.0,
                1.0);
}

TEST(UNetAtm, ManyMessagesInterleaveAcrossChannels)
{
    sim::Simulation s;
    AtmStar star(s, 3);

    // Node 0 talks to nodes 1 and 2 from one endpoint via two channels.
    Endpoint *ep0 = nullptr, *ep1 = nullptr, *ep2 = nullptr;
    ChannelId c01 = invalidChannel, c10 = invalidChannel;
    ChannelId c02 = invalidChannel, c20 = invalidChannel;

    int got1 = 0, got2 = 0;
    sim::Process rx1(s, "rx1", [&](sim::Process &self) {
        RecvDescriptor rd;
        while (ep1->wait(self, rd, 2_ms))
            ++got1;
    });
    sim::Process rx2(s, "rx2", [&](sim::Process &self) {
        RecvDescriptor rd;
        while (ep2->wait(self, rd, 2_ms))
            ++got2;
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto data = pattern(32);
        for (int i = 0; i < 10; ++i) {
            star[0].unet.send(self, *ep0, inlineSend(c01, data));
            star[0].unet.send(self, *ep0, inlineSend(c02, data));
        }
    });

    ep0 = &star[0].unet.createEndpoint(&tx, {});
    ep1 = &star[1].unet.createEndpoint(&rx1, {});
    ep2 = &star[2].unet.createEndpoint(&rx2, {});
    UNetAtm::connect(star[0].unet, *ep0, star.ports[0], star[1].unet,
                     *ep1, star.ports[1], star.signalling, c01, c10);
    UNetAtm::connect(star[0].unet, *ep0, star.ports[0], star[2].unet,
                     *ep2, star.ports[2], star.signalling, c02, c20);

    rx1.start();
    rx2.start();
    tx.start();
    s.run();
    EXPECT_EQ(got1, 10);
    EXPECT_EQ(got2, 10);
}

TEST(UNetAtm, DirectLinkWithoutSwitch)
{
    // Two adapters sharing one fiber, no switch in between.
    sim::Simulation s;
    host::Host hostA(s, "a", host::CpuSpec::pentium120(),
                     host::BusSpec::pci());
    host::Host hostB(s, "b", host::CpuSpec::pentium120(),
                     host::BusSpec::pci());
    atm::AtmLink link(s, atm::LinkSpec::oc3());
    nic::Pca200 nicA(hostA, link), nicB(hostB, link);
    UNetAtm ua(hostA, nicA), ub(hostB, nicB);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    bool received = false;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        RecvDescriptor rd;
        received = epB->wait(self, rd, 5_ms);
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto data = pattern(20);
        ua.send(self, *epA, inlineSend(chanA, data));
    });

    epA = &ua.createEndpoint(&tx, {});
    epB = &ub.createEndpoint(&rx, {});
    UNetAtm::connectDirect(ua, *epA, ub, *epB, 40, chanA, chanB);

    rx.start();
    tx.start();
    s.run();
    EXPECT_TRUE(received);
}
