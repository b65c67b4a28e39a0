/**
 * @file
 * Tests of the topology builder: every fabric carries traffic between
 * two connected nodes, attachFaults() arms the site names the fault
 * scenarios use, and the node list order decides the metric prefixes.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "fault/fault.hh"
#include "sim/process.hh"
#include "topo/topology.hh"

using namespace unet;

namespace {

topo::NodeSpec
node(std::string name, std::uint32_t mac, std::string suffix = "")
{
    topo::NodeSpec n;
    n.name = std::move(name);
    n.mac = mac;
    n.faultSuffix = std::move(suffix);
    return n;
}

/**
 * Open a channel between nodes @p i and @p j, send one inline message
 * each way (i first), and return how many of the two arrived.
 */
int
exchange(sim::Simulation &s, topo::Topology &t, int i, int j,
         atm::Vci vci = 0)
{
    const int at[2] = {i, j};
    Endpoint *ep[2] = {};
    ChannelId chan[2] = {invalidChannel, invalidChannel};
    int received = 0;
    auto body = [&](sim::Process &self, int side) {
        std::array<std::uint8_t, 24> data{};
        data[0] = static_cast<std::uint8_t>(side + 1);
        UNet &un = t.unet(at[side]);
        EXPECT_TRUE(un.send(self, *ep[side], inlineSend(chan[side], data)));
        un.flush(self, *ep[side]);
        RecvDescriptor rd;
        if (ep[side]->wait(self, rd, sim::milliseconds(5)) &&
            rd.length == data.size() && rd.inlineData[0] == 2 - side)
            ++received;
    };
    sim::Process p0(s, "p0", [&](sim::Process &self) { body(self, 0); });
    sim::Process p1(s, "p1", [&](sim::Process &self) { body(self, 1); });
    ep[0] = &t.unet(i).createEndpoint(&p0, {});
    ep[1] = &t.unet(j).createEndpoint(&p1, {});
    t.connect(i, *ep[0], j, *ep[1], chan[0], chan[1], vci);
    p0.start(sim::microseconds(1));
    p1.start(sim::microseconds(50));
    s.run();
    return received;
}

TEST(Topology, EveryFabricCarriesOneMessageEachWay)
{
    const topo::Fabric fabrics[] = {
        eth::HubSpec{},
        eth::SwitchSpec::bay28115(),
        topo::EthLinkSpec{},
        atm::SwitchSpec::asx200(),
        atm::LinkSpec::oc3(),
    };
    for (const topo::Fabric &fabric : fabrics) {
        SCOPED_TRACE(fabric.index());
        sim::Simulation s;
        topo::Topology t(s, {fabric, {node("A", 1), node("B", 2)}});
        EXPECT_EQ(t.size(), 2);
        EXPECT_EQ(t.isAtm(), fabric.index() >= 3);
        EXPECT_EQ(t.host(1).name(), "B");
        EXPECT_EQ(exchange(s, t, 0, 1, 10), 2);
    }
}

/** A serving-rig shape: the server ".s", then clients ".c0".."c3". */
topo::Spec
servingStar(topo::Fabric fabric)
{
    topo::Spec spec{std::move(fabric), {node("server", 1, ".s")}};
    for (std::uint32_t i = 0; i < 4; ++i)
        spec.nodes.push_back(node("c" + std::to_string(i), i + 2,
                                  ".c" + std::to_string(i)));
    return spec;
}

TEST(Topology, AttachFaultsArmsTheScenarioSites)
{
    struct Case
    {
        const char *site;
        topo::Spec spec;
        int i, j; ///< the two nodes that trade messages
    };
    const topo::Spec fePair{eth::SwitchSpec::bay28115(),
                            {node("A", 1, ".a"), node("B", 2, ".b")}};
    const topo::Spec feStar = servingStar(eth::SwitchSpec::bay28115());
    const topo::Spec atmStar = servingStar(atm::SwitchSpec::asx200());
    // Direction 0 of a node's ATM link carries the node's own cells.
    const Case cases[] = {
        {"nic.fe.rx.a", fePair, 0, 1},
        {"eth.switch", feStar, 4, 0},
        {"atm.link.c3.0", atmStar, 4, 0},
        {"atm.link.s.0", atmStar, 1, 0},
        {"atm.switch", atmStar, 2, 0},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.site);
        sim::Simulation s;
        fault::Plan plan;
        plan.model(c.site).dropUnits = {0};
        topo::Topology t(s, c.spec);
        t.attachFaults(plan);

        // Armed under the canonical name, once.
        ASSERT_EQ(plan.armed().size(), 1u);
        EXPECT_EQ(plan.armed().front()->site(), c.site);

        // The first unit through the site is lost: one message of two.
        EXPECT_EQ(exchange(s, t, c.i, c.j), 1);
        EXPECT_EQ(plan.armed().front()->dropped(), 1u);
    }
}

TEST(Topology, NodeOrderNumbersTheMetricPrefixes)
{
    // Three ATM nodes, traffic only between "x" and "y": the idle
    // node's link reads zero cells under whichever prefix its list
    // position earned it.
    for (bool idle_first : {false, true}) {
        SCOPED_TRACE(idle_first);
        sim::Simulation s;
        topo::Spec spec{atm::SwitchSpec::asx200(), {}};
        if (idle_first)
            spec.nodes.push_back(node("idle", 0));
        spec.nodes.push_back(node("x", 0));
        spec.nodes.push_back(node("y", 0));
        if (!idle_first)
            spec.nodes.push_back(node("idle", 0));
        topo::Topology t(s, std::move(spec));
        int x = idle_first ? 1 : 0;
        ASSERT_EQ(exchange(s, t, x, x + 1), 2);

        const obs::Registry &m = s.metrics();
        const char *idle = idle_first ? "atm.link" : "atm.link#3";
        const char *busy = idle_first ? "atm.link#3" : "atm.link";
        EXPECT_EQ(m.value(std::string(idle) + ".cellsDelivered"), 0.0);
        EXPECT_GT(m.value(std::string(busy) + ".cellsDelivered"), 0.0);
        EXPECT_GT(m.value("atm.link#2.cellsDelivered"), 0.0);
    }
}

} // namespace
