/**
 * @file
 * Loss-hardened reliability soak: Active Messages driven across seeded
 * fault matrices (drop, Gilbert-Elliott burst, corruption, reordering,
 * duplication). Every scenario must end with exactly-once in-order
 * delivery, terminated drains, and books that reconcile: wire faults
 * vs. retransmissions, corrupted units vs. FCS/CRC drop counters.
 *
 * These tests carry the `fault-soak` ctest label; the CI fault-soak job
 * runs them across the seed matrix.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "am/active_messages.hh"
#include "fault/attach.hh"
#include "fault/fault.hh"
#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::am;
using namespace unet::test;

namespace {

struct Scenario
{
    const char *name;
    const char *spec; ///< Plan::parse scenario string
};

constexpr Scenario feScenarios[] = {
    {"drop", "eth.link.*.drop=0.15"},
    {"burst", "eth.link.*.ge=0.02/0.25/1.0"},
    {"corrupt", "eth.link.*.corrupt=0.08"},
    {"reorder",
     "eth.link.*.reorder=0.25 eth.link.*.reorder_delay_us=200 "
     "eth.link.*.jitter_us=20"},
    {"mixed",
     "eth.link.*.drop=0.08 eth.link.*.corrupt=0.04 "
     "eth.link.*.dup=0.1 eth.link.*.reorder=0.1 "
     "eth.link.*.reorder_delay_us=150"},
};

} // namespace

class FaultSoak
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(FaultSoak, BidirectionalAmSurvivesScenario)
{
    auto [scenario_index, seed] = GetParam();
    const Scenario &sc = feScenarios[scenario_index];

    sim::Simulation s(seed);
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    fault::Plan plan = fault::Plan::parse(sc.spec);
    plan.setSeed(seed * 1000 + 7);
    fault::attach(plan, s, link);
    ASSERT_EQ(plan.armed().size(), 2u) << sc.name;

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    const int total = 40;
    int gotA = 0, gotB = 0;
    int nextA = 0, nextB = 0;
    bool orderA = true, orderB = true;
    bool intactA = true, intactB = true;
    int drained = 0;

    auto body = [&](std::unique_ptr<ActiveMessages> &mine,
                    ChannelId &chan, int &got, int &next, bool &order,
                    bool &intact) {
        return [&](sim::Process &proc) {
            mine->setHandler(
                1, [&](sim::Process &, Token, const Args &args,
                       std::span<const std::uint8_t> payload) {
                    if (static_cast<int>(args[0]) != next)
                        order = false;
                    auto want =
                        pattern(64, static_cast<std::uint8_t>(next));
                    if (payload.size() != want.size() ||
                        !std::equal(want.begin(), want.end(),
                                    payload.begin()))
                        intact = false;
                    ++next;
                    ++got;
                });
            for (int i = 0; i < total; ++i) {
                auto payload =
                    pattern(64, static_cast<std::uint8_t>(i));
                ASSERT_TRUE(mine->request(
                    proc, chan, 1, {static_cast<Word>(i), 0, 0, 0},
                    payload));
            }
            EXPECT_TRUE(mine->pollUntil(
                proc, [&] { return got >= total; }, sim::seconds(10)));
            EXPECT_TRUE(mine->drain(proc, sim::seconds(10)));
            // Keep servicing ACKs until the peer drains too.
            ++drained;
            mine->pollUntil(proc, [&] { return drained >= 2; },
                            sim::seconds(10));
            mine->pollUntil(proc, [] { return false; },
                            sim::milliseconds(5));
        };
    };

    sim::Process procA(s, "A",
                       body(amA, chanA, gotA, nextA, orderA, intactA));
    sim::Process procB(s, "B",
                       body(amB, chanB, gotB, nextB, orderB, intactB));

    epA = &a.unet.createEndpoint(&procA, {});
    epB = &b.unet.createEndpoint(&procB, {});
    UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);
    amA = std::make_unique<ActiveMessages>(a.unet, *epA);
    amB = std::make_unique<ActiveMessages>(b.unet, *epB);
    amA->openChannel(chanA);
    amB->openChannel(chanB);
    procA.start();
    procB.start();
    s.run();

    // Exactly-once, in-order, intact — no handler re-execution on
    // duplicates, no holes, no reordering leaking through.
    EXPECT_EQ(gotA, total) << sc.name << " seed=" << seed;
    EXPECT_EQ(gotB, total) << sc.name << " seed=" << seed;
    EXPECT_TRUE(orderA);
    EXPECT_TRUE(orderB);
    EXPECT_TRUE(intactA);
    EXPECT_TRUE(intactB);
    EXPECT_EQ(amA->deadChannels(), 0u);
    EXPECT_EQ(amB->deadChannels(), 0u);

    // The books reconcile: every unit the plane destroyed had to be
    // repaired by a retransmission, and every corrupted frame was
    // caught (and counted) by the receive-side FCS check.
    std::uint64_t destroyed = 0, corrupted = 0;
    for (const auto &inj : plan.armed()) {
        destroyed += inj->dropped() + inj->corrupted();
        corrupted += inj->corrupted();
    }
    if (destroyed > 0) {
        EXPECT_GT(amA->retransmits() + amB->retransmits(), 0u)
            << sc.name << " seed=" << seed;
    }
    EXPECT_EQ(a.unet.rxBadFrame() + b.unet.rxBadFrame(), corrupted)
        << sc.name << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, FaultSoak,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto &info) {
        return std::string(feScenarios[std::get<0>(info.param)].name) +
            "_seed" + std::to_string(std::get<1>(info.param));
    });

class FaultSoakAtm : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FaultSoakAtm, BulkStoreSurvivesBurstLossAndCorruption)
{
    std::uint64_t seed = GetParam();
    sim::Simulation s(seed);
    AtmStar star(s, 2);

    fault::Plan plan = fault::Plan::parse(
        "atm.link.a.*.ge=0.01/0.3/1.0 atm.link.b.*.corrupt=0.01 "
        "atm.switch.drop=0.005");
    plan.setSeed(seed);
    fault::attach(plan, s, star[0].link, ".a");
    fault::attach(plan, s, star[1].link, ".b");
    fault::attach(plan, s, star.sw);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    std::vector<std::uint8_t> sink(30000, 0);
    bool done = false;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setBulkSink([&](std::uint32_t addr,
                             std::span<const std::uint8_t> d) {
            std::copy(d.begin(), d.end(), sink.begin() + addr);
        });
        amB->setHandler(2, [&](sim::Process &, Token, const Args &,
                               std::span<const std::uint8_t>) {
            done = true;
        });
        amB->pollUntil(proc, [&] { return done; }, sim::seconds(10));
        amB->pollUntil(proc, [] { return false; },
                       sim::milliseconds(5));
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        auto data = pattern(25000, 3);
        ASSERT_TRUE(amA->store(proc, chanA, 500, data, 2));
        EXPECT_TRUE(amA->drain(proc, sim::seconds(10)));
    });

    epA = &star[0].unet.createEndpoint(&procA, {});
    epB = &star[1].unet.createEndpoint(&procB, {});
    UNetAtm::connect(star[0].unet, *epA, star.ports[0], star[1].unet,
                     *epB, star.ports[1], star.signalling, chanA,
                     chanB);
    // A 4 KB bulk fragment spans ~86 cells — with per-cell burst loss
    // nearly every fragment is hit. Tune the MTU down, as a real
    // deployment on a lossy link would.
    AmSpec spec;
    spec.bulkMtu = 1024;
    amA = std::make_unique<ActiveMessages>(star[0].unet, *epA, spec);
    amB = std::make_unique<ActiveMessages>(star[1].unet, *epB, spec);
    amA->openChannel(chanA);
    amB->openChannel(chanB);
    procA.start();
    procB.start();
    s.run();

    ASSERT_TRUE(done) << "seed=" << seed;
    auto want = pattern(25000, 3);
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           sink.begin() + 500))
        << "seed=" << seed;
    EXPECT_EQ(amA->deadChannels(), 0u);

    // Reconcile: AAL5 counts one crcDrop per failed PDU, and a PDU can
    // only fail because at least one of its cells was destroyed — so
    // the CRC-drop total is positive when cells were corrupted and
    // never exceeds the number of destroyed cells.
    std::uint64_t corrupted = 0, dropped = 0;
    for (const auto &inj : plan.armed()) {
        corrupted += inj->corrupted();
        dropped += inj->dropped();
    }
    std::uint64_t crc_drops =
        star[0].nic.crcDrops() + star[1].nic.crcDrops();
    if (corrupted > 0) {
        EXPECT_GT(crc_drops, 0u) << "seed=" << seed;
    }
    EXPECT_LE(crc_drops, dropped + corrupted);
    if (dropped + corrupted > 0) {
        EXPECT_GT(amA->retransmits() + amB->retransmits(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSoakAtm,
                         ::testing::Values(1u, 2u, 3u));
