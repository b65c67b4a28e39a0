/**
 * @file
 * Unit tests for the fault-injection plane: scenario-string grammar,
 * pattern matching / arming semantics, and the deterministic decision
 * streams of the individual fault models.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.hh"

using namespace unet;
using namespace unet::fault;

namespace {

/** Collect @p n decisions from a fresh injector. */
std::vector<Decision>
stream(const ModelSpec &spec, std::uint64_t seed, int n,
       std::size_t unit_bits = 12000, const char *site = "test.site")
{
    sim::Simulation s;
    Injector inj(s, site, spec, seed);
    std::vector<Decision> out;
    for (int i = 0; i < n; ++i)
        out.push_back(inj.decide(unit_bits));
    return out;
}

bool
sameStream(const std::vector<Decision> &a,
           const std::vector<Decision> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].drop != b[i].drop || a[i].corrupt != b[i].corrupt ||
            a[i].corruptBit != b[i].corruptBit ||
            a[i].duplicate != b[i].duplicate || a[i].delay != b[i].delay)
            return false;
    return true;
}

} // namespace

TEST(FaultModel, InertByDefault)
{
    ModelSpec m;
    EXPECT_TRUE(m.inert());
    m.drop = 0.1;
    EXPECT_FALSE(m.inert());
    m = {};
    m.dropUnits = {3};
    EXPECT_FALSE(m.inert());
    m = {};
    m.gilbert = true;
    EXPECT_FALSE(m.inert());
}

TEST(FaultModel, DropUnitsAreExact)
{
    ModelSpec m;
    m.dropUnits = {5, 0, 2}; // unsorted on purpose
    auto s = stream(m, 1, 8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(s[i].drop, i == 0 || i == 2 || i == 5) << "unit " << i;
}

TEST(FaultModel, DropEveryNth)
{
    ModelSpec m;
    m.dropEvery = 5; // drops 0-based units 4, 9, 14, ...
    auto s = stream(m, 1, 15);
    for (int i = 0; i < 15; ++i)
        EXPECT_EQ(s[i].drop, (i + 1) % 5 == 0) << "unit " << i;
}

TEST(FaultModel, DeterministicDropsConsumeNoRandomness)
{
    // A Bernoulli stream must be unchanged by adding dropUnits on top:
    // surgical drops may not shift the random draws of everything else.
    ModelSpec bern;
    bern.drop = 0.3;
    ModelSpec both = bern;
    both.dropUnits = {2, 7};
    auto a = stream(bern, 9, 50);
    auto b = stream(both, 9, 50);
    for (int i = 0; i < 50; ++i) {
        if (i != 2 && i != 7) {
            EXPECT_EQ(a[i].drop, b[i].drop) << "unit " << i;
        }
    }
    EXPECT_TRUE(b[2].drop);
    EXPECT_TRUE(b[7].drop);
}

TEST(FaultModel, BernoulliRateIsRoughlyHonored)
{
    ModelSpec m;
    m.drop = 0.2;
    sim::Simulation s;
    Injector inj(s, "test.site", m, 7);
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        inj.decide(8000);
    EXPECT_EQ(inj.units(), static_cast<std::uint64_t>(n));
    EXPECT_GT(inj.dropped(), n * 0.15);
    EXPECT_LT(inj.dropped(), n * 0.25);
}

TEST(FaultModel, GilbertElliottLossIsBursty)
{
    // Stationary bad fraction = gtb/(gtb+btg) = 0.2; mean drop-run
    // length ~ 1/btg = 5, far above the ~1.25 an independent Bernoulli
    // process of equal rate would show.
    ModelSpec m;
    m.gilbert = true;
    m.goodToBad = 0.05;
    m.badToGood = 0.2;
    m.badLoss = 1.0;
    auto s = stream(m, 3, 20000);
    int drops = 0, runs = 0;
    bool in_run = false;
    for (const auto &d : s) {
        drops += d.drop;
        if (d.drop && !in_run)
            ++runs;
        in_run = d.drop;
    }
    double rate = static_cast<double>(drops) / s.size();
    EXPECT_GT(rate, 0.1);
    EXPECT_LT(rate, 0.35);
    double mean_run = static_cast<double>(drops) / runs;
    EXPECT_GT(mean_run, 2.5);
}

TEST(FaultModel, CorruptBitStaysInsideTheUnit)
{
    ModelSpec m;
    m.corrupt = 1.0;
    auto s = stream(m, 11, 200, 512);
    for (const auto &d : s) {
        EXPECT_TRUE(d.corrupt);
        EXPECT_LT(d.corruptBit, 512u);
    }
}

TEST(FaultModel, DroppedUnitSuffersNothingElse)
{
    ModelSpec m;
    m.drop = 1.0;
    m.corrupt = 1.0;
    m.duplicate = 1.0;
    m.reorder = 1.0;
    auto s = stream(m, 5, 20);
    for (const auto &d : s) {
        EXPECT_TRUE(d.drop);
        EXPECT_FALSE(d.corrupt);
        EXPECT_FALSE(d.duplicate);
        EXPECT_EQ(d.delay, 0);
    }
}

TEST(FaultModel, ReorderAndJitterProduceBoundedDelay)
{
    ModelSpec m;
    m.reorder = 1.0;
    m.reorderDelay = sim::microseconds(250);
    m.jitterMax = sim::microseconds(10);
    auto s = stream(m, 13, 100);
    for (const auto &d : s) {
        EXPECT_GE(d.delay, sim::microseconds(250));
        EXPECT_LE(d.delay,
                  sim::microseconds(250) + sim::microseconds(10));
    }
}

TEST(FaultDeterminism, SameSeedSameStream)
{
    ModelSpec m;
    m.drop = 0.1;
    m.corrupt = 0.05;
    m.duplicate = 0.03;
    m.reorder = 0.07;
    m.jitterMax = sim::microseconds(5);
    EXPECT_TRUE(sameStream(stream(m, 42, 500), stream(m, 42, 500)));
    EXPECT_FALSE(sameStream(stream(m, 42, 500), stream(m, 43, 500)));
}

TEST(FaultDeterminism, StreamDependsOnSiteNotArmOrder)
{
    // Two plans arming the same sites in opposite orders must hand each
    // site the identical decision stream: the injector RNG is seeded
    // from (plan seed, site name) only.
    ModelSpec m;
    m.drop = 0.25;

    auto drops = [&](bool reverse) {
        sim::Simulation s;
        Plan plan;
        plan.setSeed(99);
        plan.model("a.site") = m;
        plan.model("b.site") = m;
        Injector *a, *b;
        if (reverse) {
            b = plan.arm(s, "b.site");
            a = plan.arm(s, "a.site");
        } else {
            a = plan.arm(s, "a.site");
            b = plan.arm(s, "b.site");
        }
        std::vector<bool> out;
        for (int i = 0; i < 200; ++i)
            out.push_back(a->decide(8000).drop);
        for (int i = 0; i < 200; ++i)
            out.push_back(b->decide(8000).drop);
        return out;
    };
    EXPECT_EQ(drops(false), drops(true));
}

TEST(FaultPlan, ArmMatchesExactAndWildcard)
{
    sim::Simulation s;
    Plan plan;
    plan.model("eth.link.0").drop = 0.5;
    plan.model("atm.*").corrupt = 0.01;

    Injector *exact = plan.arm(s, "eth.link.0");
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(exact->model().drop, 0.5);

    Injector *wild = plan.arm(s, "atm.link.3.1");
    ASSERT_NE(wild, nullptr);
    EXPECT_EQ(wild->model().corrupt, 0.01);

    EXPECT_EQ(plan.arm(s, "eth.link.1"), nullptr);
    EXPECT_EQ(plan.arm(s, "nic.fe.rx"), nullptr);
    EXPECT_EQ(plan.armed().size(), 2u);
}

TEST(FaultPlan, LongestPatternWinsAndExactBeatsWildcard)
{
    sim::Simulation s;
    Plan plan;
    plan.model("*").drop = 0.1;
    plan.model("eth.*").drop = 0.2;
    plan.model("eth.link.*").drop = 0.3;
    plan.model("eth.link.0").drop = 0.4;

    EXPECT_EQ(plan.arm(s, "eth.link.0")->model().drop, 0.4);
    EXPECT_EQ(plan.arm(s, "eth.link.1")->model().drop, 0.3);
    EXPECT_EQ(plan.arm(s, "eth.hub")->model().drop, 0.2);
    EXPECT_EQ(plan.arm(s, "atm.switch")->model().drop, 0.1);
}

TEST(FaultPlan, InertModelArmsNothing)
{
    sim::Simulation s;
    Plan plan;
    EXPECT_TRUE(plan.empty());
    plan.model("eth.link.0"); // created but left inert
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(plan.arm(s, "eth.link.0"), nullptr);
    plan.model("eth.link.0").drop = 0.1;
    EXPECT_FALSE(plan.empty());
    EXPECT_NE(plan.arm(s, "eth.link.0"), nullptr);
}

TEST(FaultPlan, ParseFullGrammar)
{
    sim::Simulation s; // outlives the plan (armed metrics)
    Plan plan = Plan::parse(
        "seed=9 eth.link.0.drop=0.25, atm.*.corrupt=0.001;\n"
        "eth.hub.ge=0.01/0.2/0.9/0.05\teth.switch.dup=0.5 "
        "nic.fe.rx.drop_every=7 "
        "eth.link.1.reorder=0.1 eth.link.1.reorder_delay_us=250 "
        "eth.link.1.jitter_us=12.5");
    EXPECT_EQ(plan.seed(), 9u);
    EXPECT_EQ(plan.arm(s, "eth.link.0")->model().drop, 0.25);
    EXPECT_EQ(plan.arm(s, "atm.switch")->model().corrupt, 0.001);

    const ModelSpec &hub = plan.arm(s, "eth.hub")->model();
    EXPECT_TRUE(hub.gilbert);
    EXPECT_EQ(hub.goodToBad, 0.01);
    EXPECT_EQ(hub.badToGood, 0.2);
    EXPECT_EQ(hub.badLoss, 0.9);
    EXPECT_EQ(hub.goodLoss, 0.05);

    EXPECT_EQ(plan.arm(s, "eth.switch")->model().duplicate, 0.5);
    EXPECT_EQ(plan.arm(s, "nic.fe.rx")->model().dropEvery, 7u);

    const ModelSpec &l1 = plan.arm(s, "eth.link.1")->model();
    EXPECT_EQ(l1.reorder, 0.1);
    EXPECT_EQ(l1.reorderDelay, sim::microseconds(250));
    EXPECT_EQ(l1.jitterMax, sim::microsecondsF(12.5));
}

TEST(FaultPlan, ParseGeDefaultsGoodLossToZero)
{
    sim::Simulation s; // outlives the plan (armed metrics)
    Plan plan = Plan::parse("x.ge=0.02/0.5/1.0");
    const ModelSpec &m = plan.arm(s, "x")->model();
    EXPECT_TRUE(m.gilbert);
    EXPECT_EQ(m.goodLoss, 0.0);
    EXPECT_EQ(m.badLoss, 1.0);
}

TEST(FaultPlan, ParseEmptyScenarioIsEmptyPlan)
{
    Plan plan = Plan::parse("");
    EXPECT_TRUE(plan.empty());
    Plan ws = Plan::parse("  \n\t, ;");
    EXPECT_TRUE(ws.empty());
}

TEST(FaultPlanDeathTest, MalformedScenariosAreFatal)
{
    EXPECT_EXIT(Plan::parse("bogus"), ::testing::ExitedWithCode(1),
                "fault plan");
    EXPECT_EXIT(Plan::parse("eth.link.0.drop=lots"),
                ::testing::ExitedWithCode(1), "fault plan");
    EXPECT_EXIT(Plan::parse("eth.link.0.frobnicate=1"),
                ::testing::ExitedWithCode(1), "fault plan");
    EXPECT_EXIT(Plan::parse("x.ge=0.1/0.2"),
                ::testing::ExitedWithCode(1), "fault plan");
}

TEST(FaultMetrics, CountersLandInTheRegistry)
{
    sim::Simulation s;
    {
        ModelSpec m;
        m.dropUnits = {0, 1};
        m.corrupt = 1.0;
        Injector inj(s, "eth.link.0", m, 1);
        for (int i = 0; i < 5; ++i)
            inj.decide(8000);
        EXPECT_EQ(inj.units(), 5u);
        EXPECT_EQ(inj.dropped(), 2u);
        EXPECT_EQ(inj.corrupted(), 3u);

        bool found = false;
        for (const auto &[name, value] : s.metrics().dump())
            if (name == "fault.eth.link.0.dropped") {
                found = true;
                EXPECT_EQ(value, 2.0);
            }
        EXPECT_TRUE(found);
    }
}

TEST(FaultMetrics, FlipBitTouchesExactlyOneBit)
{
    std::vector<std::uint8_t> bytes(16, 0);
    flipBit(bytes, 0);
    EXPECT_EQ(bytes[0], 0x01);
    flipBit(bytes, 0);
    EXPECT_EQ(bytes[0], 0x00);
    flipBit(bytes, 8 * 15 + 7);
    EXPECT_EQ(bytes[15], 0x80);
    flipBit(bytes, 8 * 16 + 3); // out of range wraps, never UB
    EXPECT_EQ(bytes[0], 0x08);
}
