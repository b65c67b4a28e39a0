/**
 * @file
 * Tests of the schedule-space model checker: exhaustive exploration
 * finds the planted order-dependence bug that a hundred perturbation
 * salts miss, and a serialized counterexample replays bit-for-bit.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "check/explore/explore.hh"
#include "check/explore/replay.hh"

namespace explore = unet::check::explore;

namespace {

const explore::Config &
config(const char *name)
{
    const explore::Config *c = explore::findConfig(name);
    if (!c)
        throw std::runtime_error(std::string("unknown config ") +
                                 name);
    return *c;
}

// --- the seeded interleaving bug -------------------------------------

/** Perturbation salts 0..100 — the whole range a CI matrix plausibly
 *  sweeps — all miss the planted credit double-return. */
TEST(ExploreSeededBug, SaltsMissIt)
{
    const explore::Config &c = config("seeded-credit-bug");
    for (std::uint64_t salt = 0; salt <= 100; ++salt) {
        explore::RunOutcome out = explore::runSalted(c, salt);
        EXPECT_FALSE(out.violated)
            << "salt " << salt << " unexpectedly hit the planted "
            << "bug: " << out.message;
        EXPECT_EQ(out.steps, 6u) << "salt " << salt;
    }
}

// The oracle of the tests below is the "credit underflow" panic, which
// check/credits.hh compiles out when UNET_CHECK is OFF: the planted bug
// then has nothing to trip.
#if defined(UNET_CHECK) && UNET_CHECK

/** Exhaustive exploration finds it, with the full 6-event permutation
 *  space enumerated when the search is not stopped early. */
TEST(ExploreSeededBug, ExplorationFindsIt)
{
    const explore::Config &c = config("seeded-credit-bug");
    explore::Result res = explore::explore(c);
    ASSERT_EQ(res.violations.size(), 1u);
    EXPECT_NE(res.violations[0].message.find("credit underflow"),
              std::string::npos)
        << res.violations[0].message;
    EXPECT_FALSE(res.complete); // stopped at the violation
    EXPECT_EQ(res.maxEligible, 6u);
    EXPECT_FALSE(res.violations[0].schedule.empty());
}

/** With keep-going and no pruning the space is exactly 6! = 720
 *  schedules, of which exactly one is the planted violation. */
TEST(ExploreSeededBug, FullSpaceIs720Schedules)
{
    const explore::Config &c = config("seeded-credit-bug");
    explore::Options opts;
    opts.prune = false; // every permutation is a distinct end state
    opts.stopAtFirstViolation = false;
    explore::Result res = explore::explore(c, opts);
    EXPECT_EQ(res.runs, 720u);
    EXPECT_EQ(res.prunedRuns, 0u);
    EXPECT_EQ(res.violations.size(), 1u);
    // complete stays false on any violation: a violated run aborts
    // mid-schedule, so in general its suffix subtree was not covered.
    EXPECT_FALSE(res.complete);
}

/** The recorded counterexample re-executes to the same violation. */
TEST(ExploreSeededBug, CounterexampleReplays)
{
    const explore::Config &c = config("seeded-credit-bug");
    explore::Result res = explore::explore(c);
    ASSERT_EQ(res.violations.size(), 1u);
    const explore::Violation &v = res.violations[0];

    explore::RunOutcome out = explore::runSchedule(c, v.schedule);
    EXPECT_TRUE(out.violated);
    EXPECT_EQ(out.message, v.message);

    // Replay is deterministic: run it twice, get the identical
    // decision trace and end-state digest.
    explore::RunOutcome again = explore::runSchedule(c, v.schedule);
    EXPECT_EQ(again.violated, out.violated);
    EXPECT_EQ(again.message, out.message);
    EXPECT_EQ(again.digest, out.digest);
    ASSERT_EQ(again.schedule.size(), out.schedule.size());
    for (std::size_t i = 0; i < out.schedule.size(); ++i) {
        EXPECT_EQ(again.schedule[i].index, out.schedule[i].index);
        EXPECT_EQ(again.schedule[i].seq, out.schedule[i].seq);
    }
}

// --- replay file round-trip ------------------------------------------

TEST(ExploreReplayFile, RoundTrip)
{
    const explore::Config &c = config("seeded-credit-bug");
    explore::Result res = explore::explore(c);
    ASSERT_EQ(res.violations.size(), 1u);
    const explore::Violation &v = res.violations[0];

    std::ostringstream os;
    explore::writeReplay(os, c.name(), 0, v.message, v.schedule);
    std::istringstream is(os.str());
    auto replay = explore::readReplay(is);
    ASSERT_TRUE(replay.has_value());
    EXPECT_EQ(replay->config, c.name());
    EXPECT_EQ(replay->configSalt, 0u);
    ASSERT_EQ(replay->schedule.size(), v.schedule.size());
    for (std::size_t i = 0; i < v.schedule.size(); ++i) {
        EXPECT_EQ(replay->schedule[i].step, v.schedule[i].step);
        EXPECT_EQ(replay->schedule[i].when, v.schedule[i].when);
        EXPECT_EQ(replay->schedule[i].width, v.schedule[i].width);
        EXPECT_EQ(replay->schedule[i].index, v.schedule[i].index);
        EXPECT_EQ(replay->schedule[i].seq, v.schedule[i].seq);
    }

    // The deserialized schedule still reproduces the violation.
    explore::RunOutcome out =
        explore::runSchedule(c, replay->schedule, replay->configSalt);
    EXPECT_TRUE(out.violated);
    EXPECT_EQ(out.message, v.message);
}

#endif // UNET_CHECK

TEST(ExploreReplayFile, RejectsMalformedInput)
{
    std::istringstream bad_magic("not-a-replay\nconfig x\n");
    EXPECT_FALSE(explore::readReplay(bad_magic).has_value());

    std::istringstream no_config(
        "unet-explore-replay v1\ndecisions 0\n");
    EXPECT_FALSE(explore::readReplay(no_config).has_value());

    std::istringstream truncated(
        "unet-explore-replay v1\nconfig fig5\nsalt 0\n"
        "decisions 2\n0 10 2 1 5\n");
    EXPECT_FALSE(explore::readReplay(truncated).has_value());

    std::istringstream unknown_key(
        "unet-explore-replay v1\nconfig fig5\nbogus 1\n"
        "decisions 0\n");
    EXPECT_FALSE(explore::readReplay(unknown_key).has_value());
}

// --- closed configs --------------------------------------------------

/** The Figure 5 ping-pong is schedule-closed: its event chain is
 *  fully serialized, so exploration exhausts in one schedule with no
 *  choice points — the strongest determinism statement the explorer
 *  can make about the latency rig. */
TEST(ExploreConfigs, Fig5Exhausts)
{
    explore::Result res = explore::explore(config("fig5"));
    EXPECT_TRUE(res.complete);
    EXPECT_TRUE(res.violations.empty());
    EXPECT_EQ(res.runs, 1u);
    EXPECT_EQ(res.choicePoints, 0u);
}

/** The demux race has real same-tick width (three senders) and still
 *  exhausts under digest pruning, violation-free. */
TEST(ExploreConfigs, DemuxExhausts)
{
    explore::Result res = explore::explore(config("demux"));
    EXPECT_TRUE(res.complete);
    EXPECT_TRUE(res.violations.empty());
    EXPECT_EQ(res.maxEligible, 3u);
    EXPECT_GT(res.runs, 1u);
    EXPECT_GT(res.prunedRuns, 0u) << "pruning should be doing work";
}

/** The batched-submission race — three fibers posting overlapping
 *  sendv trains against the i960's tx polls — exhausts under digest
 *  pruning with no violation: exactly-once, in-order, and credit
 *  conservation hold on every schedule, not just the FIFO one. */
TEST(ExploreConfigs, SendvRaceExhausts)
{
    explore::Result res = explore::explore(config("sendv-race"));
    EXPECT_TRUE(res.complete);
    EXPECT_TRUE(res.violations.empty());
    EXPECT_GT(res.runs, 1u) << "the race should have real width";
    EXPECT_GT(res.prunedRuns, 0u) << "pruning should be doing work";
    EXPECT_GE(res.maxEligible, 2u);
}

/** Pruning soundness with the fiber-progress digest token: the
 *  retransmit config (timer-driven go-back-N) must still exhaust
 *  violation-free, and pruning must prune *something* — i.e. the new
 *  token discriminates states without collapsing the search into
 *  never-pruning (which would show up as a run-count blowup here). */
TEST(ExploreConfigs, RetransmitExhaustsWithPruning)
{
    explore::Result res = explore::explore(config("retransmit"));
    EXPECT_TRUE(res.complete);
    EXPECT_TRUE(res.violations.empty());
    EXPECT_GT(res.runs, 0u);
}

/** Salted runs of a violation-free config are one path each through
 *  the same space the explorer covers. */
TEST(ExploreConfigs, DemuxSaltedRunsAreClean)
{
    const explore::Config &c = config("demux");
    for (std::uint64_t salt = 0; salt < 5; ++salt) {
        explore::RunOutcome out = explore::runSalted(c, salt);
        EXPECT_FALSE(out.violated) << "salt " << salt << ": "
                                   << out.message;
    }
}

/** Exploration is itself deterministic: two explorations of the same
 *  config report identical statistics. */
TEST(ExploreConfigs, ExplorationIsDeterministic)
{
    explore::Result first = explore::explore(config("demux"));
    explore::Result second = explore::explore(config("demux"));
    EXPECT_EQ(first.runs, second.runs);
    EXPECT_EQ(first.prunedRuns, second.prunedRuns);
    EXPECT_EQ(first.choicePoints, second.choicePoints);
}

/** Every closed config's exhaustive statistics, pinned. They are a
 *  function of the rig's event order — node, NIC and port construction
 *  included — so a rig change that reorders same-tick events shows here
 *  instead of passing every within-build comparison. */
TEST(ExploreConfigs, ExhaustiveStatsArePinned)
{
    struct Row
    {
        const char *config;
        std::uint64_t runs;
        std::uint64_t pruned;
        std::uint64_t choicePoints;
        std::size_t widest;
    };
    const Row rows[] = {
        {"fig5", 1, 0, 0, 0},
        {"demux", 40, 38, 406, 3},
        {"retransmit", 40, 38, 853, 2},
        {"sendv-race", 7, 5, 21, 3},
        {"atm-cmdqueue", 3, 1, 6, 2},
        {"upcall", 13, 11, 101, 2},
        {"ep-evict", 98, 94, 1268, 4},
    };
    for (const Row &row : rows) {
        explore::Result res = explore::explore(config(row.config));
        EXPECT_TRUE(res.complete) << row.config;
        EXPECT_TRUE(res.violations.empty()) << row.config;
        EXPECT_EQ(res.runs, row.runs) << row.config;
        EXPECT_EQ(res.prunedRuns, row.pruned) << row.config;
        EXPECT_EQ(res.choicePoints, row.choicePoints) << row.config;
        EXPECT_EQ(res.maxEligible, row.widest) << row.config;
    }
}

// --- bounds ----------------------------------------------------------

TEST(ExploreBounds, RunBoundStopsEarly)
{
    const explore::Config &c = config("seeded-credit-bug");
    explore::Options opts;
    opts.prune = false;
    opts.stopAtFirstViolation = false;
    opts.bounds.maxRuns = 10;
    explore::Result res = explore::explore(c, opts);
    EXPECT_EQ(res.runs, 10u);
    EXPECT_FALSE(res.complete);
}

TEST(ExploreBounds, DepthBoundDefersBranches)
{
    const explore::Config &c = config("seeded-credit-bug");
    explore::Options opts;
    opts.prune = false;
    opts.stopAtFirstViolation = false;
    opts.bounds.maxChoiceDepth = 1;
    explore::Result res = explore::explore(c, opts);
    // Only the first choice point branches: the root run spawns 5
    // alternatives, each exploring defaults from there.
    EXPECT_EQ(res.runs, 6u);
    EXPECT_GT(res.deferredBranches, 0u);
    EXPECT_FALSE(res.complete) << "deferred branches bar completeness";
}

TEST(ExploreBounds, WidthBoundSamplesFrontier)
{
    const explore::Config &c = config("seeded-credit-bug");
    explore::Options opts;
    opts.prune = false;
    opts.stopAtFirstViolation = false;
    opts.bounds.maxBranchWidth = 2;
    explore::Result res = explore::explore(c, opts);
    EXPECT_GT(res.deferredBranches, 0u);
    EXPECT_FALSE(res.complete);

    // Deterministic sampling: same salt, same subset; different
    // salts may cover different subsets but equal-sized searches.
    explore::Result again = explore::explore(c, opts);
    EXPECT_EQ(res.runs, again.runs);
    EXPECT_EQ(res.deferredBranches, again.deferredBranches);
}

} // namespace
