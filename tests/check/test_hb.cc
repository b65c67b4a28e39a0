/**
 * @file
 * Tests for the happens-before race auditor: planted cross-shard races
 * are detected with both access sites attributed and a replayable
 * salt, the clean reference topologies audit race-free, the canonical
 * shardability report is byte-stable across perturbation salts, and
 * the fiber suspension-point digest distinguishes states the explorer
 * would otherwise over-prune together. ScopedTaskDomain retags are
 * pinned directly: a no-op without an auditor, an edgeCall crossing
 * only between two different non-empty domains.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "check/access.hh"
#include "check/hb/auditor.hh"
#include "check/hb/report.hh"
#include "check/hb/topos.hh"
#include "sim/perturb.hh"
#include "sim/process.hh"
#include "sim/simulation.hh"

using namespace unet;
using namespace unet::check;

#if defined(UNET_CHECK) && UNET_CHECK

TEST(HbPlanted, WriteWriteRaceOnResidencyCache)
{
    hb::TopoResult r = hb::runTopo("planted-ww");
    ASSERT_FALSE(r.races.empty())
        << "the planted W/W race was not detected";

    bool found = false;
    for (const hb::RaceRecord &race : r.races) {
        if (std::string(race.kind) != "write/write")
            continue;
        found = true;
        // Both shard domains of the planted fibers, in either order.
        std::set<std::string> domains{race.firstDomain,
                                      race.secondDomain};
        EXPECT_EQ(domains,
                  (std::set<std::string>{"shardA", "shardB"}));
        // Both access sites must carry a real file:line (the
        // std::source_location of the touch() caller).
        EXPECT_STRNE(race.first.file, "");
        EXPECT_STRNE(race.second.file, "");
        EXPECT_GT(race.first.line, 0u);
        EXPECT_GT(race.second.line, 0u);
        EXPECT_STREQ(race.first.op, "touch");
        EXPECT_STREQ(race.second.op, "touch");
        // The record carries the active salt for replay.
        EXPECT_EQ(race.salt, sim::perturb::salt());
    }
    EXPECT_TRUE(found) << "no write/write race among "
                       << r.races.size() << " records";

    // The raced object is classified cross-shard in the report.
    EXPECT_NE(r.report.find("\"cross-shard\""), std::string::npos);
    EXPECT_NE(r.report.find("\"races\""), std::string::npos);
}

TEST(HbPlanted, ReadWriteRaceOnSendRing)
{
    hb::TopoResult r = hb::runTopo("planted-rw");
    ASSERT_FALSE(r.races.empty())
        << "the planted R/W race was not detected";

    bool found = false;
    for (const hb::RaceRecord &race : r.races) {
        if (std::string(race.kind) != "read/write")
            continue;
        found = true;
        EXPECT_NE(race.object.find("sendq"), std::string::npos)
            << race.object;
        // One side is the foreign monitor fiber's peek, the other the
        // owning node's ring write.
        std::set<std::string> domains{race.firstDomain,
                                      race.secondDomain};
        EXPECT_TRUE(domains.count("monitor")) << race.firstDomain
                                              << " vs "
                                              << race.secondDomain;
        EXPECT_TRUE(domains.count("node0"));
        EXPECT_TRUE(std::string(race.first.op) == "spy ring peek" ||
                    std::string(race.second.op) == "spy ring peek");
        EXPECT_STRNE(race.first.file, "");
        EXPECT_STRNE(race.second.file, "");
        EXPECT_EQ(race.salt, sim::perturb::salt());
    }
    EXPECT_TRUE(found) << "no read/write race among "
                       << r.races.size() << " records";
}

TEST(HbPlanted, DetectionHoldsUnderPerturbation)
{
    // The planted races are ordering *structure*, not schedule
    // accidents: every perturbation salt must find them.
    for (std::uint64_t salt = 1; salt <= 3; ++salt) {
        sim::perturb::ScopedSalt scoped(salt);
        hb::TopoResult r = hb::runTopo("planted-ww");
        ASSERT_FALSE(r.races.empty()) << "salt " << salt;
        EXPECT_EQ(r.races.front().salt, salt);
    }
}

TEST(HbClean, Fig5IsRaceFree)
{
    hb::TopoResult r = hb::runTopo("fig5");
    EXPECT_TRUE(r.races.empty())
        << r.races.size() << " race(s); first on '"
        << r.races.front().object << "'";
    EXPECT_FALSE(r.objects.empty());
    EXPECT_GT(r.chains, 0u);
    // The endpoint rings were exercised and stayed shard-local.
    EXPECT_NE(r.report.find("\"shard-local\""), std::string::npos);
    EXPECT_NE(r.report.find("unet-hb-shardability-v1"),
              std::string::npos);
}

TEST(HbClean, FaultScenarioIsRaceFree)
{
    hb::TopoResult r = hb::runTopo("fault");
    EXPECT_TRUE(r.races.empty())
        << r.races.size() << " race(s); first on '"
        << r.races.front().object << "'";
}

TEST(HbClean, ServeRigIsRaceFree)
{
    hb::TopoResult r = hb::runTopo("serve");
    EXPECT_TRUE(r.races.empty())
        << r.races.size() << " race(s); first on '"
        << r.races.front().object << "'";
    // The RPC dispatch table is the server's alone.
    EXPECT_NE(r.report.find(".rpc.dispatch"), std::string::npos);
}

/** The audited object count and the clock chains each clean topology
 *  needs, pinned. Both follow from which components the rig builds and
 *  in which order, so a topology-construction change that slips an
 *  object or an ordering edge shows here, not only across salts. */
TEST(HbClean, AuditShapeIsPinned)
{
    struct Row
    {
        const char *topo;
        std::size_t objects;
        std::size_t chains;
    };
    const Row rows[] = {
        {"fig5", 9, 4},
        {"fault", 9, 13},
        {"serve", 14, 30},
    };
    for (const Row &row : rows) {
        hb::TopoResult r = hb::runTopo(row.topo);
        EXPECT_EQ(r.objects.size(), row.objects) << row.topo;
        EXPECT_EQ(r.chains, row.chains) << row.topo;
    }
}

TEST(HbReport, CanonicalReportStableAcrossSalts)
{
    // The canonical report reflects happens-before structure; the
    // perturbation salts change same-tick schedules and addresses,
    // neither of which may leak into the report bytes.
    hb::TopoResult base = hb::runTopo("fig5");
    for (std::uint64_t salt = 1; salt <= 5; ++salt) {
        sim::perturb::ScopedSalt scoped(salt);
        hb::TopoResult r = hb::runTopo("fig5");
        EXPECT_EQ(base.report, r.report)
            << "fig5 report diverges under salt " << salt;
    }
}

TEST(HbReport, VerboseSectionIsSupplemental)
{
    hb::TopoResult r = hb::runTopo("planted-ww");
    // The verbose form strictly extends the canonical form.
    EXPECT_NE(r.reportVerbose, r.report);
    EXPECT_NE(r.reportVerbose.find("\"verbose\""), std::string::npos);
    EXPECT_EQ(r.report.find("\"verbose\""), std::string::npos);
}

TEST(HbTopos, RegistryIsConsistent)
{
    EXPECT_GE(hb::topologies().size(), 5u);
    for (const hb::Topo &t : hb::topologies()) {
        EXPECT_NE(hb::findTopo(t.name), nullptr) << t.name;
        EXPECT_FALSE(t.summary.empty()) << t.name;
    }
    EXPECT_EQ(hb::findTopo("no-such-topo"), nullptr);
}

namespace {

/**
 * The auditor's per-object summaries after a fiber bound to @p bound
 * touches guard "before", then guard "inside" under a retag to
 * @p domain, then guard "after" once the retag has closed.
 */
template <typename Domain>
std::map<std::string, hb::ObjectSummary>
retagSummaries(const char *bound, const Domain &domain)
{
    sim::Simulation s;
    hb::Auditor auditor(s);
    ContextGuard before("before"), inside("inside"), after("after");
    sim::Process p(s, "p", [&](sim::Process &) {
        before.mutate("touch");
        {
            hb::ScopedTaskDomain retag(domain);
            inside.mutate("touch");
        }
        after.mutate("touch");
    });
    p.bindShardDomain(bound);
    p.start();
    s.run();
    return auditor.objects();
}

using Domains = std::set<std::string>;

} // namespace

TEST(HbScopedTaskDomain, NoOpWithoutAuditor)
{
    ASSERT_EQ(hb::Auditor::current(), nullptr);
    sim::Simulation s;
    ContextGuard guard("guard");
    std::string seen;
    sim::Process p(s, "p", [&](sim::Process &self) {
        hb::ScopedTaskDomain by_pointer("b");
        hb::ScopedTaskDomain by_string(std::string("c"));
        guard.mutate("touch");
        seen = self.shardDomain();
    });
    p.bindShardDomain("a");
    p.start();
    s.run();
    EXPECT_EQ(seen, "a");
    EXPECT_EQ(hb::Auditor::current(), nullptr);
}

TEST(HbScopedTaskDomain, CrossDomainRetagRecordsCallAndRestores)
{
    auto objects = retagSummaries<const char *>("a", "b");
    EXPECT_EQ(objects.at("before").domains, Domains{"a"});
    EXPECT_EQ(objects.at("before").edges, unsigned{hb::edgeFiber});
    EXPECT_EQ(objects.at("inside").domains, Domains{"b"});
    EXPECT_EQ(objects.at("inside").edges,
              unsigned{hb::edgeFiber | hb::edgeCall});
    // The task's own domain comes back at scope exit; the crossing it
    // made stays on its edge record.
    EXPECT_EQ(objects.at("after").domains, Domains{"a"});
    EXPECT_EQ(objects.at("after").edges,
              unsigned{hb::edgeFiber | hb::edgeCall});
}

TEST(HbScopedTaskDomain, SameOrUnboundDomainRecordsNoCall)
{
    auto same = retagSummaries<const char *>("a", "a");
    for (const char *label : {"before", "inside", "after"}) {
        EXPECT_EQ(same.at(label).domains, Domains{"a"}) << label;
        EXPECT_EQ(same.at(label).edges, unsigned{hb::edgeFiber})
            << label;
    }
    // An unbound fiber is a wildcard: entering a domain is no
    // crossing.
    auto unbound = retagSummaries<const char *>("", "b");
    EXPECT_EQ(unbound.at("inside").domains, Domains{"b"});
    EXPECT_EQ(unbound.at("inside").edges, unsigned{hb::edgeFiber});
    EXPECT_EQ(unbound.at("after").domains, Domains{});
}

TEST(HbScopedTaskDomain, CharPointerAndStringDomainsAgree)
{
    for (const char *target : {"a", "b"}) {
        auto by_pointer = retagSummaries<const char *>("a", target);
        auto by_string = retagSummaries("a", std::string(target));
        ASSERT_EQ(by_pointer.size(), by_string.size()) << target;
        for (const auto &[label, summary] : by_pointer) {
            const hb::ObjectSummary &other = by_string.at(label);
            EXPECT_EQ(summary.domains, other.domains) << label;
            EXPECT_EQ(summary.edges, other.edges) << label;
            EXPECT_EQ(summary.reads, other.reads) << label;
            EXPECT_EQ(summary.writes, other.writes) << label;
            EXPECT_EQ(summary.races, other.races) << label;
            EXPECT_EQ(summary.classifyOnly, other.classifyOnly) << label;
        }
    }
}

#endif // UNET_CHECK

// ---------------------------------------------------------------------
// Satellite: the fiber suspension-point token in the explorer digest.
// Two simulations reach the same point of progress — same simulated
// time, same fiber-progress counter, one fiber suspended — but one
// fiber sits in delay() and the other in waitOn(timeout). Without the
// suspension digest these states hash identically and the explorer
// would prune one as a duplicate of the other, even though only the
// waitOn state can be short-circuited by a notify. (This runs with
// UNET_CHECK both on and off: the digest is core sim state.)

namespace {

struct Probe
{
    sim::Tick now = 0;
    std::uint64_t fiberProgress = 0;
    std::uint64_t suspension = 0;
};

template <typename Body>
Probe
probeAt5us(Body body)
{
    sim::Simulation s;
    sim::WaitChannel ch;
    sim::Process p(s, "suspender",
                   [&](sim::Process &self) { body(self, ch); });
    Probe out;
    sim::Process probe(s, "probe", [&](sim::Process &self) {
        self.delay(sim::microseconds(5));
        out.now = s.now();
        out.fiberProgress = s.fiberProgress();
        out.suspension = s.suspensionDigest();
    });
    p.start();
    probe.start();
    s.run();
    return out;
}

} // namespace

TEST(SuspensionDigest, DistinguishesSuspensionReasonAtSameProgress)
{
    Probe delayed = probeAt5us([](sim::Process &self, sim::WaitChannel &) {
        self.delay(sim::microseconds(10));
    });
    Probe waiting = probeAt5us([](sim::Process &self, sim::WaitChannel &ch) {
        self.waitOn(ch, sim::microseconds(10));
    });

    // Identical by every pre-existing digest ingredient...
    EXPECT_EQ(delayed.now, waiting.now);
    EXPECT_EQ(delayed.fiberProgress, waiting.fiberProgress);
    // ...yet the states are NOT interchangeable, and the suspension
    // digest is what tells them apart.
    EXPECT_NE(delayed.suspension, 0u);
    EXPECT_NE(waiting.suspension, 0u);
    EXPECT_NE(delayed.suspension, waiting.suspension)
        << "explorer would over-prune: delay() and waitOn(timeout) "
           "states digest identically";
}

TEST(SuspensionDigest, ClearsOnResume)
{
    sim::Simulation s;
    sim::Process p(s, "p", [](sim::Process &self) {
        self.delay(sim::microseconds(1));
    });
    p.start();
    s.run();
    EXPECT_EQ(s.suspensionDigest(), 0u)
        << "suspension tokens must clear when fibers resume";
}
