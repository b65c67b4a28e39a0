/**
 * @file
 * Loss-hardened reliability soak harness.
 *
 * Drives Active-Message request/reply and bulk-store traffic across
 * seeded fault matrices — Bernoulli drop, Gilbert-Elliott burst loss,
 * FCS/CRC-caught corruption, bounded reordering — and checks the
 * reliability layer's contract end to end: exactly-once in-order
 * delivery, window-stall recovery, drain() termination, and books that
 * reconcile (fault.* counters vs. am retransmits vs. FCS/CRC drops).
 *
 * Modes:
 *   (none)              seeded matrix: scenarios x seeds, FE + ATM
 *   --seeds N           widen the seed matrix (CI fault-soak uses 5)
 *   --fault SCENARIO    one run under a custom fault::Plan scenario
 *                       string (same grammar as the tests; DESIGN.md
 *                       §12)
 *   --sweep             RTT vs. loss-rate sweep (EXPERIMENTS.md fig5
 *                       extension)
 *   --metrics FILE      flat JSON metrics snapshot of the last run
 *                       (includes every fault.<site>.* counter)
 */

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "am/active_messages.hh"
#include "bench/harness.hh"
#include "fault/attach.hh"
#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::am;
using namespace unet::bench;
using namespace unet::test;

namespace {

struct SoakResult
{
    bool ok = true;
    std::uint64_t sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t dropped = 0;   ///< units the plane destroyed outright
    std::uint64_t corrupted = 0; ///< units the plane bit-flipped
    std::uint64_t checksumDrops = 0; ///< FCS/CRC rejects at the hosts

    void
    fail(const char *what)
    {
        ok = false;
        std::printf("    FAIL: %s\n", what);
    }
};

/** Tally plane-side counters from every armed injector. */
void
tallyPlan(const fault::Plan &plan, SoakResult &r)
{
    for (const auto &inj : plan.armed()) {
        r.dropped += inj->dropped();
        r.corrupted += inj->corrupted();
    }
}

/**
 * Bidirectional AM soak over a full-duplex FE link: both sides fire
 * @p total sequenced, patterned requests, then drain. The send window
 * (8) is a fraction of @p total, so loss repeatedly stalls the window
 * and recovery is exercised on every run.
 */
SoakResult
feSoak(std::uint64_t seed, const std::string &scenario, int total,
       const ObsOutputs *outs)
{
    sim::Simulation s(seed);
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    fault::Plan plan = fault::Plan::parse(scenario);
    if (plan.seed() == 1) // scenario didn't pin one
        plan.setSeed(seed * 1000 + 7);
    fault::attach(plan, s, link);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    SoakResult r;
    int gotA = 0, gotB = 0, nextA = 0, nextB = 0, drained = 0;
    bool orderA = true, orderB = true, intactA = true, intactB = true;
    bool drainedA = false, drainedB = false;

    auto body = [&](std::unique_ptr<ActiveMessages> &mine,
                    ChannelId &chan, int &got, int &next, bool &order,
                    bool &intact, bool &drain_ok) {
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
                if (!mine->request(proc, chan, 1,
                                   {static_cast<Word>(i), 0, 0, 0},
                                   payload))
                    return;
            }
            mine->pollUntil(proc, [&] { return got >= total; },
                            sim::seconds(10));
            drain_ok = mine->drain(proc, sim::seconds(10));
            ++drained;
            mine->pollUntil(proc, [&] { return drained >= 2; },
                            sim::seconds(10));
            mine->pollUntil(proc, [] { return false; },
                            sim::milliseconds(5));
        };
    };

    sim::Process procA(s, "A",
                       body(amA, chanA, gotA, nextA, orderA, intactA,
                            drainedA));
    sim::Process procB(s, "B",
                       body(amB, chanB, gotB, nextB, orderB, intactB,
                            drainedB));

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

    if (gotA != total || gotB != total)
        r.fail("delivery incomplete (or duplicated)");
    if (!orderA || !orderB)
        r.fail("out-of-order delivery");
    if (!intactA || !intactB)
        r.fail("payload damage leaked past the checksums");
    if (!drainedA || !drainedB)
        r.fail("drain() did not terminate");
    if (amA->deadChannels() + amB->deadChannels() > 0)
        r.fail("channel died");

    r.sent = amA->sent() + amB->sent();
    r.retransmits = amA->retransmits() + amB->retransmits();
    r.checksumDrops = a.unet.rxBadFrame() + b.unet.rxBadFrame();
    tallyPlan(plan, r);
    // Reconcile: destroyed units force retransmissions; every frame
    // the plane corrupted must be caught (and counted) by the FCS.
    if (r.dropped + r.corrupted > 0 && r.retransmits == 0)
        r.fail("wire faults but no retransmissions");
    if (r.checksumDrops != r.corrupted)
        r.fail("rxBadFrame does not reconcile with fault.corrupted");
    if (outs)
        outs->write(s);
    return r;
}

/**
 * Bulk-store soak across an ATM star: a 25 KB store()'s fragment train
 * must land byte-exact through cell-level faults, with the done
 * handler firing exactly once.
 */
SoakResult
atmSoak(std::uint64_t seed, const std::string &scenario,
        const ObsOutputs *outs)
{
    sim::Simulation s(seed);
    AtmStar star(s, 2);

    fault::Plan plan = fault::Plan::parse(scenario);
    if (plan.seed() == 1)
        plan.setSeed(seed);
    fault::attach(plan, s, star[0].link, ".a");
    fault::attach(plan, s, star[1].link, ".b");
    fault::attach(plan, s, star.sw);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    std::vector<std::uint8_t> sink(30000, 0);
    SoakResult r;
    int done = 0;
    bool drain_ok = false;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setBulkSink([&](std::uint32_t addr,
                             std::span<const std::uint8_t> d) {
            std::copy(d.begin(), d.end(), sink.begin() + addr);
        });
        amB->setHandler(2, [&](sim::Process &, Token, const Args &,
                               std::span<const std::uint8_t>) {
            ++done;
        });
        amB->pollUntil(proc, [&] { return done > 0; },
                       sim::seconds(10));
        amB->pollUntil(proc, [] { return false; },
                       sim::milliseconds(5));
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        auto data = pattern(25000, 3);
        if (!amA->store(proc, chanA, 500, data, 2))
            return;
        drain_ok = amA->drain(proc, sim::seconds(10));
    });

    epA = &star[0].unet.createEndpoint(&procA, {});
    epB = &star[1].unet.createEndpoint(&procB, {});
    UNetAtm::connect(star[0].unet, *epA, star.ports[0], star[1].unet,
                     *epB, star.ports[1], star.signalling, chanA,
                     chanB);
    AmSpec spec;
    spec.bulkMtu = 1024; // ~22 cells/fragment: survivable under bursts
    amA = std::make_unique<ActiveMessages>(star[0].unet, *epA, spec);
    amB = std::make_unique<ActiveMessages>(star[1].unet, *epB, spec);
    amA->openChannel(chanA);
    amB->openChannel(chanB);
    procA.start();
    procB.start();
    s.run();

    if (done != 1)
        r.fail("bulk done handler fired != once");
    auto want = pattern(25000, 3);
    if (!std::equal(want.begin(), want.end(), sink.begin() + 500))
        r.fail("bulk payload not byte-exact");
    if (!drain_ok)
        r.fail("drain() did not terminate");
    if (amA->deadChannels() > 0)
        r.fail("channel died");

    r.sent = amA->sent() + amB->sent();
    r.retransmits = amA->retransmits() + amB->retransmits();
    r.checksumDrops =
        star[0].nic.crcDrops() + star[1].nic.crcDrops();
    tallyPlan(plan, r);
    // AAL5 counts one drop per failed PDU; each failed PDU implies at
    // least one destroyed cell.
    if (r.corrupted > 0 && r.checksumDrops == 0)
        r.fail("corrupted cells but no CRC drops");
    if (r.checksumDrops > r.dropped + r.corrupted)
        r.fail("more CRC drops than destroyed cells");
    if (r.dropped + r.corrupted > 0 && r.retransmits == 0)
        r.fail("wire faults but no retransmissions");
    if (outs)
        outs->write(s);
    return r;
}

/**
 * Mean AM request/reply round-trip (us) under symmetric Bernoulli
 * wire loss — the fig5 measurement repeated on a faulty network.
 */
double
rttUnderLossUs(double loss_rate, int rounds, std::uint64_t seed)
{
    sim::Simulation s(seed);
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    fault::Plan plan;
    plan.setSeed(seed * 31 + 5);
    plan.model("eth.link.*").drop = loss_rate;
    fault::attach(plan, s, link);

    Endpoint *epA = nullptr, *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<ActiveMessages> amA, amB;
    int replies = 0;
    double total_us = 0;
    int measured = 0;

    sim::Process procB(s, "B", [&](sim::Process &proc) {
        amB->setHandler(1, [&](sim::Process &inner, Token tok,
                               const Args &args,
                               std::span<const std::uint8_t>) {
            amB->reply(inner, tok, 2, args);
        });
        amB->pollUntil(proc, [&] { return replies >= rounds; },
                       sim::seconds(30));
        amB->pollUntil(proc, [] { return false; },
                       sim::milliseconds(5));
    });
    sim::Process procA(s, "A", [&](sim::Process &proc) {
        amA->setHandler(2, [&](sim::Process &, Token, const Args &,
                               std::span<const std::uint8_t>) {
            ++replies;
        });
        auto payload = pattern(40);
        for (int r = 0; r < rounds; ++r) {
            sim::Tick t0 = s.now();
            if (!amA->request(proc, chanA, 1,
                              {static_cast<Word>(r), 0, 0, 0},
                              payload))
                return;
            if (!amA->pollUntil(proc, [&] { return replies > r; },
                                sim::seconds(1)))
                return;
            total_us += sim::toMicroseconds(s.now() - t0);
            ++measured;
        }
        amA->drain(proc, sim::seconds(10));
    });

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

    return measured == rounds ? total_us / measured : -1.0;
}

struct Scenario
{
    const char *name;
    const char *fe;
    const char *atm;
};

constexpr Scenario scenarios[] = {
    {"drop", "eth.link.*.drop=0.15",
     "atm.link.*.drop=0.01 atm.switch.drop=0.005"},
    {"burst", "eth.link.*.ge=0.02/0.25/1.0",
     "atm.link.a.*.ge=0.01/0.3/1.0"},
    {"corrupt", "eth.link.*.corrupt=0.08", "atm.link.*.corrupt=0.01"},
    // ATM guarantees cell-sequence integrity on a VC, so reordering is
    // an FE-only fault; the ATM column exercises drops instead.
    {"reorder",
     "eth.link.*.reorder=0.25 eth.link.*.reorder_delay_us=200 "
     "eth.link.*.jitter_us=20",
     "atm.link.*.drop=0.008 atm.switch.drop=0.002"},
};

void
printResult(const char *rig, const SoakResult &r)
{
    row("    %-3s %-4s  sent=%-5llu retx=%-4llu wireDrop=%-4llu "
        "wireCorrupt=%-4llu checksumDrop=%-4llu",
        rig, r.ok ? "ok" : "FAIL",
        static_cast<unsigned long long>(r.sent),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.dropped),
        static_cast<unsigned long long>(r.corrupted),
        static_cast<unsigned long long>(r.checksumDrops));
}

} // namespace

int
main(int argc, char **argv)
{
    const char *fault_arg = nullptr;
    bool sweep = false;
    int seeds = 3;
    for (int i = 1; i < argc; ++i) {
        if (!std::strncmp(argv[i], "--fault=", 8))
            fault_arg = argv[i] + 8;
        else if (!std::strcmp(argv[i], "--fault") && i + 1 < argc)
            fault_arg = argv[++i];
        else if (!std::strcmp(argv[i], "--sweep"))
            sweep = true;
        else if (!std::strcmp(argv[i], "--seeds") && i + 1 < argc)
            seeds = std::atoi(argv[++i]);
    }
    ObsOutputs outs(argc, argv);
    const ObsOutputs *outsp = outs.requested() ? &outs : nullptr;

    if (sweep) {
        // EXPERIMENTS.md fig5 extension: how the paper's 40-byte AM
        // round trip degrades as the wire loses frames.
        row("AM round-trip latency (40B payload) vs wire loss rate");
        row("%8s %12s %12s", "loss", "mean RTT us", "x no-loss");
        double base = rttUnderLossUs(0.0, 60, 1);
        for (double loss : {0.0, 0.005, 0.01, 0.02, 0.05, 0.10, 0.15,
                            0.20}) {
            double rtt = rttUnderLossUs(loss, 60, 1);
            row("%7.1f%% %12.1f %12.2f", loss * 100, rtt,
                rtt / base);
        }
        return 0;
    }

    if (fault_arg) {
        row("soak under custom plan: %s", fault_arg);
        SoakResult fe = feSoak(1, fault_arg, 60, nullptr);
        printResult("FE", fe);
        SoakResult atm = atmSoak(1, fault_arg, outsp);
        printResult("ATM", atm);
        return fe.ok && atm.ok ? 0 : 1;
    }

    bool all_ok = true;
    row("reliability soak: %d seeds x %zu scenarios "
        "(FE bidir AM + ATM bulk store)",
        seeds, std::size(scenarios));
    for (const Scenario &sc : scenarios) {
        row("  %s", sc.name);
        for (int seed = 1; seed <= seeds; ++seed) {
            bool last = &sc == &scenarios[std::size(scenarios) - 1] &&
                seed == seeds;
            SoakResult fe = feSoak(seed, sc.fe, 60, nullptr);
            SoakResult atm =
                atmSoak(seed, sc.atm, last ? outsp : nullptr);
            if (!fe.ok || !atm.ok)
                row("    seed=%d FAILED", seed);
            all_ok = all_ok && fe.ok && atm.ok;
            if (seed == 1) {
                printResult("FE", fe);
                printResult("ATM", atm);
            }
        }
    }
    row("%s", all_ok ? "\nall scenarios reconciled." : "\nFAILURES.");
    return all_ok ? 0 : 1;
}
