/**
 * @file
 * The repository benchmark: pingpong, bulk and incast over the U-Net
 * model, measured end to end (untraced) or layer by layer (traced).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans FILE]
 *
 * One unit of work is every part of the workload run once on fresh
 * rigs from the seed. The run repeats units until S host seconds have
 * passed and reports medians over them. With --trace 0 it prints the
 * end-to-end metrics; with --trace 1 it alternates untraced and
 * traced units and prints the per-layer metrics, the traced units
 * being observed by a Recorder. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Host-time metrics (setup_s, ops_per_ref_s, *_s) depend on the
 * machine; the two end-to-end ones are in reference seconds
 * (calibrate.hh), which takes out most of the host's speed drift.
 * Modelled metrics (model_*, hop.*) are simulated time and depend only
 * on the seed.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.hh"
#include "recorder.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string spans;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            a.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            a.trace = std::atoi(val);
        else if (key == "--spans")
            a.spans = val;
        else
            return false;
    }
    return (argc % 2) == 1 && !a.workload.empty() && a.seconds > 0 &&
           (a.trace == 0 || a.trace == 1);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

/** Where and how the numbers were made, so results from different
 *  hosts or build configurations are never compared. */
std::string
provenance()
{
    std::string cpu = cpuModel();
    std::replace(cpu.begin(), cpu.end(), '"', '\'');
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                  "\"build_type\": \"%s\", \"UNET_CHECK\": %d, "
                  "\"UNET_TRACE\": %d, \"UNET_HWCRC\": %d}",
                  sysconf(_SC_NPROCESSORS_ONLN), cpu.c_str(),
                  PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, UNET_CHECK,
                  UNET_TRACE, UNET_HWCRC);
    return buf;
}

/** One named metric of the result line. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** A unit of work: every part once, plus its host totals. */
struct Unit
{
    std::vector<PartResult> parts;
    double setupS = 0;
    double runS = 0;
    double refSetupS = 0; ///< setupS in reference seconds
    double refRunS = 0;   ///< runS in reference seconds
    std::uint64_t ops = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    explicit Unit(std::vector<PartResult> p) : parts(std::move(p))
    {
        for (const PartResult &r : parts) {
            setupS += r.setupS;
            runS += r.runS;
            // Host seconds of a part, rescaled to a host on which the
            // reference kernel around it took kReferenceS.
            double scale = r.refS > 0 ? kReferenceS / r.refS : 1.0;
            refSetupS += r.setupS * scale;
            refRunS += r.runS * scale;
            ops += r.completed;
            attempted += r.attempted;
            failed += r.failed;
        }
    }

    double opsPerS() const { return runS > 0 ? ops / runS : 0.0; }
    double opsPerRefS() const { return refRunS > 0 ? ops / refRunS : 0.0; }

    std::vector<std::uint64_t>
    digests() const
    {
        std::vector<std::uint64_t> d;
        for (const PartResult &r : parts)
            d.push_back(r.digest);
        return d;
    }
};

/** Mean of @p f over the parts (each part weighs the same). */
template <typename F>
double
partMean(const Unit &u, F f)
{
    double sum = 0;
    for (const PartResult &r : u.parts)
        sum += f(r);
    return sum / static_cast<double>(u.parts.size());
}

void
printParts(const char *label, const Unit &u)
{
    for (const PartResult &r : u.parts)
        std::printf("# %s %-22s samples=%llu p50=%.3fus p999=%.3fus "
                    "mean=%.3fus mbps=%.3f rps=%.1f failed=%llu "
                    "setup=%.4fs run=%.4fs digest=%016llx\n",
                    label, r.name.c_str(),
                    static_cast<unsigned long long>(r.samples), r.p50Us,
                    r.p999Us, r.meanUs, r.mbps, r.rps,
                    static_cast<unsigned long long>(r.failed), r.setupS,
                    r.runS, static_cast<unsigned long long>(r.digest));
}

std::vector<Metric>
endToEnd(Workload w, std::uint64_t seed, const std::vector<Unit> &units)
{
    std::vector<double> setup, rate, refSetup, refRate, refS;
    for (const Unit &u : units) {
        setup.push_back(u.setupS);
        rate.push_back(u.opsPerS());
        refSetup.push_back(u.refSetupS);
        refRate.push_back(u.opsPerRefS());
        for (const PartResult &r : u.parts)
            refS.push_back(r.refS);
    }
    auto quartiles = [](const char *name, std::vector<double> v) {
        std::sort(v.begin(), v.end());
        std::printf("# %-13s over %3zu: min %.6g q1 %.6g median %.6g "
                    "q3 %.6g max %.6g\n",
                    name, v.size(), v.front(), v[v.size() / 4], median(v),
                    v[v.size() * 3 / 4], v.back());
    };
    quartiles("host ops/s", rate);
    quartiles("ref ops/s", refRate);
    quartiles("host setup s", setup);
    quartiles("ref setup s", refSetup);
    quartiles("reference s", refS);
    // Modelled results are deterministic per seed: any unit will do.
    const Unit &u = units.front();
    double err = 0;
    if (w == Workload::Incast)
        err = latencyAnchorErrPct(seed);
    else
        err = partMean(u, [](const PartResult &r) { return r.paperErrPct; });
    return {
        {"setup_s", median(refSetup), "s"},
        {"ops_per_ref_s", median(refRate), "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"model_p50_us",
         partMean(u, [](const PartResult &r) { return r.p50Us; }), "us"},
        {"model_p999_us",
         partMean(u, [](const PartResult &r) { return r.p999Us; }), "us"},
        {"model_mbps",
         partMean(u, [](const PartResult &r) { return r.mbps; }), "Mb/s"},
        {"model_goodput_rps",
         partMean(u, [](const PartResult &r) { return r.rps; }), "1/s"},
        {"paper_err_pct", err, "%"},
    };
}

/**
 * Per-layer metrics of the traced units @p traced; @p untraced are the
 * interleaved untraced units of the same work (for the overhead).
 */
std::vector<Metric>
perLayer(const std::vector<Unit> &traced, const std::vector<Unit> &untraced)
{
    // Host-time totals: medians over the traced units.
    std::vector<double> fiber, queue, callback, api, run, plain, residual;
    for (const Unit &u : traced) {
        LayerTotals l;
        for (const PartResult &r : u.parts)
            l += r.layers;
        fiber.push_back(l.fiberNs * 1e-9);
        queue.push_back(l.queueNs * 1e-9);
        callback.push_back((l.eventNs - l.fiberNs) * 1e-9);
        api.push_back(l.apiNs * 1e-9);
        run.push_back(u.runS);
        residual.push_back(u.runS - (l.queueNs + l.eventNs) * 1e-9);
    }
    for (const Unit &u : untraced)
        plain.push_back(u.runS);

    // Counts are deterministic: take them from the first traced unit.
    const Unit &u = traced.front();
    LayerTotals l;
    Counts c;
    EngineCounts e{};
    double setupRss = 0, series = 0;
    std::array<double, hopKinds.size()> hopUs{};
    for (const PartResult &r : u.parts) {
        l += r.layers;
        c += r.counts;
        e.poolRecords = std::max(e.poolRecords, r.engine.poolRecords);
        e.heapCallableAllocs += r.engine.heapCallableAllocs;
        e.compactions += r.engine.compactions;
        setupRss = std::max(setupRss, r.setupRssMb);
        series = std::max(series, r.registrySize);
        for (std::size_t k = 0; k < hopKinds.size(); ++k)
            hopUs[k] += r.counts.hopNs[k] / 1000.0 /
                        static_cast<double>(std::max<std::uint64_t>(
                            r.completed, 1)) /
                        static_cast<double>(u.parts.size());
    }
    double ops = static_cast<double>(std::max<std::uint64_t>(u.ops, 1));
    double resumes = static_cast<double>(std::max<std::uint64_t>(l.resumes, 1));
    double scheduled =
        static_cast<double>(std::max<std::uint64_t>(l.scheduled, 1));

    std::printf("# layers: run=%.4fs queue=%.4fs callback=%.4fs "
                "fiber_self=%.4fs api=%.4fs residual=%.6fs (%.3f%%)\n",
                median(run), median(queue), median(callback),
                median(fiber) - median(api), median(api), median(residual),
                100.0 * median(residual) / median(run));

    std::vector<Metric> m = {
        {"sim.fiber_resumes", static_cast<double>(l.resumes), "count"},
        {"sim.resumes_per_op", l.resumes / ops, "count/op"},
        {"sim.fiber_s", median(fiber), "s"},
        {"sim.fiber_ns_per_resume", median(fiber) * 1e9 / resumes, "ns"},
        {"sim.events", static_cast<double>(l.events), "count"},
        {"sim.events_per_op", l.events / ops, "count/op"},
        {"sim.queue_s", median(queue), "s"},
        {"sim.callback_s", median(callback), "s"},
        {"sim.pending_hwm", static_cast<double>(l.pendingHwm), "count"},
        {"sim.cancel_ratio", l.cancelled / scheduled, "ratio"},
        {"sim.pool_records", static_cast<double>(e.poolRecords), "count"},
        {"sim.heap_callable_allocs",
         static_cast<double>(e.heapCallableAllocs), "count"},
        {"sim.compactions", static_cast<double>(e.compactions), "count"},
        {"unet.api_calls", static_cast<double>(l.apiCalls), "count"},
        {"unet.api_s", median(api), "s"},
        {"unet.api_ns_per_op", median(api) * 1e9 / ops, "ns"},
        {"unet.vep.hits", c.vepHits, "count"},
        {"unet.vep.faults", c.vepFaults, "count"},
        {"unet.rx_drops", c.rxDrops, "count"},
        {"nic.frames", c.nicFrames, "count"},
        {"atm.cells", c.atmCells, "count"},
        {"eth.switch.frames_dropped", c.ethSwitchDropped, "count"},
        {"atm.switch.cells_dropped", c.atmSwitchDropped, "count"},
        {"am.retransmits", c.amRetransmits, "count"},
        {"am.acks", c.amAcks, "count"},
        {"serve.giveups", c.serveGiveUps, "count"},
        {"serve.dup_responses", c.serveDupResponses, "count"},
        {"serve.issued_late", c.serveIssuedLate, "count"},
        {"fault.dropped", c.faultDropped, "count"},
        {"host.setup_rss_mb", setupRss, "MB"},
        {"obs.series", series, "count"},
        {"trace.overhead_pct",
         (median(run) / median(plain) - 1.0) * 100.0, "%"},
        {"trace.residual_s", median(residual), "s"},
    };
    for (std::size_t k = 0; k < hopKinds.size(); ++k)
        m.push_back({std::string("hop.") + hopKinds[k] + "_us", hopUs[k],
                     "us"});
    return m;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit);
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    Workload w;
    if (!parseArgs(argc, argv, args) || !parseWorkload(args.workload, w)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload pingpong|bulk|incast "
                     "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
        return 2;
    }
    std::printf("# provenance %s\n", provenance().c_str());
    std::printf("# workload %s seed %llu trace %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace);

    // Span retention: the first traced unit, up to this many spans.
    Recorder rec(1 << 18);
    std::vector<Unit> plain, traced;
    std::int64_t start = hostNs();
    auto elapsed = [&] { return (hostNs() - start) * 1e-9; };
    // At least three units, so every reported host time is a median;
    // no unit starts that the last one says would end past the budget.
    double last = 0;
    do {
        double t = elapsed();
        plain.emplace_back(runWorkload(w, args.seed, nullptr, true));
        if (args.trace) {
            traced.emplace_back(runWorkload(w, args.seed, &rec, false));
            rec.stopKeeping();
        }
        last = elapsed() - t;
    } while (plain.size() < 3 || elapsed() + last <= args.seconds);

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    const std::vector<std::uint64_t> digests = plain.front().digests();
    for (const auto *set : {&plain, &traced})
        for (const Unit &u : *set) {
            attempted += u.attempted;
            failed += u.failed;
            // Same seed, same model: every unit, traced or not, must
            // reproduce the first unit's metrics digests.
            if (u.digests() != digests) {
                std::printf("# digest mismatch between units\n");
                correct = false;
            }
            for (const PartResult &r : u.parts) {
                if (!r.tilingOk) {
                    std::printf("# %s: custody hops do not tile the "
                                "round trip\n",
                                r.name.c_str());
                    correct = false;
                }
                // The recorder must have bracketed every event fired.
                if (set == &traced && r.layers.events != r.engine.fired) {
                    std::printf("# %s: recorder saw %llu of %llu events\n",
                                r.name.c_str(),
                                static_cast<unsigned long long>(
                                    r.layers.events),
                                static_cast<unsigned long long>(
                                    r.engine.fired));
                    correct = false;
                }
            }
        }
    if (failed)
        correct = false;

    printParts("untraced", plain.front());
    if (args.trace)
        printParts("traced  ", traced.front());
    std::printf("# units: %zu untraced, %zu traced in %.2fs\n", plain.size(),
                traced.size(), elapsed());

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = perLayer(traced, plain);
        if (!args.spans.empty()) {
            std::ofstream os(args.spans);
            os << "# " << provenance() << '\n';
            rec.writeCsv(os);
            std::printf("# spans: %zu kept (%llu not kept) -> %s\n",
                        rec.spans().size(),
                        static_cast<unsigned long long>(rec.droppedSpans()),
                        args.spans.c_str());
        }
    } else {
        metrics = endToEnd(w, args.seed, plain);
    }
    printResult(correct, attempted, failed, metrics);
    return 0;
}
