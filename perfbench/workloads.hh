/**
 * @file
 * The benchmark's three workloads.
 *
 * Each workload is a fixed amount of simulated work, generated from
 * the seed, split into parts (one per fabric or load point). One call
 * runs every part once on fresh rigs and returns the host timings, the
 * modelled results, the outcome checks and the layer counts of each
 * part. With a Recorder, the parts run traced: the recorder observes
 * every simulation and a TraceSession records the custody hops.
 */

#ifndef UNET_PERFBENCH_WORKLOADS_HH
#define UNET_PERFBENCH_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "recorder.hh"

namespace perfbench {

/** The custody-hop kinds reported per operation, in tiling order. */
constexpr std::array<const char *, 8> hopKinds = {
    "App", "TxPost", "TxNic", "TxFw", "Wire", "RxKernel", "RxFw",
    "RxQueue"};

/** Layer counts read from one part's metrics registry. */
struct Counts
{
    double nicFrames = 0;
    double atmCells = 0;
    double ethSwitchDropped = 0;
    double atmSwitchDropped = 0;
    double amRetransmits = 0;
    double amAcks = 0;
    double serveGiveUps = 0;
    double serveDupResponses = 0;
    double serveIssuedLate = 0;
    double faultDropped = 0;
    double vepHits = 0;
    double vepFaults = 0;
    double rxDrops = 0;
    std::array<double, hopKinds.size()> hopNs{}; ///< summed span ns

    Counts &operator+=(const Counts &o);
};

/** Simulator-engine counts of one part, read from its event queue. */
struct EngineCounts
{
    std::uint64_t fired = 0;
    std::uint64_t poolRecords = 0;
    std::uint64_t heapCallableAllocs = 0;
    std::uint64_t compactions = 0;
};

/** One part of a workload, run once. */
struct PartResult
{
    std::string name;
    double setupS = 0;   ///< rig construction → first event fired
    double runS = 0;     ///< first event fired → run returned
    double setupRssMb = 0;
    double registrySize = 0; ///< metrics-registry entries
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t samples = 0; ///< latency samples behind p50/p999
    double p50Us = 0;
    double p999Us = 0;
    double meanUs = 0;
    double mbps = 0;         ///< simulated payload bandwidth
    double rps = 0;          ///< simulated operations per second
    double paperErrPct = -1; ///< -1: no paper anchor for this part
    bool tilingOk = true;    ///< hop means sum to the mean latency
    std::uint64_t digest = 0;
    double refS = 0; ///< reference kernel around the part; 0: not run
    Counts counts;
    EngineCounts engine;
    LayerTotals layers; ///< traced runs only
};

enum class Workload { Pingpong, Bulk, Incast };

bool parseWorkload(const std::string &name, Workload &out);

/**
 * Run every part of @p w once from @p seed. With @p rec the parts run
 * traced; its totals are reset per part and copied into the result.
 * With @p calibrate the reference kernel (calibrate.hh) runs before
 * each part and after the last, and each part records the mean host
 * time of the two runs around it.
 */
std::vector<PartResult> runWorkload(Workload w, std::uint64_t seed,
                                    Recorder *rec, bool calibrate);

/**
 * The 40-byte round-trip latency anchors (hub and ATM OC-3c), run as
 * a short probe: the mean error against the paper, in percent.
 */
double latencyAnchorErrPct(std::uint64_t seed);

/** Current and peak resident set size of this process, in MB. */
double currentRssMb();
double peakRssMb();

} // namespace perfbench

#endif // UNET_PERFBENCH_WORKLOADS_HH
