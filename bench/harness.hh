/**
 * @file
 * Shared rigs for the paper-reproduction benches.
 *
 * These harnesses measure *simulated* time: they print the same rows
 * and series the paper's figures and tables report, regenerated from
 * the model.
 */

#ifndef UNET_BENCH_HARNESS_HH
#define UNET_BENCH_HARNESS_HH

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "obs/export.hh"
#include "topo/topology.hh"

namespace unet::bench {

/**
 * Observability outputs shared by the figure benches: `--trace FILE`
 * writes a Perfetto trace_event JSON of the run's TraceSession,
 * `--metrics FILE` a flat JSON snapshot of the metrics registry.
 */
struct ObsOutputs
{
    const char *tracePath = nullptr;
    const char *metricsPath = nullptr;

    ObsOutputs(int argc, char **argv)
    {
        for (int i = 1; i + 1 < argc; ++i) {
            if (!std::strcmp(argv[i], "--trace"))
                tracePath = argv[i + 1];
            else if (!std::strcmp(argv[i], "--metrics"))
                metricsPath = argv[i + 1];
        }
    }

    bool requested() const { return tracePath || metricsPath; }

    /** Write whatever was requested; call after run(), before
     *  teardown. */
    void
    write(sim::Simulation &s) const
    {
        if (tracePath) {
            if (auto *tr = s.trace()) {
                std::ofstream os(tracePath);
                obs::writePerfettoJson(os, *tr);
                std::printf("# trace: %zu spans -> %s\n", tr->size(),
                            tracePath);
            } else {
                std::printf("# --trace: no trace session enabled\n");
            }
        }
        if (metricsPath) {
            std::ofstream os(metricsPath);
            s.metrics().writeJson(os);
            std::printf("# metrics -> %s\n", metricsPath);
        }
    }
};

/** Fabric selection for the raw (non-Split-C) rigs. */
enum class Fabric { FeHub, FeBay, FeFn100, AtmOc3, AtmTaxi };

inline const char *
fabricName(Fabric f)
{
    switch (f) {
      case Fabric::FeHub:
        return "FE hub";
      case Fabric::FeBay:
        return "FE Bay28115";
      case Fabric::FeFn100:
        return "FE FN100";
      case Fabric::AtmOc3:
        return "ATM OC-3c";
      case Fabric::AtmTaxi:
        return "ATM TAXI-140";
    }
    return "?";
}

/** Spec overrides for ablation rigs. */
struct RigOptions
{
    UNetFeSpec feSpec;
    nic::Pca200Spec pcaSpec;
    eth::SwitchSpec switchSpec = eth::SwitchSpec::bay28115();
};

/**
 * Two nodes on a chosen fabric with raw U-Net endpoints — the rig for
 * the Fig. 5 round-trip and Fig. 6 bandwidth measurements.
 *
 * Processes are created by the caller (they own the endpoints); wire()
 * connects them after construction.
 */
class RawPair
{
  public:
    RawPair(sim::Simulation &s, Fabric fabric, RigOptions opts = {})
        : topology(s, spec(fabric, opts))
    {}

    /** Create endpoints owned by the given processes and connect. */
    void
    wire(sim::Process &proc_a, sim::Process &proc_b,
         EndpointConfig cfg = {})
    {
        epA = &topology.unet(0).createEndpoint(&proc_a, cfg);
        epB = &topology.unet(1).createEndpoint(&proc_b, cfg);
        topology.connect(0, *epA, 1, *epB, chanA, chanB);
    }

    /**
     * Arm @p plan on every custody boundary this rig has. Sites use
     * the canonical names with ".a"/".b" suffixes for the per-node
     * components (nic.fe.rx.a, atm.link.b.0, ...). The plan must be
     * declared *after* the Simulation: armed injectors register
     * metrics and must die first.
     */
    void attachFaults(fault::Plan &plan) { topology.attachFaults(plan); }

    /**
     * Connect two caller-created endpoints (A-side @p ep_a to B-side
     * @p ep_b) over the rig's fabric — the multi-endpoint analogue of
     * wire() for rigs that open more than one endpoint per host.
     */
    void
    connectExtra(Endpoint &ep_a, Endpoint &ep_b, ChannelId &chan_a,
                 ChannelId &chan_b)
    {
        topology.connect(0, ep_a, 1, ep_b, chan_a, chan_b);
    }

    /** The given side's NIC endpoint-residency cache. */
    vep::ResidencyCache &
    residency(int side)
    {
        int i = side ? 1 : 0;
        return isAtm() ? topology.atm(i).nic.residency()
                       : topology.fe(i).unet.residency();
    }

    UNet &unetOf(int side) { return topology.unet(side ? 1 : 0); }
    Endpoint &ep(int side) { return side ? *epB : *epA; }
    ChannelId chan(int side) const { return side ? chanB : chanA; }
    host::Host &hostOf(int side) { return topology.host(side ? 1 : 0); }

    bool isAtm() const { return topology.isAtm(); }

  private:
    /** Hosts "A" and "B" (MAC indices 1 and 2, fault sites ".a"/".b")
     *  on @p fabric. */
    static topo::Spec
    spec(Fabric fabric, const RigOptions &opts)
    {
        topo::Spec sp{atm::SwitchSpec::asx200(), {}};
        if (fabric == Fabric::FeHub)
            sp.fabric = eth::HubSpec{};
        else if (fabric == Fabric::FeBay)
            sp.fabric = opts.switchSpec;
        else if (fabric == Fabric::FeFn100)
            sp.fabric = eth::SwitchSpec::fn100();
        atm::LinkSpec link = fabric == Fabric::AtmTaxi
                                 ? atm::LinkSpec::taxi140()
                                 : atm::LinkSpec::oc3();
        for (std::uint32_t i = 0; i < 2; ++i) {
            topo::NodeSpec &node = sp.nodes.emplace_back();
            node.name = i ? "B" : "A";
            node.mac = i + 1;
            node.atmLink = link;
            node.fe = opts.feSpec;
            node.pca = opts.pcaSpec;
            node.faultSuffix = i ? ".b" : ".a";
        }
        return sp;
    }

    topo::Topology topology;
    Endpoint *epA = nullptr;
    Endpoint *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
};

/**
 * One raw U-Net message of @p size bytes: inline if it fits, else one
 * buffer-area fragment at @p tx_buf_offset. @p force_fragment keeps
 * small messages on the zero-copy path — the only TX path the paper's
 * U-Net/FE has (inline sends are a U-Net/ATM single-cell feature).
 */
inline SendDescriptor
rawDescriptor(UNet &un, ChannelId chan, std::size_t size,
              std::uint32_t tx_buf_offset, bool force_fragment = false)
{
    auto len = static_cast<std::uint32_t>(size);
    if (size > un.inlineMax() || force_fragment)
        return fragmentSend(chan, {tx_buf_offset, len});
    // The payload bytes are immaterial: send zeros.
    static constexpr std::array<std::uint8_t, smallMessageMax> zeros{};
    auto payload = std::span(zeros).first(std::min(size, zeros.size()));
    return inlineSend(chan, payload);
}

/** Compose and post one raw U-Net message (see rawDescriptor()). */
inline bool
rawSend(UNet &un, sim::Process &proc, Endpoint &ep, ChannelId chan,
        std::size_t size, std::uint32_t tx_buf_offset,
        bool force_fragment = false)
{
    return un.send(proc, ep, rawDescriptor(un, chan, size, tx_buf_offset,
                                           force_fragment));
}

/**
 * Measure the user-level round-trip time for @p size-byte messages
 * over @p fabric (median-free simple mean over @p rounds after one
 * warmup).
 */
inline double
roundTripUs(Fabric fabric, std::size_t size, int rounds = 8,
            RigOptions opts = {})
{
    sim::Simulation s;
    RawPair rig(s, fabric, opts);

    double total_us = 0;
    int measured = 0;

    sim::Process echo(s, "echo", [&](sim::Process &self) {
        auto &un = rig.unetOf(1);
        auto &ep = rig.ep(1);
        // Receive buffers for the non-inline path.
        for (int i = 0; i < 8; ++i)
            un.postFree(self, ep, {static_cast<std::uint32_t>(
                                       i * 2048),
                                   2048});
        auto &cpu = rig.hostOf(1).cpu();
        RecvDescriptor rd;
        for (int r = 0; r < rounds + 1; ++r) {
            if (!ep.wait(self, rd, sim::seconds(1)))
                return;
            // The application examines the message and composes the
            // reply in its buffer area: two real memcpys.
            cpu.busy(self, cpu.spec().memcpyTime(size));
            if (!rd.isSmall)
                for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
                    un.postFree(self, ep,
                                {rd.buffers[i].offset, 2048});
            cpu.busy(self, cpu.spec().memcpyTime(size));
            rawSend(un, self, ep, rig.chan(1), size, 16384,
                    !rig.isAtm());
            un.flush(self, ep);
        }
    });

    sim::Process ping(s, "ping", [&](sim::Process &self) {
        auto &un = rig.unetOf(0);
        auto &ep = rig.ep(0);
        for (int i = 0; i < 8; ++i)
            un.postFree(self, ep, {static_cast<std::uint32_t>(
                                       i * 2048),
                                   2048});
        auto &cpu = rig.hostOf(0).cpu();
        RecvDescriptor rd;
        for (int r = 0; r < rounds + 1; ++r) {
            sim::Tick t0 = s.now();
            // Compose the message in the buffer area.
            cpu.busy(self, cpu.spec().memcpyTime(size));
            rawSend(un, self, ep, rig.chan(0), size, 16384,
                    !rig.isAtm());
            un.flush(self, ep);
            if (!ep.wait(self, rd, sim::seconds(1)))
                return;
            if (!rd.isSmall)
                for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
                    un.postFree(self, ep,
                                {rd.buffers[i].offset, 2048});
            if (r > 0) { // skip warmup
                total_us += sim::toMicroseconds(s.now() - t0);
                ++measured;
            }
        }
    });

    rig.wire(ping, echo);
    echo.start();
    ping.start(sim::microseconds(5));
    s.run();
    return measured ? total_us / measured : -1.0;
}

/**
 * roundTripUs() with a TraceSession enabled and custody stamped so the
 * spans of every measured round tile the round-trip interval exactly:
 * each side back-dates the next message's context to the instant the
 * previous custody ended (the measurement start for the first hop, the
 * receive-queue pop for the echo), recording the application turnaround
 * as an App span. The per-round custody durations therefore sum to the
 * measured RTT (tools/trace_report.py checks this).
 *
 * @p after runs before teardown with the live simulation (trace ring
 * and metrics intact) and the measured mean RTT in microseconds.
 */
inline double
roundTripTracedUs(
    Fabric fabric, std::size_t size, int rounds = 4, RigOptions opts = {},
    const std::function<void(sim::Simulation &, double)> &after = {})
{
    sim::Simulation s;
    s.enableTrace();
    RawPair rig(s, fabric, opts);

    double total_us = 0;
    int measured = 0;

    auto sendTraced = [&](UNet &un, sim::Process &self, Endpoint &ep,
                          ChannelId chan, sim::Tick handoff,
                          std::string_view app_track) {
        SendDescriptor sd =
            rawDescriptor(un, chan, size, 16384, !rig.isAtm());
        auto *tr = s.trace();
        tr->begin(sd.trace, handoff);
        // Application turnaround, from the previous custody end to this
        // post; advances the handoff so TxPost starts at the post.
        tr->hop(sd.trace, obs::SpanKind::App, app_track, s.now());
        return un.send(self, ep, sd);
    };

    sim::Process echo(s, "echo", [&](sim::Process &self) {
        auto &un = rig.unetOf(1);
        auto &ep = rig.ep(1);
        for (int i = 0; i < 8; ++i)
            un.postFree(self, ep,
                        {static_cast<std::uint32_t>(i * 2048), 2048});
        auto &cpu = rig.hostOf(1).cpu();
        RecvDescriptor rd;
        for (int r = 0; r < rounds + 1; ++r) {
            if (!ep.wait(self, rd, sim::seconds(1)))
                return;
            sim::Tick consumed = s.now();
            cpu.busy(self, cpu.spec().memcpyTime(size));
            if (!rd.isSmall)
                for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
                    un.postFree(self, ep, {rd.buffers[i].offset, 2048});
            cpu.busy(self, cpu.spec().memcpyTime(size));
            sendTraced(un, self, ep, rig.chan(1), consumed, "B.app");
            un.flush(self, ep);
        }
    });

    sim::Process ping(s, "ping", [&](sim::Process &self) {
        auto &un = rig.unetOf(0);
        auto &ep = rig.ep(0);
        for (int i = 0; i < 8; ++i)
            un.postFree(self, ep,
                        {static_cast<std::uint32_t>(i * 2048), 2048});
        auto &cpu = rig.hostOf(0).cpu();
        RecvDescriptor rd;
        for (int r = 0; r < rounds + 1; ++r) {
            sim::Tick t0 = s.now();
            cpu.busy(self, cpu.spec().memcpyTime(size));
            sendTraced(un, self, ep, rig.chan(0), t0, "A.app");
            un.flush(self, ep);
            if (!ep.wait(self, rd, sim::seconds(1)))
                return;
            // Measured at the pop, where the reply's RxQueue span ends.
            if (r > 0) {
                total_us += sim::toMicroseconds(s.now() - t0);
                ++measured;
            }
            if (!rd.isSmall)
                for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
                    un.postFree(self, ep, {rd.buffers[i].offset, 2048});
        }
    });

    rig.wire(ping, echo);
    echo.start();
    ping.start(sim::microseconds(5));
    s.run();

    double mean = measured ? total_us / measured : -1.0;
    if (after)
        after(s, mean);
    return mean;
}

/**
 * Measure one-way streaming bandwidth in Mbit/s of payload for
 * @p size-byte messages over @p fabric.
 */
inline double
bandwidthMbps(Fabric fabric, std::size_t size, int messages = 400,
              RigOptions opts = {})
{
    sim::Simulation s;
    RawPair rig(s, fabric, opts);

    sim::Tick first_arrival = -1, last_arrival = -1;
    int delivered = 0;

    sim::Process sink(s, "sink", [&](sim::Process &self) {
        auto &un = rig.unetOf(1);
        auto &ep = rig.ep(1);
        for (int i = 0; i < 24; ++i)
            un.postFree(self, ep, {static_cast<std::uint32_t>(
                                       i * 2048),
                                   2048});
        RecvDescriptor rd;
        while (delivered < messages) {
            if (!ep.wait(self, rd, sim::milliseconds(200)))
                return; // stream dried up (drops); report what we saw
            if (first_arrival < 0)
                first_arrival = s.now();
            last_arrival = s.now();
            ++delivered;
            if (!rd.isSmall)
                for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
                    un.postFree(self, ep,
                                {rd.buffers[i].offset, 2048});
        }
    });

    sim::Process source(s, "source", [&](sim::Process &self) {
        auto &un = rig.unetOf(0);
        auto &ep = rig.ep(0);
        // Rotate the TX buffer: the zero-copy contract forbids
        // re-posting a buffer that is still in flight, and with a
        // 64-deep send queue plus a 64-slot device ring up to 128
        // sends can be outstanding at once. The source never posts
        // receive buffers, so the whole area is available.
        std::uint32_t slot_bytes = 2048;
        while (slot_bytes < size)
            slot_bytes *= 2;
        const std::uint32_t slots = static_cast<std::uint32_t>(
            ep.buffers().size() / slot_bytes);
        for (int m = 0; m < messages; ++m) {
            std::uint32_t tx_off =
                (static_cast<std::uint32_t>(m) % slots) * slot_bytes;
            while (!rawSend(un, self, ep, rig.chan(0), size, tx_off,
                            !rig.isAtm())) {
                // Send queue full: give the device time to drain.
                self.delay(sim::microseconds(20));
                un.flush(self, ep);
            }
        }
        un.flush(self, ep);
        // Keep re-kicking until the queue drains.
        while (!rig.ep(0).sendQueue().empty()) {
            self.delay(sim::microseconds(50));
            un.flush(self, ep);
        }
    });

    rig.wire(source, sink);
    sink.start();
    source.start(sim::microseconds(5));
    s.run();

    if (delivered < 2 || last_arrival <= first_arrival)
        return 0.0;
    double bits = static_cast<double>(delivered - 1) *
        static_cast<double>(size) * 8.0;
    double secs = sim::toSeconds(last_arrival - first_arrival);
    return bits / secs / 1e6;
}

/**
 * Result collector for a figure sweep: one x-axis plus one series per
 * column (fabric). The vectors are reserved up front and reused across
 * collect passes — begin() clears but keeps capacity — so repeated
 * sweeps (e.g. wall-clock trials in bench/macro_wallclock) perform no
 * steady-state allocations, instead of reallocating every row at every
 * message-size step.
 */
class Sweep
{
  public:
    /** Start a (re)collection of @p series_count series, hinting
     *  @p points_hint points per series. Keeps prior capacity. */
    void
    begin(std::size_t series_count, std::size_t points_hint)
    {
        if (_series.size() < series_count)
            _series.resize(series_count);
        for (auto &s : _series) {
            s.clear();
            s.reserve(points_hint);
        }
        _xs.clear();
        _xs.reserve(points_hint);
    }

    /** Append the next x-axis point (message size). */
    void addPoint(std::size_t x) { _xs.push_back(x); }

    /** Append a value to series @p si at the current point. */
    void add(std::size_t si, double v) { _series[si].push_back(v); }

    std::size_t points() const { return _xs.size(); }
    std::size_t x(std::size_t i) const { return _xs[i]; }
    double value(std::size_t si, std::size_t i) const
    {
        return _series[si][i];
    }

  private:
    std::vector<std::size_t> _xs;
    std::vector<std::vector<double>> _series;
};

/** printf-style row helper. */
inline void
row(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::printf("\n");
}

} // namespace unet::bench

#endif // UNET_BENCH_HARNESS_HH
