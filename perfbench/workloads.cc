#include "workloads.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string_view>

#include "atm/switch.hh"
#include "calibrate.hh"
#include "eth/hub.hh"
#include "eth/switch.hh"
#include "obs/digest.hh"
#include "serve/rig.hh"
#include "unet/unet_atm.hh"
#include "unet/unet_fe.hh"

namespace perfbench {

using namespace unet;

namespace {

// ---------------------------------------------------------------- sizes

constexpr int kPingpongRounds = 10000;      // per fabric
constexpr std::size_t kPingBytes = 40;
constexpr int kBulkMessages = 10000;        // per fabric
constexpr std::int64_t kBulkMinBytes = 1478; // 31 AAL5 cells
constexpr std::int64_t kBulkMaxBytes = 1494; // 32 AAL5 cells
constexpr std::size_t kBulkBatch = 16;
constexpr int kIncastClients = 64;
/** RPCs per client: 10240 per clean part, 40960 in the loss part. The
 *  loss part's tail is made of retransmit timeouts, rarer than queueing
 *  delays, and it dominates the workload's mean p999: at 10240 RPCs it
 *  moved 10-15% from seed to seed. */
constexpr int kIncastRequestsPerClient = 160;
constexpr int kIncastLossRequestsPerClient = 640;
constexpr int kProbeRounds = 200;

/** Paper anchors (Figs. 5 and 6). */
constexpr double kAnchorHubUs = 57.0;
constexpr double kAnchorAtmUs = 89.0;
constexpr double kAnchorFeMbps = 96.5;
constexpr double kAnchorAtmMbps = 118.0;

/** Serving capacities the incast load points are fractions of; the
 *  same calibration bench/serve_slo uses. */
constexpr double kCapacityFeRps = 55000.0;
constexpr double kCapacityAtmRps = 28000.0;

// ---------------------------------------------------------------- seeds

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** A part's own seed: the workload seed mixed with the part name. */
std::uint64_t
partSeed(std::uint64_t seed, std::string_view part)
{
    obs::Digest d;
    d.mix(seed).mix(part);
    return splitmix(d.value());
}

/** Seeded payload bytes; message k carries the bytes at at(k, len). */
class Pattern
{
  public:
    explicit Pattern(sim::Random &rng) : bytes(8192)
    {
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.u32());
    }

    const std::uint8_t *
    at(std::uint64_t k, std::size_t len) const
    {
        std::size_t span = bytes.size() - len;
        return bytes.data() + (k * 977) % span;
    }

  private:
    std::vector<std::uint8_t> bytes;
};

// ----------------------------------------------------------------- rigs

enum class Fabric { FeHub, FeBay, AtmOc3, AtmTaxi };

const char *
fabricTag(Fabric f)
{
    switch (f) {
      case Fabric::FeHub:
        return "fe_hub";
      case Fabric::FeBay:
        return "fe_bay";
      case Fabric::AtmOc3:
        return "atm_oc3";
      case Fabric::AtmTaxi:
        return "atm_taxi";
    }
    return "?";
}

/**
 * The physical inputs the seed draws, so that modelled times are
 * functions of the generated inputs: each cable's one-way propagation
 * delay (500 ns, about 100 m, give or take 50 ns) and each link's
 * clock, which the line-code standards allow to be 100 ppm off.
 */
sim::Tick
cableDelay(sim::Random &rng)
{
    return sim::nanoseconds(500) + rng.uniform(-50000, 50000);
}

double
clockTolerance(sim::Random &rng)
{
    return 1.0 + static_cast<double>(rng.uniform(-100, 100)) * 1e-6;
}

/** Two hosts with raw U-Net endpoints on one fabric. */
class Pair
{
  public:
    Pair(sim::Simulation &s, Fabric fabric, sim::Random &rng)
    {
        for (int i = 0; i < 2; ++i)
            hosts[i] = std::make_unique<host::Host>(
                s, i ? "B" : "A", host::CpuSpec::pentium120(),
                host::BusSpec::pci());
        switch (fabric) {
          case Fabric::FeHub: {
            eth::HubSpec spec;
            spec.propDelay = cableDelay(rng);
            spec.bitRate *= clockTolerance(rng);
            hub = std::make_unique<eth::Hub>(s, spec);
            makeFe(*hub);
            break;
          }
          case Fabric::FeBay: {
            eth::SwitchSpec spec = eth::SwitchSpec::bay28115();
            spec.propDelay = cableDelay(rng);
            spec.bitRate *= clockTolerance(rng);
            ethSwitch = std::make_unique<eth::Switch>(s, spec);
            makeFe(*ethSwitch);
            break;
          }
          case Fabric::AtmOc3:
          case Fabric::AtmTaxi: {
            atmSwitch = std::make_unique<atm::Switch>(s);
            signalling = std::make_unique<atm::Signalling>(*atmSwitch);
            for (int i = 0; i < 2; ++i) {
                atm::LinkSpec spec = fabric == Fabric::AtmOc3
                                         ? atm::LinkSpec::oc3()
                                         : atm::LinkSpec::taxi140();
                spec.propDelay = cableDelay(rng);
                spec.cellRateBps *= clockTolerance(rng);
                links[i] = std::make_unique<atm::AtmLink>(s, spec);
                pcas[i] = std::make_unique<nic::Pca200>(*hosts[i],
                                                        *links[i]);
                ports[i] = atmSwitch->addPort(*links[i]);
                auto u = std::make_unique<UNetAtm>(*hosts[i], *pcas[i]);
                atms[i] = u.get();
                unets[i] = std::move(u);
            }
            break;
          }
        }
    }

    /** Create one endpoint per side and connect them. */
    void
    wire(sim::Process &a, sim::Process &b, EndpointConfig cfg_a = {},
         EndpointConfig cfg_b = {})
    {
        eps[0] = &unets[0]->createEndpoint(&a, cfg_a);
        eps[1] = &unets[1]->createEndpoint(&b, cfg_b);
        if (fes[0])
            UNetFe::connect(*fes[0], *eps[0], *fes[1], *eps[1], chans[0],
                            chans[1]);
        else
            UNetAtm::connect(*atms[0], *eps[0], ports[0], *atms[1],
                             *eps[1], ports[1], *signalling, chans[0],
                             chans[1]);
    }

    UNet &unet(int side) { return *unets[side]; }
    Endpoint &ep(int side) { return *eps[side]; }
    ChannelId chan(int side) const { return chans[side]; }
    host::Host &hostOf(int side) { return *hosts[side]; }
    bool atm() const { return atms[0] != nullptr; }

  private:
    void
    makeFe(eth::Network &net)
    {
        for (int i = 0; i < 2; ++i) {
            fenics[i] = std::make_unique<nic::Dc21140>(
                *hosts[i], net,
                eth::MacAddress::fromIndex(static_cast<std::uint32_t>(i + 1)));
            auto u = std::make_unique<UNetFe>(*hosts[i], *fenics[i]);
            fes[i] = u.get();
            unets[i] = std::move(u);
        }
    }

    std::unique_ptr<host::Host> hosts[2];
    std::unique_ptr<eth::Hub> hub;
    std::unique_ptr<eth::Switch> ethSwitch;
    std::unique_ptr<atm::Switch> atmSwitch;
    std::unique_ptr<atm::Signalling> signalling;
    std::unique_ptr<atm::AtmLink> links[2];
    std::unique_ptr<nic::Dc21140> fenics[2];
    std::unique_ptr<nic::Pca200> pcas[2];
    std::unique_ptr<UNet> unets[2];
    UNetFe *fes[2] = {nullptr, nullptr};
    UNetAtm *atms[2] = {nullptr, nullptr};
    std::size_t ports[2] = {0, 0};
    Endpoint *eps[2] = {nullptr, nullptr};
    ChannelId chans[2] = {invalidChannel, invalidChannel};
};

/** Copy a received message's payload out of @p ep into @p out. */
void
readPayload(Endpoint &ep, const RecvDescriptor &rd,
            std::vector<std::uint8_t> &out)
{
    out.resize(rd.length);
    if (rd.isSmall) {
        std::memcpy(out.data(), rd.inlineData.data(),
                    std::min<std::size_t>(rd.length, smallMessageMax));
        return;
    }
    std::size_t at = 0;
    for (std::uint8_t i = 0; i < rd.bufferCount && at < rd.length; ++i) {
        BufferRef ref = rd.buffers[i];
        ref.length = static_cast<std::uint32_t>(
            std::min<std::size_t>(ref.length, rd.length - at));
        auto bytes = ep.buffers().span(ref);
        std::memcpy(out.data() + at, bytes.data(), bytes.size());
        at += bytes.size();
    }
    out.resize(at);
}

/** Hand a received message's buffers back to the free queue. */
void
recycle(Recorder *rec, UNet &un, sim::Process &self, Endpoint &ep,
        const RecvDescriptor &rd)
{
    if (rd.isSmall)
        return;
    for (std::uint8_t i = 0; i < rd.bufferCount; ++i) {
        ApiScope api(rec, SpanName::PostFree);
        un.postFree(self, ep, {rd.buffers[i].offset, 2048});
    }
}

void
postFreeBuffers(Recorder *rec, UNet &un, sim::Process &self, Endpoint &ep,
                int count)
{
    for (int i = 0; i < count; ++i) {
        ApiScope api(rec, SpanName::PostFree);
        un.postFree(self, ep,
                    {static_cast<std::uint32_t>(i * 2048), 2048});
    }
}

// ------------------------------------------------------------ measuring

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

bool
has(std::string_view s, std::string_view part)
{
    return s.find(part) != std::string_view::npos;
}

/**
 * Read the layer counts and the model digest out of @p reg. The digest
 * is obs::digestOf over every metric except the trace.* bookkeeping
 * that enabling a TraceSession adds, so a traced and an untraced run
 * of one seed must digest equal.
 */
void
collect(const obs::Registry &reg, PartResult &r)
{
    Counts &c = r.counts;
    obs::Digest d;
    for (const auto &[path, v] : reg.dump()) {
        std::string_view p = path;
        if (p.starts_with("trace.")) {
            for (std::size_t k = 0; k < hopKinds.size(); ++k)
                if (p == std::string("trace.span.") + hopKinds[k] +
                             ".ns.sum")
                    c.hopNs[k] += v;
            continue;
        }
        d.mix(p).mix(v);
        if (has(p, ".nic.dc21140") && endsWith(p, ".framesSent"))
            c.nicFrames += v;
        else if (has(p, ".nic.pca200") && endsWith(p, ".cellsSent"))
            c.atmCells += v;
        else if (p.starts_with("eth.switch") &&
                 endsWith(p, ".framesDropped"))
            c.ethSwitchDropped += v;
        else if (p.starts_with("atm.switch") &&
                 endsWith(p, ".cellsDropped"))
            c.atmSwitchDropped += v;
        else if (has(p, ".am.") && endsWith(p, ".retransmits"))
            c.amRetransmits += v;
        else if (has(p, ".am.") && endsWith(p, ".explicitAcks"))
            c.amAcks += v;
        else if (p.starts_with("serve") && endsWith(p, ".giveUps"))
            c.serveGiveUps += v;
        else if (p.starts_with("serve") && endsWith(p, ".dupResponses"))
            c.serveDupResponses += v;
        else if (p.starts_with("serve") && endsWith(p, ".issuedLate"))
            c.serveIssuedLate += v;
        else if (p.starts_with("fault.") && endsWith(p, ".dropped"))
            c.faultDropped += v;
        else if (has(p, ".vep.") && endsWith(p, ".hits"))
            c.vepHits += v;
        else if (has(p, ".vep.") && endsWith(p, ".faults"))
            c.vepFaults += v;
        else if (endsWith(p, ".rxNoFreeBuffer") ||
                 endsWith(p, ".rxQueueDrops") ||
                 endsWith(p, ".rxMissed") ||
                 (has(p, ".nic.pca200") &&
                  (endsWith(p, ".noBufferDrops") ||
                   endsWith(p, ".fifoOverflows"))))
            c.rxDrops += v;
    }
    r.registrySize = static_cast<double>(reg.size());
    r.digest = d.value();
}

/**
 * Brackets one part's run: setup ends when the first event fires (a
 * sentinel scheduled ahead of the workload), the run phase when the
 * event loop returns. A recorder, if any, observes the run phase.
 */
class Launch
{
  public:
    Launch(sim::Simulation &s, Recorder *rec, std::int64_t t0,
           PartResult &r)
        : s(s), rec(rec), t0(t0), r(r)
    {
        r.setupRssMb = currentRssMb();
        s.schedule(s.now(), [this] { first = hostNs(); });
        if (rec) {
            rec->resetTotals();
            rec->attach(s.events());
        }
    }

    Launch(const Launch &) = delete;
    Launch &operator=(const Launch &) = delete;

    /** Call once the event loop returned, with the rig still alive. */
    void
    finish()
    {
        std::int64_t end = hostNs();
        if (rec) {
            r.layers = rec->totals();
            rec->detach();
        }
        r.setupS = static_cast<double>(first - t0) * 1e-9;
        r.runS = static_cast<double>(end - first) * 1e-9;
        sim::EventQueue &q = s.events();
        r.engine = {q.firedCount(), q.poolCapacity(),
                    q.heapCallableAllocs(), q.compactions()};
        collect(s.metrics(), r);
    }

  private:
    sim::Simulation &s;
    Recorder *rec;
    std::int64_t t0;
    std::int64_t first = 0;
    PartResult &r;
};

/** Exact quantile of sorted @p v: the value with ceil(q n) at or
 *  below it. */
double
quantile(const std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void
latencyStats(std::vector<double> lat, PartResult &r)
{
    std::sort(lat.begin(), lat.end());
    r.samples = lat.size();
    r.p50Us = quantile(lat, 0.5);
    r.p999Us = quantile(lat, 0.999);
    r.meanUs = lat.empty() ? 0.0
                           : std::accumulate(lat.begin(), lat.end(), 0.0) /
                                 static_cast<double>(lat.size());
}

/** Custody hops must tile the measured latency (to 1 ns per span). */
bool
hopsTile(const PartResult &r, double spans_per_op)
{
    double sum = 0;
    for (double ns : r.counts.hopNs)
        sum += ns;
    double per_op_us = sum / 1000.0 / static_cast<double>(r.samples);
    return std::abs(per_op_us - r.meanUs) <= spans_per_op * 1e-3;
}

// ------------------------------------------------------------- pingpong

/**
 * A closed loop with one 40-byte message in flight: ping sends, echo
 * blocks in wait(), checks and returns it, ping blocks for the reply.
 * The fig. 5 round trip, with the payload carrying the round number
 * and seeded bytes. Traced runs stamp custody so the hops of each
 * round tile its round-trip time.
 */
PartResult
pingpongPart(Fabric fabric, int rounds, std::uint64_t seed, Recorder *rec)
{
    PartResult r;
    r.name = std::string("pingpong.") + fabricTag(fabric);
    std::int64_t t0 = hostNs();
    std::uint64_t ps = partSeed(seed, r.name);
    sim::Simulation s(ps);
    if (rec)
        s.enableTrace();
    sim::Random rng(ps);
    Pair rig(s, fabric, rng);
    Pattern pattern(rng);
    obs::TraceSession *tr = s.trace();

    std::vector<double> rtt;
    rtt.reserve(static_cast<std::size_t>(rounds));
    std::uint64_t bad = 0;
    constexpr std::uint32_t txOffset = 16384;

    auto compose = [&](int k, std::uint8_t *out) {
        std::uint64_t seq = static_cast<std::uint64_t>(k);
        std::memcpy(out, &seq, 8);
        std::memcpy(out + 8, pattern.at(seq, kPingBytes - 8),
                    kPingBytes - 8);
    };
    auto post = [&](sim::Process &self, int side, const std::uint8_t *msg,
                    sim::Tick handoff) {
        UNet &un = rig.unet(side);
        Endpoint &ep = rig.ep(side);
        SendDescriptor sd;
        sd.channel = rig.chan(side);
        if (rig.atm()) {
            sd.isInline = true;
            sd.inlineLength = kPingBytes;
            std::memcpy(sd.inlineData.data(), msg, kPingBytes);
        } else {
            // U-Net/FE sends only from the buffer area.
            ep.buffers().write({txOffset, kPingBytes}, {msg, kPingBytes});
            sd.fragmentCount = 1;
            sd.fragments[0] = {txOffset, kPingBytes};
        }
        if (tr) {
            // Custody starts where the previous one ended; the
            // application turnaround up to this post is the App hop.
            tr->begin(sd.trace, handoff);
            tr->hop(sd.trace, obs::SpanKind::App, side ? "B.app" : "A.app",
                    s.now());
        }
        bool ok;
        {
            ApiScope api(rec, SpanName::Send);
            ok = un.send(self, ep, sd);
        }
        ApiScope api(rec, SpanName::Flush);
        un.flush(self, ep);
        return ok;
    };
    auto receive = [&](sim::Process &self, int side, RecvDescriptor &rd) {
        ApiScope api(rec, SpanName::Wait);
        return rig.ep(side).wait(self, rd, sim::seconds(1));
    };
    std::vector<std::uint8_t> got;
    auto intact = [&](int side, const RecvDescriptor &rd,
                      const std::uint8_t *want) {
        readPayload(rig.ep(side), rd, got);
        return got.size() == kPingBytes &&
               std::memcmp(got.data(), want, kPingBytes) == 0;
    };

    sim::Process echo(s, "echo", [&](sim::Process &self) {
        UNet &un = rig.unet(1);
        Endpoint &ep = rig.ep(1);
        postFreeBuffers(rec, un, self, ep, 8);
        host::Cpu &cpu = rig.hostOf(1).cpu();
        std::uint8_t want[kPingBytes];
        for (int k = 0; k < rounds; ++k) {
            RecvDescriptor rd;
            if (!receive(self, 1, rd))
                return;
            sim::Tick consumed = s.now();
            compose(k, want);
            if (!intact(1, rd, want))
                ++bad;
            // Examine the message and compose the reply: two memcpys.
            cpu.busy(self, cpu.spec().memcpyTime(kPingBytes));
            recycle(rec, un, self, ep, rd);
            cpu.busy(self, cpu.spec().memcpyTime(kPingBytes));
            if (!post(self, 1, want, consumed))
                ++bad;
        }
    });

    sim::Process ping(s, "ping", [&](sim::Process &self) {
        UNet &un = rig.unet(0);
        Endpoint &ep = rig.ep(0);
        postFreeBuffers(rec, un, self, ep, 8);
        host::Cpu &cpu = rig.hostOf(0).cpu();
        std::uint8_t msg[kPingBytes];
        for (int k = 0; k < rounds; ++k) {
            if (rec)
                rec->setOp(static_cast<std::uint64_t>(k));
            sim::Tick start = s.now();
            compose(k, msg);
            cpu.busy(self, cpu.spec().memcpyTime(kPingBytes));
            if (!post(self, 0, msg, start))
                ++bad;
            RecvDescriptor rd;
            if (!receive(self, 0, rd))
                return;
            rtt.push_back(sim::toMicroseconds(s.now() - start));
            if (!intact(0, rd, msg))
                ++bad;
            recycle(rec, un, self, ep, rd);
        }
    });

    rig.wire(ping, echo);
    Launch launch(s, rec, t0, r);
    echo.start();
    ping.start(sim::microseconds(5));
    s.run();
    launch.finish();

    r.attempted = static_cast<std::uint64_t>(rounds);
    r.completed = rtt.size();
    r.failed = r.attempted - r.completed + bad;
    double busy_us = std::accumulate(rtt.begin(), rtt.end(), 0.0);
    latencyStats(std::move(rtt), r);
    if (busy_us > 0) {
        r.rps = static_cast<double>(r.completed) / busy_us * 1e6;
        r.mbps = static_cast<double>(r.completed) * 2 * kPingBytes * 8 /
                 busy_us;
    }
    double anchor = fabric == Fabric::FeHub ? kAnchorHubUs : kAnchorAtmUs;
    r.paperErrPct = std::abs(r.p50Us - anchor) / anchor * 100.0;
    // Per round: two messages of App, TxPost, Tx*, Wire, Rx*, RxQueue.
    if (tr)
        r.tilingOk = hopsTile(r, 12);
    return r;
}

// ----------------------------------------------------------------- bulk

/**
 * One-way streaming of near-maximum-size messages: the source posts
 * sendv batches of 16 from a rotating set of buffer-area slots and
 * retries the unaccepted tail under send-queue back-pressure; the sink
 * blocks for the first message and drains the rest with pollv. Sizes
 * are drawn per message from the top of the FE payload range; each
 * payload carries its sequence number and seeded bytes. The per-op
 * time is the gap between consecutive deliveries at the sink: in a
 * saturating stream the one-way latency measures buffer depth instead.
 */
PartResult
bulkPart(Fabric fabric, int messages, std::uint64_t seed, Recorder *rec)
{
    PartResult r;
    r.name = std::string("bulk.") + fabricTag(fabric);
    std::int64_t t0 = hostNs();
    std::uint64_t ps = partSeed(seed, r.name);
    sim::Simulation s(ps);
    if (rec)
        s.enableTrace();
    sim::Random rng(ps);
    Pair rig(s, fabric, rng);
    Pattern pattern(rng);
    std::vector<std::uint32_t> sizes(static_cast<std::size_t>(messages));
    for (auto &size : sizes)
        size = static_cast<std::uint32_t>(
            rng.uniform(kBulkMinBytes, kBulkMaxBytes));

    constexpr std::size_t header = 8; // sequence number
    constexpr std::uint32_t slotBytes = 2048;
    std::vector<double> gaps;
    gaps.reserve(static_cast<std::size_t>(messages));
    std::uint64_t delivered = 0, bad = 0;
    double bits = 0;
    sim::Tick firstArrival = -1, lastArrival = -1;

    sim::Process sink(s, "sink", [&](sim::Process &self) {
        UNet &un = rig.unet(1);
        Endpoint &ep = rig.ep(1);
        postFreeBuffers(rec, un, self, ep, 24);
        RecvDescriptor rd[kBulkBatch];
        std::vector<std::uint8_t> got;
        std::uint64_t expect = 0;
        while (delivered < static_cast<std::uint64_t>(messages)) {
            {
                ApiScope api(rec, SpanName::Wait);
                if (!ep.wait(self, rd[0], sim::milliseconds(200)))
                    return; // the stream stalled: the rest count failed
            }
            std::size_t n = 1;
            {
                ApiScope api(rec, SpanName::Pollv);
                n += un.pollv(ep, rd + 1, kBulkBatch - 1);
            }
            for (std::size_t i = 0; i < n; ++i) {
                readPayload(ep, rd[i], got);
                std::uint64_t seq = ~std::uint64_t{0};
                if (got.size() >= header)
                    std::memcpy(&seq, got.data(), header);
                bool ok = seq == expect &&
                          got.size() == sizes[seq] &&
                          std::memcmp(got.data() + header,
                                      pattern.at(seq, got.size() - header),
                                      got.size() - header) == 0;
                if (!ok)
                    ++bad;
                expect = seq + 1;
                ++delivered;
                bits += 8.0 * static_cast<double>(got.size());
                if (lastArrival >= 0)
                    gaps.push_back(sim::toMicroseconds(s.now() - lastArrival));
                else
                    firstArrival = s.now();
                lastArrival = s.now();
                recycle(rec, un, self, ep, rd[i]);
            }
        }
    });

    sim::Process source(s, "source", [&](sim::Process &self) {
        UNet &un = rig.unet(0);
        Endpoint &ep = rig.ep(0);
        const std::uint32_t slots =
            static_cast<std::uint32_t>(ep.buffers().size() / slotBytes);
        SendDescriptor descs[kBulkBatch];
        for (int m = 0; m < messages;) {
            if (rec)
                rec->setOp(static_cast<std::uint64_t>(m));
            std::size_t want = std::min<std::size_t>(
                kBulkBatch, static_cast<std::size_t>(messages - m));
            // Zero-copy contract: never rewrite a slot whose payload
            // the NIC has not read yet.
            while (un.txBacklog(ep) + want + 64 > slots) {
                self.delay(sim::microseconds(20));
                ApiScope api(rec, SpanName::Flush);
                un.flush(self, ep);
            }
            for (std::size_t k = 0; k < want; ++k) {
                std::uint64_t seq = static_cast<std::uint64_t>(m) + k;
                std::uint32_t size = sizes[seq];
                std::uint32_t off =
                    static_cast<std::uint32_t>(seq % slots) * slotBytes;
                auto slot = ep.buffers().span({off, size});
                std::memcpy(slot.data(), &seq, header);
                std::memcpy(slot.data() + header,
                            pattern.at(seq, size - header), size - header);
                descs[k] = SendDescriptor{};
                descs[k].channel = rig.chan(0);
                descs[k].fragmentCount = 1;
                descs[k].fragments[0] = {off, size};
            }
            std::size_t accepted = 0;
            for (;;) {
                {
                    ApiScope api(rec, SpanName::Sendv);
                    accepted += un.sendv(self, ep, descs + accepted,
                                         want - accepted);
                }
                if (accepted == want)
                    break;
                // Send queue full: let the device drain, then retry.
                self.delay(sim::microseconds(20));
                ApiScope api(rec, SpanName::Flush);
                un.flush(self, ep);
            }
            m += static_cast<int>(want);
        }
        while (!ep.sendQueue().empty()) {
            self.delay(sim::microseconds(50));
            ApiScope api(rec, SpanName::Flush);
            un.flush(self, ep);
        }
    });

    EndpointConfig sender;
    sender.bufferAreaBytes = 512 * 1024; // 256 rotating 2 KB slots
    rig.wire(source, sink, sender);
    Launch launch(s, rec, t0, r);
    sink.start();
    source.start(sim::microseconds(5));
    s.run();
    launch.finish();

    r.attempted = static_cast<std::uint64_t>(messages);
    r.completed = delivered;
    r.failed = r.attempted - std::min(delivered, r.attempted) + bad;
    latencyStats(std::move(gaps), r);
    if (delivered > 1 && lastArrival > firstArrival) {
        double secs = sim::toSeconds(lastArrival - firstArrival);
        // The first delivery opens the interval; it carries no gap.
        double first_bits = bits / static_cast<double>(delivered);
        r.rps = static_cast<double>(delivered - 1) / secs;
        r.mbps = (bits - first_bits) / secs / 1e6;
    }
    double anchor =
        fabric == Fabric::FeBay ? kAnchorFeMbps : kAnchorAtmMbps;
    r.paperErrPct = std::abs(r.mbps - anchor) / anchor * 100.0;
    return r;
}

// --------------------------------------------------------------- incast

/**
 * The serving plane's open-loop incast: 64 clients issue Poisson RPCs
 * into one server at @p utilization of the NIC's serving capacity,
 * each timed from its intended issue, optionally under the serve_slo
 * Gilbert-Elliott burst-loss plan at the switch.
 */
PartResult
incastPart(serve::NicKind nic, double utilization, bool loss,
           std::uint64_t seed, Recorder *rec)
{
    PartResult r;
    r.name = std::string("incast.") +
             (nic == serve::NicKind::Fe ? "fe" : "atm") + "_u" +
             std::to_string(static_cast<int>(utilization * 100)) +
             (loss ? "_loss" : "");
    std::uint64_t ps = partSeed(seed, r.name);

    serve::RigSpec spec;
    spec.nic = nic;
    spec.clients = kIncastClients;
    spec.seed = ps;
    sim::Random rng(ps);
    spec.atmLink.propDelay = cableDelay(rng);
    spec.atmLink.cellRateBps *= clockTolerance(rng);
    if (loss)
        spec.faults = "seed=" + std::to_string(ps) +
                      (nic == serve::NicKind::Fe ? " eth.switch"
                                                 : " atm.switch") +
                      ".ge=0.005/0.2/0.8";
    serve::Workload w;
    w.requestsPerClient =
        loss ? kIncastLossRequestsPerClient : kIncastRequestsPerClient;
    double offered = utilization * (nic == serve::NicKind::Fe
                                        ? kCapacityFeRps
                                        : kCapacityAtmRps);
    w.meanGap = static_cast<sim::Tick>(
        static_cast<double>(spec.clients) * 1e12 / offered);

    std::int64_t t0 = hostNs();
    serve::ServeRig rig(spec);
    sim::Simulation &s = rig.simulation();
    if (rec)
        s.enableTrace();
    Launch launch(s, rec, t0, r);
    serve::RunResult out = rig.run(w);
    launch.finish();

    r.attempted = out.issued;
    r.completed = out.completed;
    r.failed = (out.issued - std::min(out.completed, out.issued)) +
               out.dupResponses + (out.finished ? 0 : 1);
    r.samples = out.completed;
    r.p50Us = out.p50Us;
    r.p999Us = out.p999Us;
    r.meanUs = rig.metrics().value("serve.latency_ns.mean") / 1000.0;
    r.rps = out.goodputRps;
    if (out.makespan > 0)
        r.mbps = static_cast<double>(out.completed) *
                 (spec.requestBytes + spec.methods[0].responseBytes) * 8 /
                 sim::toSeconds(out.makespan) / 1e6;
    return r;
}

} // namespace

Counts &
Counts::operator+=(const Counts &o)
{
    nicFrames += o.nicFrames;
    atmCells += o.atmCells;
    ethSwitchDropped += o.ethSwitchDropped;
    atmSwitchDropped += o.atmSwitchDropped;
    amRetransmits += o.amRetransmits;
    amAcks += o.amAcks;
    serveGiveUps += o.serveGiveUps;
    serveDupResponses += o.serveDupResponses;
    serveIssuedLate += o.serveIssuedLate;
    faultDropped += o.faultDropped;
    vepHits += o.vepHits;
    vepFaults += o.vepFaults;
    rxDrops += o.rxDrops;
    for (std::size_t k = 0; k < hopNs.size(); ++k)
        hopNs[k] += o.hopNs[k];
    return *this;
}

bool
parseWorkload(const std::string &name, Workload &out)
{
    if (name == "pingpong")
        out = Workload::Pingpong;
    else if (name == "bulk")
        out = Workload::Bulk;
    else if (name == "incast")
        out = Workload::Incast;
    else
        return false;
    return true;
}

std::vector<PartResult>
runWorkload(Workload w, std::uint64_t seed, Recorder *rec, bool calibrate)
{
    std::vector<std::function<PartResult()>> run;
    switch (w) {
      case Workload::Pingpong:
        run.push_back([=] {
            return pingpongPart(Fabric::FeHub, kPingpongRounds, seed, rec);
        });
        run.push_back([=] {
            return pingpongPart(Fabric::AtmOc3, kPingpongRounds, seed, rec);
        });
        break;
      case Workload::Bulk:
        run.push_back([=] {
            return bulkPart(Fabric::FeBay, kBulkMessages, seed, rec);
        });
        run.push_back([=] {
            return bulkPart(Fabric::AtmTaxi, kBulkMessages, seed, rec);
        });
        break;
      case Workload::Incast:
        run.push_back([=] {
            return incastPart(serve::NicKind::Fe, 0.8, false, seed, rec);
        });
        run.push_back([=] {
            return incastPart(serve::NicKind::Atm, 0.8, false, seed, rec);
        });
        run.push_back([=] {
            return incastPart(serve::NicKind::Fe, 0.5, true, seed, rec);
        });
        break;
    }
    std::vector<PartResult> parts;
    double before = calibrate ? referenceKernelS() : 0.0;
    for (const auto &part : run) {
        parts.push_back(part());
        if (calibrate) {
            double after = referenceKernelS();
            parts.back().refS = (before + after) / 2;
            before = after;
        }
    }
    return parts;
}

double
latencyAnchorErrPct(std::uint64_t seed)
{
    PartResult hub = pingpongPart(Fabric::FeHub, kProbeRounds, seed, nullptr);
    PartResult atm =
        pingpongPart(Fabric::AtmOc3, kProbeRounds, seed, nullptr);
    return (hub.paperErrPct + atm.paperErrPct) / 2;
}

double
currentRssMb()
{
    long resident = 0, size = 0;
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &size, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
