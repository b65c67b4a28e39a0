/**
 * @file
 * Ablation: full- vs half-duplex switched Fast Ethernet.
 *
 * "Such a private link can be a full-duplex link which allows a host
 * to simultaneously send and receive messages (as opposed to a shared
 * half-duplex link) and thus doubles the aggregate network bandwidth."
 * This bench runs simultaneous bidirectional bulk traffic through the
 * switch in both modes and reports the aggregate goodput.
 */

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

namespace {

constexpr std::size_t msgBytes = 1400;
constexpr int messages = 200;

double
bidirectionalMbps(bool full_duplex)
{
    RigOptions opts;
    opts.switchSpec.fullDuplex = full_duplex;

    sim::Simulation s;
    RawPair rig(s, Fabric::FeBay, opts);

    int delivered = 0;
    sim::Tick first = -1, last = -1;

    auto consume = [&](UNet &un, sim::Process &self, Endpoint &ep,
                       const RecvDescriptor &rd) {
        if (first < 0)
            first = s.now();
        last = s.now();
        ++delivered;
        if (!rd.isSmall)
            for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
                un.postFree(self, ep, {rd.buffers[i].offset, 2048});
    };

    auto node = [&](int side) {
        return [&, side](sim::Process &self) {
            auto &un = rig.unetOf(side);
            auto &ep = rig.ep(side);
            for (int i = 0; i < 16; ++i)
                un.postFree(self, ep,
                            {static_cast<std::uint32_t>(i * 2048),
                             2048});
            int sent = 0, got = 0;
            RecvDescriptor rd;
            while (sent < messages || got < messages) {
                // Drain anything pending.
                while (ep.poll(rd)) {
                    ++got;
                    consume(un, self, ep, rd);
                }
                if (sent < messages) {
                    // Rotate over 128 disjoint TX regions, one per
                    // descriptor that can be outstanding (send queue
                    // plus device TX ring), so no zero-copy send is
                    // re-posted while the device still holds it.
                    const auto tx_off = static_cast<std::uint32_t>(
                        40000 + (sent % 128) * msgBytes);
                    if (rawSend(un, self, ep, rig.chan(side), msgBytes,
                                tx_off)) {
                        ++sent;
                    } else {
                        self.delay(sim::microseconds(20));
                        un.flush(self, ep);
                    }
                } else {
                    un.flush(self, ep);
                    if (!ep.wait(self, rd, sim::milliseconds(20)))
                        break; // peer stalled out; report what we saw
                    ++got;
                    consume(un, self, ep, rd);
                }
            }
        };
    };

    sim::Process a(s, "a", node(0));
    sim::Process b(s, "b", node(1));
    rig.wire(a, b);
    a.start();
    b.start();
    s.run();

    if (delivered < 2 || last <= first)
        return 0;
    return (delivered - 1) * msgBytes * 8.0 /
        sim::toSeconds(last - first) / 1e6;
}

} // namespace

int
main()
{
    double full = bidirectionalMbps(true);
    double half = bidirectionalMbps(false);
    std::printf("Ablation: switched FE duplex mode "
                "(bidirectional 1400-byte stream)\n\n");
    std::printf("full duplex aggregate: %6.1f Mbit/s\n", full);
    std::printf("half duplex aggregate: %6.1f Mbit/s\n", half);
    std::printf("ratio:                 %6.2fx   (paper: full duplex "
                "\"doubles the aggregate network bandwidth\")\n",
                half > 0 ? full / half : 0.0);
    return 0;
}
