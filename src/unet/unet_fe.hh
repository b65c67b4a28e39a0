/**
 * @file
 * U-Net over Fast Ethernet: the in-kernel implementation.
 *
 * "Although U-Net cannot be implemented directly on the Fast Ethernet
 * interface itself due to the lack of a programmable co-processor, the
 * kernel trap and interrupt handler timings demonstrate that the U-Net
 * model is well-suited to a low-overhead in-kernel implementation."
 *
 * Transmit: the application pushes a descriptor onto the endpoint's
 * send queue and issues a fast trap; the kernel service routine walks
 * the queue, builds an Ethernet+U-Net header in a kernel buffer, points
 * a DC21140 ring descriptor at (header, user buffer) — zero copy — and
 * issues a transmit poll demand. The per-step costs are the Figure 3
 * timeline, summing to ~4.2 us of processor overhead.
 *
 * Receive: the DC21140 interrupt handler demultiplexes on the one-byte
 * U-Net port in the header and copies the payload into the destination
 * endpoint's buffer area (or directly into the receive descriptor for
 * messages under 64 bytes). Per-step costs are the Figure 4 timeline:
 * ~4.1 us for a 40-byte message, plus 1.42 us per additional 100 bytes
 * of copy at the Pentium's 70 MB/s.
 */

#ifndef UNET_UNET_UNET_FE_HH
#define UNET_UNET_UNET_FE_HH

#include <array>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nic/dc21140.hh"
#include "unet/unet.hh"

namespace unet {

/** Calibration constants for the kernel code paths. */
struct UNetFeSpec
{
    /** @name Figure 3: transmit trap steps (trap entry/exit come from
     *  the CpuSpec). @{ */
    sim::Tick txCheckParams = sim::nanoseconds(740);
    sim::Tick txEthHeaderSetup = sim::nanoseconds(370);
    sim::Tick txRingDescSetup = sim::nanoseconds(560);
    sim::Tick txPollDemand = sim::nanoseconds(920);
    sim::Tick txFreePrevRing = sim::nanoseconds(420);
    sim::Tick txFreePrevQueue = sim::nanoseconds(350);
    /** @} */

    /** @name Figure 4: receive interrupt steps. @{ */
    sim::Tick rxHandlerEntry = sim::nanoseconds(380);
    sim::Tick rxPollRing = sim::nanoseconds(520);
    sim::Tick rxDemux = sim::nanoseconds(480);
    sim::Tick rxInitDescr = sim::nanoseconds(600);
    sim::Tick rxAllocBuffer = sim::nanoseconds(710);
    sim::Tick rxInitDescrPtrs = sim::nanoseconds(550);
    sim::Tick rxBumpRing = sim::nanoseconds(400);
    sim::Tick rxReturn = sim::nanoseconds(400);
    /** @} */

    /** User-level cost of pushing a descriptor onto the send queue. */
    sim::Tick userDescriptorPush = sim::nanoseconds(200);

    /** User-level cost of posting a free buffer. */
    sim::Tick userFreePost = sim::nanoseconds(150);

    /** Signal-delivery latency for the upcall receive model. */
    sim::Tick upcallLatency = sim::microseconds(30);

    /** Endpoint virtualization: hot-set capacity in the kernel's
     *  pinned NIC-adjacent memory and page-in/out fault costs. */
    vep::VepSpec vep;

    /** EtherType carried by U-Net/FE frames. */
    std::uint16_t etherType = 0x88B5;

    /** @name Ablation knobs. @{ */

    /** Copy sub-64-byte messages straight into the receive descriptor
     *  (the paper's small-message optimization). */
    bool smallMessageOptimization = true;

    /** Charge the receive-path copy into the user buffer area. Turning
     *  this off models the zero-copy receive a co-processor enables
     *  ("eliminating a costly copy"). */
    bool chargeRxCopy = true;

    /** Encapsulate messages in IPv4 to cross routers (the paper's
     *  scalability fix, "however, this would add considerable
     *  communication overhead"). */
    bool ipv4Encapsulation = false;

    /** Extra kernel work per packet when IPv4 encapsulation is on
     *  (header build/parse + checksum). */
    sim::Tick ipv4Cost = sim::microseconds(2);

    /** @} */

    /** IPv4 header bytes added per frame when encapsulating. */
    static constexpr std::size_t ipv4HeaderBytes = 20;

    std::size_t
    extraHeaderBytes() const
    {
        return ipv4Encapsulation ? ipv4HeaderBytes : 0;
    }
};

/** The U-Net/FE kernel agent on one host. */
class UNetFe : public UNet
{
  public:
    /** Bytes of U-Net header inside the Ethernet payload:
     *  dst port, src port, 16-bit length, 2 reserved. A 40-byte message
     *  thus fills a 60-byte frame, as in the paper. */
    static constexpr std::size_t unetHeaderBytes = 6;

    /** Largest single message: the Ethernet payload minus our header
     *  (the paper quotes 1498 with its 2-byte minimum header; with the
     *  full 6-byte header the ceiling is 1494). IPv4 encapsulation
     *  takes its header out of this (maxMessageBytes()). */
    static constexpr std::size_t maxMessage =
        eth::Frame::maxPayload - unetHeaderBytes;

    UNetFe(host::Host &host, nic::Dc21140 &nic, UNetFeSpec spec = {});

    std::string name() const override { return "U-Net/FE"; }
    std::size_t inlineMax() const override { return smallMessageMax; }

    Endpoint &createEndpoint(const sim::Process *owner,
                             const EndpointConfig &config) override;

    void flush(sim::Process &proc, Endpoint &ep) override;

    /** Send-queue entries plus device-ring descriptors the DC21140 has
     *  not yet gathered (the ring is shared; the count is conservative
     *  across endpoints, which is safe for the zero-copy contract). */
    std::size_t txBacklog(const Endpoint &ep) const override;

    /** The U-Net port assigned to @p ep at creation. */
    PortId portOf(const Endpoint &ep) const;

    /** Register a channel to a remote (MAC, port) tag on @p ep. */
    ChannelId addChannelTo(Endpoint &ep, eth::MacAddress remote_mac,
                           PortId remote_port);

    /**
     * OS-service channel setup between two endpoints on two hosts:
     * registers tags on both sides and returns each side's channel id.
     */
    static void connect(UNetFe &a, Endpoint &ep_a, UNetFe &b,
                        Endpoint &ep_b, ChannelId &chan_a,
                        ChannelId &chan_b);

    const UNetFeSpec &spec() const { return _spec; }
    nic::Dc21140 &nic() { return _nic; }

    /** Endpoint hot set (residency, faults, pins). */
    vep::ResidencyCache &residency() { return _residency; }
    const vep::ResidencyCache &residency() const { return _residency; }

    /** @name Statistics. @{ */
    std::uint64_t messagesSent() const { return _sent.value(); }
    std::uint64_t messagesDelivered() const { return _delivered.value(); }
    std::uint64_t rxNoFreeBuffer() const { return _noFreeBuf.value(); }
    std::uint64_t rxUnknownPort() const { return _unknownPort.value(); }
    std::uint64_t rxNoChannel() const { return _noChannel.value(); }
    std::uint64_t rxBadFrame() const { return _badFrame.value(); }
    /** @} */

  private:
    /** Tear down port/demux/residency state before the id retires. */
    void onDestroyEndpoint(Endpoint &ep) override;

    /**
     * One fast trap services the whole submission. A batch (n > 1) is
     * drained under a single trap-entry/exit pair with ONE transmit
     * poll demand after the last ring descriptor is published, so the
     * Figure-3 fixed costs (trap entry, poll demand, trap exit) are
     * paid once per batch instead of once per message.
     */
    std::size_t submit(sim::Process &proc, Endpoint &ep,
                       const SendDescriptor *descs,
                       std::size_t n) override;

    /**
     * Kernel service routine for the send queue (runs in the trap).
     * With @p coalesce the drain charges its accumulated cost in one
     * lump and issues a single poll demand after the last descriptor;
     * without it (a single send, a flush) each message is charged and
     * kicked individually.
     */
    void serviceSendQueue(sim::Process &proc, Endpoint &ep,
                          bool coalesce = false);

    /** DC21140 receive interrupt handler. */
    void rxInterrupt();

    /** DC21140 TX completion hook (the slot's own bit was just
     *  cleared): release the user fragment the slot referenced. */
    void reapTxSlot(std::size_t slot);

    /**
     * Account one modeled kernel step: advance the accumulated cost
     * and, when tracing, record a Step detail span at the position the
     * step occupies on the Figure 3/4 timeline (the accumulated cost is
     * charged to the CPU in one lump after the steps, so span @p msg's
     * wall placement is @p base + what accumulated before it).
     */
    void
    step(const obs::TraceContext &ctx, sim::Tick base, const char *stage,
         sim::Tick cost, sim::Tick &acc)
    {
        if (auto *tr = _host.simulation().trace())
            tr->record(ctx.id, obs::SpanKind::Step, _trackCpu,
                       base + acc, base + acc + cost, stage);
        acc += cost;
    }

    UNetFeSpec _spec;
    nic::Dc21140 &_nic;

    /** Per-endpoint state the kernel keeps. */
    struct EpState
    {
        Endpoint *ep = nullptr;
        PortId port = 0;
        /** (remote MAC << 8 | remote port) -> channel id, kept sorted
         *  by key: the rx demux binary-searches it, channel setup
         *  inserts into it. */
        std::vector<std::pair<std::uint64_t, ChannelId>> demux;
    };

    /** Keyed by Endpoint::id() — a stable integral key, so iteration
     *  order is schedule- and address-independent. std::map for node
     *  stability: portTable/epIndex hold pointers into the values. */
    std::map<std::size_t, EpState> epState;

    /** Flat id-keyed handles onto epState nodes for the hot paths:
     *  send-queue service indexes by Endpoint::id(), the rx interrupt
     *  demuxes by the one-byte U-Net port (the port space IS the
     *  array, so "unknown port" is a null entry, not a map miss). */
    std::vector<EpState *> epIndex;
    std::array<EpState *, 256> portTable{};
    std::size_t portsAssigned = 0;
    PortId nextPort = 0;

    /** Ports released by destroyed endpoints, reused LIFO. */
    std::vector<PortId> _freePorts;

    /** Which endpoints' kernel state is resident right now. */
    vep::ResidencyCache _residency;

    /** Kernel header buffers, one per TX ring slot. */
    std::vector<std::size_t> headerBufOffset;

    /** User fragment each TX ring slot references while the device owns
     *  it (ownership tracking: released when the slot completes). */
    std::vector<std::optional<std::pair<Endpoint *, BufferRef>>>
        txSlotFrag;

    /** TX ring slots the device owns: counted up when the trap
     *  publishes a descriptor, down by its completion writeback. */
    std::size_t _txOwned = 0;

    /** Kernel receive buffers behind the device RX ring. */
    std::size_t kernelRxHead = 0;

    sim::Counter _sent;
    sim::Counter _delivered;
    sim::Counter _noFreeBuf;
    sim::Counter _unknownPort;
    sim::Counter _noChannel;
    sim::Counter _badFrame;

    /** Trace track for kernel-agent work on this host. */
    std::string _trackCpu;

    obs::MetricGroup _metrics;
};

} // namespace unet

#endif // UNET_UNET_UNET_FE_HH
