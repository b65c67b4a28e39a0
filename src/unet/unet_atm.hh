/**
 * @file
 * U-Net over ATM: the host-side driver for the PCA-200 firmware.
 *
 * With the U-Net architecture implemented *on* the adapter, the host's
 * role shrinks to posting descriptors: "to send a message, the host
 * stores the U-Net send descriptor into the i960-resident transmit
 * queue using a double-word store" — about 1.5 us of processor
 * overhead, versus 4.2 us for the U-Net/FE trap. Receives need no host
 * work at all until the application polls its (host-memory-resident)
 * receive queue. The price is the slow i960 in the latency path
 * (~10 us send, ~13 us receive).
 */

#ifndef UNET_UNET_UNET_ATM_HH
#define UNET_UNET_UNET_ATM_HH

#include <string>

#include "atm/fabric.hh"
#include "atm/switch.hh"
#include "nic/pca200.hh"
#include "unet/unet.hh"

namespace unet {

/** Host-side costs of the U-Net/ATM driver. */
struct UNetAtmSpec
{
    /** Total host processor overhead of posting a send ("about
     *  1.5 usec" on the SPARC, dominated by PIO across the bus). */
    sim::Tick sendPost = sim::microsecondsF(1.5);

    /** Host cost of each descriptor after the first in a sendv burst:
     *  the stores write-combine into one bus transaction train, so the
     *  per-descriptor PIO round-trip is paid once per burst. */
    sim::Tick sendPostBatch = sim::nanoseconds(600);

    /** Host cost of pushing a free buffer into NIC memory. */
    sim::Tick freePost = sim::nanoseconds(500);

    /** Signal-delivery latency for the upcall receive model. */
    sim::Tick upcallLatency = sim::microseconds(40);
};

/** The U-Net/ATM instance on one host. */
class UNetAtm : public UNet
{
  public:
    /** Largest single message: the AAL5 MTU ("the maximum packet size
     *  is 65 KBytes"). */
    static constexpr std::size_t maxMessage = atm::aal5::maxPdu;

    UNetAtm(host::Host &host, nic::Pca200 &nic, UNetAtmSpec spec = {});

    std::string name() const override { return "U-Net/ATM"; }
    std::size_t inlineMax() const override { return singleCellMax; }

    Endpoint &createEndpoint(const sim::Process *owner,
                             const EndpointConfig &config) override;

    /** The firmware gathers payload bytes synchronously when it pops a
     *  descriptor, so the backlog is exactly the send queue. */
    std::size_t
    txBacklog(const Endpoint &ep) const override
    {
        return ep.sendQueue().size();
    }

    /** The i960 drains the send queue autonomously; a flush is just a
     *  doorbell in case the poll got descheduled. */
    void
    flush(sim::Process &proc, Endpoint &ep) override
    {
        if (checkOwner(proc, ep) && !ep.sendQueue().empty())
            _nic.doorbell(&ep);
    }

    /** Register a channel sending and receiving on local VCI @p vci. */
    ChannelId addChannelTo(Endpoint &ep, atm::Vci vci);

    /**
     * OS-service channel setup across an ATM switch: performs the
     * signalling (VCI allocation + route installation) and registers
     * the demux entries with both adapters.
     *
     * @param port_a/port_b are the switch ports the two hosts' links
     *        occupy.
     */
    static void connect(UNetAtm &a, Endpoint &ep_a, std::size_t port_a,
                        UNetAtm &b, Endpoint &ep_b, std::size_t port_b,
                        atm::Signalling &signalling, ChannelId &chan_a,
                        ChannelId &chan_b);

    /**
     * Channel setup over a direct (switchless) link: both sides share
     * one VCI.
     */
    static void connectDirect(UNetAtm &a, Endpoint &ep_a, UNetAtm &b,
                              Endpoint &ep_b, atm::Vci vci,
                              ChannelId &chan_a, ChannelId &chan_b);

    /**
     * Channel setup across a multi-switch fabric: the VC is routed
     * network-wide ("virtual circuits are established network-wide"),
     * so endpoints on different switches can talk — the scalability
     * edge the paper credits ATM with over U-Net/FE's flat MAC tags.
     */
    static void connectFabric(UNetAtm &a, Endpoint &ep_a,
                              atm::Fabric::HostAttachment at_a,
                              UNetAtm &b, Endpoint &ep_b,
                              atm::Fabric::HostAttachment at_b,
                              atm::Fabric &fabric, ChannelId &chan_a,
                              ChannelId &chan_b);

    const UNetAtmSpec &spec() const { return _spec; }
    nic::Pca200 &nic() { return _nic; }

    /** @name Statistics. @{ */
    std::uint64_t messagesPosted() const { return _posted.value(); }
    /** @} */

  private:
    /** Detach the endpoint from the firmware before the id retires. */
    void onDestroyEndpoint(Endpoint &ep) override;

    /**
     * The descriptors are stored into the NIC-resident send queue as
     * one PIO burst (first store at full sendPost cost, followers at
     * sendPostBatch) and the firmware is handed ONE contiguous
     * descriptor train — a single i960 poll drains the whole batch,
     * with followers read at the cheap Pca200Spec::txPerMessageTrain
     * rate. A train of one is a plain doorbell.
     */
    std::size_t submit(sim::Process &proc, Endpoint &ep,
                       const SendDescriptor *descs,
                       std::size_t n) override;

    UNetAtmSpec _spec;
    nic::Pca200 &_nic;
    sim::Counter _posted;

    obs::MetricGroup _metrics;
};

} // namespace unet

#endif // UNET_UNET_UNET_ATM_HH
