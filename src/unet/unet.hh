/**
 * @file
 * The U-Net architecture interface.
 *
 * UNet "virtualizes the network interface in such a way that ... every
 * application [has] the illusion of owning the interface". The two
 * implementations (UNetFe, UNetAtm) expose the same operations; they
 * differ in who services the queues (kernel trap handler vs NIC
 * firmware) and in what the doorbell costs the host processor.
 */

#ifndef UNET_UNET_UNET_HH
#define UNET_UNET_UNET_HH

#include <memory>
#include <string>
#include <vector>

#include "check/access.hh"
#include "host/host.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "unet/endpoint.hh"
#include "unet/types.hh"
#include "unet/vep/vep.hh"

namespace unet {

/** Abstract U-Net instance on one host. */
class UNet
{
  public:
    /**
     * @param max_message_bytes Largest single message the substrate
     *        accepts (maxMessageBytes()).
     * @param free_post_cost    Processor time an application spends
     *        posting one free buffer.
     */
    UNet(host::Host &host, std::size_t max_message_bytes,
         sim::Tick free_post_cost)
        : _host(host), _maxMessageBytes(max_message_bytes),
          _freePostCost(free_post_cost)
    {
        _table.guard().setLabel(host.name() + ".eptable");
    }
    virtual ~UNet() = default;

    UNet(const UNet &) = delete;
    UNet &operator=(const UNet &) = delete;

    /** Implementation name for reporting. */
    virtual std::string name() const = 0;

    /** Largest message that can travel inline in a descriptor (the
     *  small-message optimization threshold of this substrate). */
    virtual std::size_t inlineMax() const = 0;

    /** Largest single U-Net message on this substrate; send and
     *  sendv panic on a longer descriptor. */
    std::size_t maxMessageBytes() const { return _maxMessageBytes; }

    /**
     * Create an endpoint owned by @p owner. Called via the OS service
     * (a system call); applications do not call this directly.
     */
    virtual Endpoint &createEndpoint(const sim::Process *owner,
                                     const EndpointConfig &config) = 0;

    /**
     * Destroy @p ep: the implementation tears down its NIC-side state
     * (port/VCI demux entries, residency) and the table retires the
     * id. Destroying an endpoint with in-flight custody (a device ring
     * slot or the firmware mid-message) is a model bug and panics.
     * Called via the OS service, like createEndpoint.
     */
    void
    destroyEndpoint(Endpoint &ep)
    {
        onDestroyEndpoint(ep);
        _table.destroy(ep.id());
    }

    /**
     * Post a send: push @p desc onto the endpoint's send queue and ring
     * the implementation's doorbell (fast trap / PIO store), charging
     * the calling process its share of processor time. An untraced
     * descriptor is stamped with a fresh trace id while a TraceSession
     * is enabled. This is submit() of one descriptor.
     *
     * @return false if the descriptor was rejected (full queue, invalid
     *         channel, or protection fault).
     */
    bool send(sim::Process &proc, Endpoint &ep, const SendDescriptor &desc);

    /**
     * Batched submission: post @p n descriptors onto the endpoint's
     * send queue and ring the doorbell ONCE for the whole batch, so
     * the fixed per-operation cost (trap or PIO doorbell, service
     * kick) is amortized over the batch.
     *
     * Semantics:
     *  - send() and sendv() reach the same submit() path; sendv with
     *    n == 1 is send() — trace- and digest-identical by
     *    construction;
     *  - descriptors are accepted in order and submission stops at the
     *    first rejection (full send queue, invalid channel);
     *  - posting more descriptors than the send queue can ever hold is
     *    a programming error and panics (the batch could never be
     *    accepted — the caller's batching is broken, not backpressured).
     *
     * @return the number of descriptors accepted (0..n).
     */
    std::size_t sendv(sim::Process &proc, Endpoint &ep,
                      const SendDescriptor *descs, std::size_t n);

    /**
     * Batched completion: drain up to @p max receive descriptors from
     * @p ep in one call (one custody window instead of max). The
     * batch=1 case is semantically identical to Endpoint::poll().
     * @return the number of descriptors written to @p out.
     */
    std::size_t
    pollv(Endpoint &ep, RecvDescriptor *out, std::size_t max)
    {
        return ep.pollv(out, max);
    }

    /**
     * Hand a receive buffer to the free queue, charging the calling
     * process the substrate's per-post cost.
     * @return false if the free queue is full or the caller does not
     *         own the endpoint.
     */
    bool postFree(sim::Process &proc, Endpoint &ep, BufferRef buf);

    /**
     * Re-kick the servicing agent for descriptors still sitting in the
     * send queue (e.g. after device-ring backpressure). A no-op when
     * the queue is already being drained autonomously.
     */
    virtual void flush(sim::Process &proc, Endpoint &ep) = 0;

    /**
     * Number of posted send descriptors whose payload bytes have NOT
     * yet been read out of the buffer area (still in the send queue or
     * in a device ring). While this is non-zero, an application must
     * not overwrite buffer-area regions referenced by posted
     * descriptors — the contract any zero-copy interface imposes.
     */
    virtual std::size_t txBacklog(const Endpoint &ep) const = 0;

    host::Host &host() { return _host; }

    /** Sends rejected because the caller does not own the endpoint. */
    std::uint64_t protectionFaults() const { return _protFaults.value(); }

    /** Every endpoint on this instance (materialized and cold). */
    vep::EndpointTable &table() { return _table; }
    const vep::EndpointTable &table() const { return _table; }

  protected:
    /**
     * Post 1..capacity descriptors that carry their trace contexts and
     * passed the caller, owner and length checks, ringing the doorbell
     * once. @return the number accepted.
     */
    virtual std::size_t submit(sim::Process &proc, Endpoint &ep,
                               const SendDescriptor *descs,
                               std::size_t n) = 0;

    /** Implementation hook run before the table retires the id. */
    virtual void onDestroyEndpoint(Endpoint &ep) { (void)ep; }

    /** Owner check shared by implementations. */
    bool
    checkOwner(const sim::Process &proc, const Endpoint &ep)
    {
        if (ep.owner() != &proc) {
            ++_protFaults;
            return false;
        }
        return true;
    }

    host::Host &_host;
    vep::EndpointTable _table;
    sim::Counter _protFaults;

  private:
    /** The checks every send shares, then submit(). */
    std::size_t post(sim::Process &proc, Endpoint &ep,
                     const SendDescriptor *descs, std::size_t n);

    std::size_t _maxMessageBytes;
    sim::Tick _freePostCost;
};

inline std::size_t
UNet::post(sim::Process &proc, Endpoint &ep, const SendDescriptor *descs,
           std::size_t n)
{
    check::assertCaller(proc, "UNet::send");
    if (!checkOwner(proc, ep))
        return 0;
    for (std::size_t i = 0; i < n; ++i)
        if (descs[i].totalLength() > _maxMessageBytes)
            UNET_PANIC(name(), " message of ", descs[i].totalLength(),
                       " bytes exceeds the ", _maxMessageBytes,
                       "-byte maximum");
    return submit(proc, ep, descs, n);
}

inline bool
UNet::send(sim::Process &proc, Endpoint &ep, const SendDescriptor &desc)
{
    // The caller's descriptor is const, so custody tracking rides on a
    // copy.
    if (auto *tr = _host.simulation().trace(); tr && !desc.trace) {
        SendDescriptor traced = desc;
        tr->begin(traced.trace, _host.simulation().now());
        return post(proc, ep, &traced, 1) == 1;
    }
    return post(proc, ep, &desc, 1) == 1;
}

inline std::size_t
UNet::sendv(sim::Process &proc, Endpoint &ep, const SendDescriptor *descs,
            std::size_t n)
{
    if (n > ep.sendQueue().capacity())
        UNET_PANIC("sendv of ", n, " descriptors exceeds the ",
                   ep.sendQueue().capacity(),
                   "-entry send queue window");
    if (n == 0)
        return 0;
    if (auto *tr = _host.simulation().trace()) {
        std::vector<SendDescriptor> traced(descs, descs + n);
        for (auto &desc : traced)
            if (!desc.trace)
                tr->begin(desc.trace, _host.simulation().now());
        return post(proc, ep, traced.data(), n);
    }
    return post(proc, ep, descs, n);
}

inline bool
UNet::postFree(sim::Process &proc, Endpoint &ep, BufferRef buf)
{
    check::assertCaller(proc, "UNet::postFree");
    if (!checkOwner(proc, ep))
        return false;
    if (!ep.buffers().contains(buf))
        UNET_PANIC("free buffer outside the endpoint buffer area");
    _host.cpu().busy(proc, _freePostCost);
    ep.freeGuard().mutate("postFree");
    return ep.postFree(buf);
}

} // namespace unet

#endif // UNET_UNET_UNET_HH
