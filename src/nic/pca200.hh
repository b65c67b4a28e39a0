/**
 * @file
 * FORE Systems PCA-200 ATM adapter running U-Net firmware.
 *
 * The PCA-200 "includes an on-board processor which performs the
 * segmentation and reassembly of packets as well as transfers data
 * to/from host memory using DMA". The U-Net implementation "uses custom
 * firmware to implement the U-Net architecture directly on the
 * PCA-200": this class *is* that firmware, executing on the modeled
 * i960 (nic::I960) against the shared unet::Endpoint structures.
 *
 * Queue placement follows the paper: send and free queues live in
 * NIC memory (host pushes via PIO, i960 polls them for free), receive
 * queues live in host memory (i960 pushes via DMA, host polls for
 * free). Transmit polling is weighted — "endpoints with recent
 * activity are polled more frequently". Single-cell receives go
 * straight into the receive-queue entry, skipping buffer allocation.
 */

#ifndef UNET_NIC_PCA200_HH
#define UNET_NIC_PCA200_HH

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "atm/aal5.hh"
#include "atm/link.hh"
#include "fault/fwd.hh"
#include "host/host.hh"
#include "nic/i960.hh"
#include "obs/metrics.hh"
#include "obs/trace_ctx.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "unet/endpoint.hh"
#include "unet/vep/vep.hh"

namespace unet::nic {

/** Timing parameters for the PCA-200 firmware model. */
struct Pca200Spec
{
    /** Poll latency for endpoints with recent send activity. */
    sim::Tick txPollActive = sim::microseconds(1);

    /** Poll latency for idle endpoints. */
    sim::Tick txPollIdle = sim::microseconds(6);

    /** Activity window: endpoints used within this are "active". */
    sim::Tick activityWindow = sim::milliseconds(1);

    /** i960 per-message transmit work (descriptor read, VCI lookup,
     *  DMA setup). Single-cell send totals ~10 us with one cell. */
    sim::Tick txPerMessage = sim::microseconds(8);

    /** i960 per-message transmit work for the followers of a
     *  descriptor train (doorbellTrain): the firmware reads the whole
     *  contiguous train in one burst when it services the head, so
     *  followers skip the per-descriptor queue read and most of the
     *  DMA setup. */
    sim::Tick txPerMessageTrain = sim::microseconds(2);

    /** i960 per-cell transmit work (segmentation, FIFO push). */
    sim::Tick txPerCell = sim::microseconds(2);

    /** Latency from cell-in-FIFO to firmware attention when idle. */
    sim::Tick rxPollLatency = sim::nanoseconds(1500);

    /** i960 cost of a complete single-cell receive (the paper's
     *  "approximately 13 us" for a 40-byte message). */
    sim::Tick rxSingleCell = sim::microseconds(13);

    /** i960 per-cell receive work on the multi-cell path. */
    sim::Tick rxPerCell = sim::microsecondsF(2.2);

    /** Extra first-cell work: allocate a buffer from the free queue
     *  in NIC memory and set up the reassembly state. */
    sim::Tick rxFirstCellExtra = sim::microseconds(12);

    /** Extra last-cell work: CRC check (hardware), build + DMA the
     *  multi-buffer receive descriptor to host memory. */
    sim::Tick rxLastCellExtra = sim::microseconds(12);

    /** Input FIFO depth in cells. */
    std::size_t rxFifoCells = 256;

    /** Single-cell receives bypass buffer allocation and go straight
     *  into the receive-queue entry (ablation knob). */
    bool singleCellOptimization = true;

    /** Endpoint virtualization: hot-set capacity in adapter SRAM and
     *  page-in/out fault costs (the i960 DMAs cold endpoint state in
     *  from host memory on a doorbell or demux miss). */
    vep::VepSpec vep;
};

/** The adapter + firmware. */
class Pca200 : public atm::CellSink
{
  public:
    /**
     * @param host Host whose bus and memory the adapter masters.
     * @param link Fiber to attach to.
     */
    Pca200(host::Host &host, atm::AtmLink &link, Pca200Spec spec = {});

    const Pca200Spec &spec() const { return _spec; }
    I960 &i960() { return coproc; }

    /** @name Driver (host) interface — via the command queue. @{ */

    /** Make the firmware service this endpoint's queues. */
    void attachEndpoint(Endpoint *ep);

    /** Forget an endpoint (destroy). Panics while the firmware is
     *  servicing its send queue or a VCI still routes to it. */
    void detachEndpoint(Endpoint &ep);

    /** Endpoint hot set in adapter SRAM (residency, faults, pins). */
    vep::ResidencyCache &residency() { return _residency; }
    const vep::ResidencyCache &residency() const { return _residency; }

    /** Install receive demux: cells on @p vci go to (@p ep, @p chan). */
    void installVci(atm::Vci vci, Endpoint *ep, ChannelId chan);

    /** Remove a receive demux entry. */
    void removeVci(atm::Vci vci);

    /** Doorbell: the host pushed onto @p ep's (NIC-resident) send
     *  queue. The i960 will poll it per the weighted schedule. */
    void doorbell(Endpoint *ep);

    /**
     * Doorbell for a contiguous train of @p n descriptors pushed in
     * one burst (sendv). One firmware poll services the head at full
     * per-message cost; the n-1 followers are read out of the same
     * burst and cost Pca200Spec::txPerMessageTrain each. A train of
     * one is exactly doorbell().
     */
    void doorbellTrain(Endpoint *ep, std::size_t n);

    /** @} */

    /** @name Statistics. @{ */
    std::uint64_t cellsSent() const { return _cellsSent.value(); }
    std::uint64_t cellsReceived() const { return _cellsRecv.value(); }
    std::uint64_t messagesSent() const { return _msgsSent.value(); }
    std::uint64_t messagesDelivered() const { return _msgsDeliv.value(); }
    std::uint64_t fifoOverflows() const { return _fifoOverflow.value(); }
    std::uint64_t noBufferDrops() const { return _noBuffer.value(); }
    std::uint64_t badVciCells() const { return _badVci.value(); }
    std::uint64_t crcDrops() const { return _crcDrops.value(); }
    /** @} */

    /** atm::CellSink: a cell arrived from the fiber. */
    void cellArrived(const atm::Cell &cell) override;

    /** Fault plane: interpose on cells entering the adapter's input
     *  FIFO. Honours drop and corrupt (a flipped payload bit trips the
     *  AAL5 CRC at reassembly); duplication and delay are ignored here
     *  to preserve FIFO service order. Null detaches. */
    void setRxFaultInjector(fault::Injector *inj) { rxFaultInjector = inj; }

  private:
    struct EpState
    {
        Endpoint *ep = nullptr;
        sim::Tick lastActive = -1;
        bool txScheduled = false;

        /** Descriptor-train followers still eligible for the cheap
         *  txPerMessageTrain read (set by doorbellTrain, consumed by
         *  self-chained serviceTx pops, cleared when the queue runs
         *  dry). */
        std::size_t trainRemaining = 0;

        /** Reusable poll event (the endpoints map gives EpState a
         *  stable address, so the closure can capture it). */
        std::optional<sim::MemberEvent> txService;

        /** Per-endpoint transmit staging, reused across messages (one
         *  message is in flight per endpoint at a time). */
        std::vector<std::uint8_t> txPayload;
        std::vector<atm::Cell> txCells;
        std::size_t txCellIdx = 0;

        /** Custody state of the message being segmented. */
        obs::TraceContext txTrace;
    };

    /** Per-VC receive reassembly state. */
    struct VcState
    {
        Endpoint *ep = nullptr;
        ChannelId channel = invalidChannel;
        atm::aal5::Reassembler reasm;
        std::vector<BufferRef> buffers;
        std::uint32_t filled = 0;
        bool firstCellSeen = false;
        bool poisoned = false; ///< dropping until end-of-PDU

        /** Custody state from the PDU's final cell. */
        obs::TraceContext trace;
    };

    void scheduleTxService(EpState &state);

    /** Pop and transmit the next queued message. @p chained marks a
     *  pop the firmware performs while already at the queue (message
     *  self-chaining); only chained pops may take the descriptor-train
     *  discount. */
    void serviceTx(EpState &state, bool chained = false);
    void transmitMessage(EpState &state, const SendDescriptor &desc,
                         sim::Tick per_msg);
    void emitNextCell(EpState &state);
    void serviceRxFifo();
    void handleCell(const atm::Cell &cell);
    void completePdu(VcState &vc, std::vector<std::uint8_t> payload);

    host::Host &host;
    Pca200Spec _spec;
    I960 coproc;
    vep::ResidencyCache _residency;
    atm::CellTap *tap;
    fault::Injector *rxFaultInjector = nullptr;

    /** Keyed by Endpoint::id() — a stable integral key, so iteration
     *  order is schedule- and address-independent. std::map for node
     *  stability: the txService closures, epIndex, and vciIndex all
     *  hold addresses of the values. */
    std::map<std::size_t, EpState> endpoints;
    std::map<atm::Vci, VcState> vcs;

    /** Flat handles onto the map nodes for the hot paths: the
     *  doorbell indexes by Endpoint::id(), the per-cell receive demux
     *  indexes by VCI (16-bit, so the table stays small even full). */
    std::vector<EpState *> epIndex;
    std::vector<VcState *> vciIndex;

    sim::SlotRing<atm::Cell> rxFifo;
    sim::MemberEvent rxService; ///< reusable rx-poll event
    bool rxServiceScheduled = false;

    sim::Counter _cellsSent;
    sim::Counter _cellsRecv;
    sim::Counter _msgsSent;
    sim::Counter _msgsDeliv;
    sim::Counter _fifoOverflow;
    sim::Counter _noBuffer;
    sim::Counter _badVci;
    sim::Counter _crcDrops;

    /** Trace track names (interned lazily by the session). */
    std::string _trackCpu;
    std::string _trackFw;

    obs::MetricGroup _metrics;
};

} // namespace unet::nic

#endif // UNET_NIC_PCA200_HH
