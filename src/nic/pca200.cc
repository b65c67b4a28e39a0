#include "nic/pca200.hh"

#include "check/hb/auditor.hh"
#include "fault/fault.hh"
#include "sim/logging.hh"

namespace unet::nic {

using namespace sim::literals;

Pca200::Pca200(host::Host &host, atm::AtmLink &link, Pca200Spec spec)
    : host(host), _spec(spec), coproc(host.simulation()),
      _residency(host.simulation(), spec.vep,
                 "host." + host.name() + ".unet.vep"),
      tap(&link.attach(*this)),
      rxService(host.simulation().events(), [this] { serviceRxFifo(); }),
      _trackCpu(host.name() + ".cpu"), _trackFw(host.name() + ".fw"),
      _metrics(host.simulation().metrics(),
               host.simulation().metrics().uniquePrefix(
                   "host." + host.name() + ".nic.pca200"))
{
    _metrics.counter("cellsSent", _cellsSent);
    _metrics.counter("cellsReceived", _cellsRecv);
    _metrics.counter("messagesSent", _msgsSent);
    _metrics.counter("messagesDelivered", _msgsDeliv);
    _metrics.counter("fifoOverflows", _fifoOverflow);
    _metrics.counter("noBufferDrops", _noBuffer);
    _metrics.counter("badVciCells", _badVci);
    _metrics.counter("crcDrops", _crcDrops);
}

void
Pca200::attachEndpoint(Endpoint *ep)
{
    EpState &state = endpoints[ep->id()];
    state.ep = ep;
    state.txService.emplace(host.simulation().events(),
                            [this, &state] { serviceTx(state); });
    if (epIndex.size() <= ep->id())
        epIndex.resize(ep->id() + 1, nullptr);
    epIndex[ep->id()] = &state;
    // Attachment loads the endpoint block into adapter SRAM (boot-time
    // command-queue work, not a fault): rigs that fit the hot set
    // never page at all.
    _residency.warm(ep->id());
}

void
Pca200::detachEndpoint(Endpoint &ep)
{
    auto it = endpoints.find(ep.id());
    if (it == endpoints.end())
        UNET_PANIC("detaching endpoint not attached to this PCA-200");
    if (it->second.txScheduled)
        UNET_FATAL("detaching endpoint ", ep.id(),
                   " while the firmware services its send queue");
    for (const auto &[vci, vc] : vcs)
        if (vc.ep == &ep)
            UNET_FATAL("detaching endpoint ", ep.id(), " with VCI ",
                       vci, " still installed (removeVci first)");
    // Panics if the endpoint still holds a pin (in-flight custody).
    _residency.remove(ep.id());
    epIndex[ep.id()] = nullptr;
    endpoints.erase(it);
}

void
Pca200::installVci(atm::Vci vci, Endpoint *ep, ChannelId chan)
{
    auto [it, inserted] = vcs.try_emplace(vci);
    if (!inserted)
        UNET_FATAL("VCI ", vci, " already installed on this PCA-200");
    it->second.ep = ep;
    it->second.channel = chan;
    if (vciIndex.size() <= vci)
        vciIndex.resize(static_cast<std::size_t>(vci) + 1, nullptr);
    vciIndex[vci] = &it->second;
}

void
Pca200::removeVci(atm::Vci vci)
{
    if (vci < vciIndex.size())
        vciIndex[vci] = nullptr;
    vcs.erase(vci);
}

void
Pca200::doorbell(Endpoint *ep)
{
    if (ep->id() >= epIndex.size() || !epIndex[ep->id()])
        UNET_PANIC("doorbell for unattached endpoint");
    scheduleTxService(*epIndex[ep->id()]);
}

void
Pca200::doorbellTrain(Endpoint *ep, std::size_t n)
{
    if (ep->id() >= epIndex.size() || !epIndex[ep->id()])
        UNET_PANIC("doorbell for unattached endpoint");
    if (n == 0)
        return;
    EpState &state = *epIndex[ep->id()];
    // Followers accumulate: a second burst arriving mid-drain extends
    // the contiguous run the firmware can read without re-polling.
    state.trainRemaining += n - 1;
    scheduleTxService(state);
}

void
Pca200::scheduleTxService(EpState &state)
{
    if (state.txScheduled)
        return;
    state.txScheduled = true;

    // A doorbell for a cold endpoint makes the firmware DMA its block
    // back into adapter SRAM before servicing: the page-in rides the
    // poll latency. The endpoint stays pinned — in-flight custody —
    // until the drain finds the send queue empty.
    sim::Tick fault = _residency.touch(state.ep->id());
    _residency.pin(state.ep->id());

    // Weighted polling: "endpoints with recent activity are polled more
    // frequently given that they are most likely to correspond to a
    // running process".
    sim::Tick now = host.simulation().now();
    bool active = state.lastActive >= 0 &&
        now - state.lastActive < _spec.activityWindow;
    sim::Tick latency = active ? _spec.txPollActive : _spec.txPollIdle;
    state.txService->scheduleIn(latency + fault);
}

void
Pca200::serviceTx(EpState &state, bool chained)
{
    // Shard attribution: i960 firmware work belongs to this host.
    check::hb::ScopedTaskDomain shard(host.name());
    // The firmware takes custody of the message at the pop.
    auto desc = state.ep->claimSend();
    if (!desc) {
        state.txScheduled = false;
        state.trainRemaining = 0; // any unread train followers are gone
        _residency.unpin(state.ep->id());
        return;
    }
    // A self-chained pop inside a descriptor train skips the
    // per-descriptor queue read: the whole train came over in the
    // head's burst.
    sim::Tick per_msg = _spec.txPerMessage;
    if (chained && state.trainRemaining > 0) {
        per_msg = _spec.txPerMessageTrain;
        --state.trainRemaining;
    }
    if (auto *tr = host.simulation().trace())
        tr->hop(desc->trace, obs::SpanKind::TxPost, _trackCpu,
                host.simulation().now());
    transmitMessage(state, *desc, per_msg);
}

void
Pca200::transmitMessage(EpState &state, const SendDescriptor &desc,
                        sim::Tick per_msg)
{
    Endpoint &ep = *state.ep;
    if (!ep.channelValid(desc.channel)) {
        UNET_WARN("pca200: send on invalid channel ", desc.channel,
                  "; dropped");
        if (!desc.isInline)
            for (std::uint8_t i = 0; i < desc.fragmentCount; ++i)
                ep.releaseSend(desc.fragments[i]);
        serviceTx(state, /*chained=*/true);
        return;
    }
    atm::Vci vci = ep.channel(desc.channel).vci;

    // Gather the payload: inline from the (NIC-resident) descriptor or
    // by DMA from the user buffer area in host memory. Once gathered,
    // the application may reuse the fragments. The staging vectors live
    // in the EpState and keep their capacity across messages.
    state.txPayload.clear();
    if (desc.isInline) {
        state.txPayload.assign(desc.inlineData.begin(),
                               desc.inlineData.begin() +
                                   desc.inlineLength);
    } else {
        for (std::uint8_t i = 0; i < desc.fragmentCount; ++i) {
            auto span = ep.buffers().span(desc.fragments[i]);
            state.txPayload.insert(state.txPayload.end(), span.begin(),
                                   span.end());
            ep.releaseSend(desc.fragments[i]);
        }
    }

    atm::aal5::segmentInto(state.txPayload, vci, state.txCells);
    state.txCellIdx = 0;
    state.txTrace = desc.trace; // recycled state: always (re)assign

    // Per-message firmware work, then (for buffer-area sends) the DMA
    // from host memory, then per-cell emission.
    std::size_t dma_bytes = desc.isInline ? 0 : state.txPayload.size();
    coproc.run(per_msg, [this, &state, dma_bytes] {
        if (dma_bytes)
            host.bus().dma(dma_bytes,
                           [this, &state] { emitNextCell(state); });
        else
            emitNextCell(state);
    });
}

void
Pca200::emitNextCell(EpState &state)
{
    // Emit cells one at a time; each costs i960 segmentation work and
    // then paces onto the fiber. All state lives in the EpState, so
    // each hop is a two-pointer capture — no heap emitter chain.
    coproc.run(_spec.txPerCell, [this, &state] {
        atm::Cell &cell = state.txCells[state.txCellIdx];
        // Only a PDU's final cell carries the custody state; the
        // firmware hands off to the wire when that cell leaves.
        if (cell.endOfPdu) {
            if (auto *tr = host.simulation().trace())
                tr->hop(state.txTrace, obs::SpanKind::TxFw, _trackFw,
                        host.simulation().now());
            cell.trace = state.txTrace; // recycled cell: always assign
        }
        tap->send(cell);
        ++_cellsSent;
        if (++state.txCellIdx < state.txCells.size()) {
            emitNextCell(state);
        } else {
            ++_msgsSent;
            state.lastActive = host.simulation().now();
            serviceTx(state, /*chained=*/true); // next queued message
        }
    });
}

void
Pca200::cellArrived(const atm::Cell &cell)
{
    ++_cellsRecv;

    // Fault plane: host-side/adapter faults. Drop loses the cell
    // before FIFO admission; corruption flips a payload bit that the
    // AAL5 CRC check catches at reassembly.
    std::uint32_t faultBit = 0;
    bool corrupt = false;
    if (rxFaultInjector) {
        fault::Decision d =
            rxFaultInjector->decide(atm::Cell::payloadBytes * 8);
        if (d.faulty()) {
            rxFaultInjector->stamp(cell.trace, d);
            if (d.drop)
                return;
            corrupt = d.corrupt;
            faultBit = d.corruptBit;
        }
    }

    if (rxFifo.size() >= _spec.rxFifoCells) {
        ++_fifoOverflow;
        return;
    }
    atm::Cell &slot = rxFifo.pushSlot();
    slot = cell;
    if (corrupt)
        fault::flipBit(slot.payload, faultBit);
    // Wire custody ends when the final cell lands in the input FIFO.
    if (slot.endOfPdu)
        if (auto *tr = host.simulation().trace())
            tr->hop(slot.trace, obs::SpanKind::Wire, "atm.wire",
                    host.simulation().now());
    if (!rxServiceScheduled) {
        rxServiceScheduled = true;
        rxService.scheduleIn(_spec.rxPollLatency);
    }
}

void
Pca200::serviceRxFifo()
{
    if (rxFifo.empty()) {
        rxServiceScheduled = false;
        return;
    }
    atm::Cell cell = rxFifo.front();
    rxFifo.popFront();
    handleCell(cell);
}

void
Pca200::handleCell(const atm::Cell &cell)
{
    // Cells arrive on a chain that started on the remote sender's
    // shard; reassembly and delivery are this host's firmware work.
    check::hb::ScopedTaskDomain shard(host.name());
    auto next = [this] { serviceRxFifo(); };

    VcState *vcp =
        cell.vci < vciIndex.size() ? vciIndex[cell.vci] : nullptr;
    if (!vcp) {
        ++_badVci;
        coproc.run(0.5_us, next);
        return;
    }
    VcState &vc = *vcp;

    // The endpoint's adapter-SRAM block (free-queue head, reassembly
    // state) must be resident before the cell can be steered into it;
    // a miss pays the page-in on this cell's firmware cost.
    sim::Tick fault = _residency.touch(vc.ep->id());

    // Single-cell fast path: "Receiving single-cell messages is
    // special-cased ... directly transferred into the next empty
    // receive queue entry".
    if (!vc.firstCellSeen && cell.endOfPdu &&
        _spec.singleCellOptimization) {
        // Pinned across the firmware work + descriptor DMA: custody
        // ends when the message is delivered (or the CRC drops it).
        _residency.pin(vc.ep->id());
        auto payload = vc.reasm.addCell(cell);
        // Calls serviceRxFifo() itself rather than capturing `next`:
        // the capture then fits the event queue's inline callable
        // storage, so a single-cell message allocates nothing.
        coproc.run(_spec.rxSingleCell + fault,
                   [this, &vc, payload = std::move(payload),
                    ctx = cell.trace]() mutable {
            if (!payload) {
                ++_crcDrops;
                _residency.unpin(vc.ep->id());
            } else if (payload->size() > smallMessageMax) {
                // A single cell always fits the inline descriptor.
                UNET_PANIC("single-cell PDU larger than inline area");
            } else {
                // DMA descriptor + data into the host-resident queue.
                host.bus().dma(64, [this, &vc,
                                    payload = std::move(payload),
                                    ctx]() mutable {
                    RecvDescriptor rd;
                    rd.channel = vc.channel;
                    rd.length =
                        static_cast<std::uint32_t>(payload->size());
                    rd.isSmall = true;
                    std::copy(payload->begin(), payload->end(),
                              rd.inlineData.begin());
                    if (auto *tr = host.simulation().trace())
                        tr->hop(ctx, obs::SpanKind::RxFw, _trackFw,
                                host.simulation().now());
                    rd.trace = ctx;
                    if (vc.ep->deliver(rd))
                        ++_msgsDeliv;
                    _residency.unpin(vc.ep->id());
                });
            }
            serviceRxFifo();
        });
        return;
    }

    // Multi-cell path.
    sim::Tick cost = _spec.rxPerCell + fault;
    if (!vc.firstCellSeen) {
        vc.firstCellSeen = true;
        // Reassembly in progress: the endpoint's buffer chain lives in
        // its SRAM block — pinned until the PDU completes or aborts.
        _residency.pin(vc.ep->id());
        cost += _spec.rxFirstCellExtra;
    }
    if (cell.endOfPdu)
        cost += _spec.rxLastCellExtra;

    auto payload = vc.reasm.addCell(cell);

    if (!vc.poisoned) {
        // Ensure buffer space for this cell's 48 bytes.
        std::uint32_t capacity = 0;
        for (const auto &b : vc.buffers)
            capacity += b.length;
        if (vc.filled + atm::Cell::payloadBytes > capacity) {
            std::optional<BufferRef> buf;
            if (vc.buffers.size() < maxFragments)
                buf = vc.ep->claimFreeBuffer();
            if (!buf) {
                ++_noBuffer;
                vc.poisoned = true;
            } else {
                vc.buffers.push_back(*buf);
            }
        }
        if (!vc.poisoned) {
            vc.filled += atm::Cell::payloadBytes;
            // Cell payload DMA into the user buffer area (charged here;
            // the bytes land when the PDU completes).
            host.bus().dma(atm::Cell::payloadBytes, nullptr);
        }
    }

    bool end = cell.endOfPdu;
    if (end)
        vc.trace = cell.trace; // recycled VC state: always (re)assign
    coproc.run(cost, [this, &vc, end, payload = std::move(payload),
                      next]() mutable {
        if (end) {
            if (!payload || vc.poisoned) {
                if (!payload)
                    ++_crcDrops;
                // Return any claimed buffers.
                for (const auto &b : vc.buffers)
                    vc.ep->recycle(b);
            } else {
                completePdu(vc, std::move(*payload));
            }
            vc.buffers.clear();
            vc.filled = 0;
            vc.firstCellSeen = false;
            vc.poisoned = false;
            vc.trace = {};
            _residency.unpin(vc.ep->id());
        }
        next();
    });
}

void
Pca200::completePdu(VcState &vc, std::vector<std::uint8_t> payload)
{
    RecvDescriptor rd;
    rd.channel = vc.channel;
    rd.length = static_cast<std::uint32_t>(payload.size());
    rd.isSmall = false;

    std::size_t written = 0;
    std::size_t bi = 0;
    for (; bi < vc.buffers.size() && written < payload.size(); ++bi) {
        BufferRef buf = vc.buffers[bi];
        std::uint32_t chunk = std::min<std::uint32_t>(
            buf.length,
            static_cast<std::uint32_t>(payload.size() - written));
        vc.ep->writeRecv({buf.offset, chunk},
                         std::span(payload.data() + written, chunk));
        rd.buffers[rd.bufferCount++] = {buf.offset, chunk};
        written += chunk;
    }
    // Any wholly unused buffers go back to the free queue.
    for (std::size_t i = bi; i < vc.buffers.size(); ++i)
        vc.ep->recycle(vc.buffers[i]);

    if (auto *tr = host.simulation().trace())
        tr->hop(vc.trace, obs::SpanKind::RxFw, _trackFw,
                host.simulation().now());
    rd.trace = vc.trace;
    if (vc.ep->deliver(rd)) {
        ++_msgsDeliv;
    } else {
        // Receive queue full: the message is lost; recycle its buffers
        // at their original (untruncated) size so no tail bytes leak
        // out of the free-buffer pool.
        for (std::size_t i = 0; i < bi; ++i)
            vc.ep->recycle(vc.buffers[i]);
    }
}

} // namespace unet::nic
