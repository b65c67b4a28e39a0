#include "nic/dc21140.hh"

#include "fault/fault.hh"
#include "sim/logging.hh"

namespace unet::nic {

Dc21140::Dc21140(host::Host &host, eth::Network &network,
                 eth::MacAddress address, Dc21140Spec spec)
    : host(host), _spec(spec), _address(address),
      tap(&network.attach(*this)),
      irq(host.makeInterruptLine("dc21140")),
      txRing(spec.txRingSize), rxRing(spec.rxRingSize),
      _trackCpu(host.name() + ".cpu"), _trackNic(host.name() + ".nic"),
      _metrics(host.simulation().metrics(),
               host.simulation().metrics().uniquePrefix(
                   "host." + host.name() + ".nic.dc21140"))
{
    _txFillGuard.setLabel(host.name() + ".dc21140.txring");
    _metrics.counter("framesSent", _framesSent);
    _metrics.counter("framesReceived", _framesRecv);
    _metrics.counter("rxMissed", _rxMissed);
    _metrics.counter("txAborted", _txAborted);
}

void
Dc21140::pollDemand()
{
    if (txActive)
        return; // engine already running; it will see new descriptors
    txActive = true;
    host.simulation().scheduleIn(_spec.txPollDelay,
                                 [this] { txFetchNext(); });
}

void
Dc21140::txFetchNext()
{
    // The engine works up to txPrefetchDepth frames ahead of the wire:
    // the on-chip FIFO lets the next descriptor fetch and buffer DMA
    // overlap the current transmission (without this, back-to-back
    // frames would be separated by a full DMA and the device could
    // never saturate the link).
    if (txFetching || txInFlight >= _spec.txPrefetchDepth)
        return;

    TxDescriptor &desc = txRing[txHead];
    if (!desc.own) {
        // Ring drained: suspend until the next poll demand.
        if (txInFlight == 0)
            txActive = false;
        return;
    }
    txFetching = true;
    txHead = (txHead + 1) % txRing.size();

    // Fetch the descriptor, then gather the frame buffers, via DMA.
    host.bus().dma(_spec.descriptorBytes, [this, &desc] {
        std::size_t total = desc.buf1Length + desc.buf2Length;
        host.bus().dma(total, [this, &desc] {
            // Gather real bytes from host memory into the reusable
            // staging buffer (txFetching stays set until the frame is
            // handed to the tap, so txGather/txFrame are exclusive).
            auto b1 = host.memory().region(desc.buf1Offset,
                                           desc.buf1Length);
            txGather.assign(b1.begin(), b1.end());
            if (desc.buf2Length) {
                auto b2 = host.memory().region(desc.buf2Offset,
                                               desc.buf2Length);
                txGather.insert(txGather.end(), b2.begin(), b2.end());
            }
            eth::Frame::fromBytesInto(txGather, txFrame);
            // The byte gather drops model metadata; re-attach the trace
            // context from the descriptor. The NIC takes custody here.
            txFrame.trace = desc.trace;
            if (auto *tr = host.simulation().trace())
                tr->hop(txFrame.trace, obs::SpanKind::TxPost, _trackCpu,
                        host.simulation().now());

            host.simulation().scheduleIn(
                _spec.perFrameProcessing, [this, &desc] {
                _lastTxWireStart = host.simulation().now();
                if (auto *tr = host.simulation().trace())
                    tr->hop(txFrame.trace, obs::SpanKind::TxNic,
                            _trackNic, _lastTxWireStart);
                ++txInFlight;
                tap->transmit(txFrame, [this, &desc](bool sent) {
                    // Status writeback.
                    desc.own = false;
                    desc.transmitted = sent;
                    desc.aborted = !sent;
                    if (sent)
                        ++_framesSent;
                    else
                        ++_txAborted;
                    if (desc.interruptOnComplete)
                        irq->assertLine();
                    --txInFlight;
                    if (txCompleteFn)
                        txCompleteFn(static_cast<std::size_t>(
                            &desc - txRing.data()));
                    txFetchNext();
                });
                // Prefetch the next frame while this one serializes.
                txFetching = false;
                txFetchNext();
            });
        });
    });
}

void
Dc21140::frameArrived(const eth::Frame &frame)
{
    // Perfect filtering: our unicast address or broadcast only.
    if (frame.dst != _address && !frame.dst.isBroadcast())
        return;

    // Fault plane: a lost DMA completion looks like a missed frame;
    // corruption damages the bytes after they cross the bus.
    std::uint32_t faultBit = eth::Frame::noCorruptBit;
    if (rxFaultInjector) {
        fault::Decision d =
            rxFaultInjector->decide(frame.frameBytes() * 8);
        if (d.faulty()) {
            rxFaultInjector->stamp(frame.trace, d);
            if (d.drop)
                return;
            if (d.corrupt)
                faultBit = d.corruptBit;
        }
    }

    RxDescriptor &desc = rxRing[_rxHead];
    if (!desc.own) {
        // No buffer posted: the frame is missed.
        ++_rxMissed;
        return;
    }

    if (frame.frameBytes() > desc.bufLength) {
        UNET_WARN("dc21140: ", frame.frameBytes(),
                  "-byte frame exceeds the ", desc.bufLength,
                  "-byte receive buffer; dropped");
        ++_rxMissed;
        return;
    }

    // Reception DMA is pipelined with the wire; charge the residual
    // plus the bus transaction for the tail of the frame. The frame
    // bytes sit in a recycled ring slot while in the pipeline; both
    // stages are FIFO (constant residual latency, then the serial
    // bus), so the n-th residual expiry belongs to the n-th entry.
    desc.own = false; // the NIC is filling it now
    _rxHead = (_rxHead + 1) % rxRing.size();
    PendingRx &slot = rxPending.pushSlot();
    frame.serializeInto(slot.bytes);
    if (faultBit != eth::Frame::noCorruptBit)
        fault::flipBit(slot.bytes, faultBit);
    slot.desc = &desc;
    slot.trace = frame.trace; // recycled slot: always (re)assign
    host.simulation().scheduleIn(_spec.rxResidualDma, [this] {
        PendingRx &rx = rxPending.at(rxStaged++);
        host.bus().dma(rx.bytes.size() % 128 + 32, [this] {
            PendingRx &done = rxPending.front();
            host.memory().write(done.desc->bufOffset, done.bytes);
            // Wire custody ends when the frame is visible in host
            // memory (serialization + residual DMA + bus).
            if (auto *tr = host.simulation().trace())
                tr->hop(done.trace, obs::SpanKind::Wire, "eth.wire",
                        host.simulation().now());
            done.desc->trace = done.trace;
            done.desc->complete = true;
            done.desc->frameLength =
                static_cast<std::uint32_t>(done.bytes.size());
            ++_framesRecv;
            irq->assertLine();
            rxPending.popFront();
            --rxStaged;
        });
    });
}

} // namespace unet::nic
