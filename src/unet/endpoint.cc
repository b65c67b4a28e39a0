#include "unet/endpoint.hh"

namespace unet {

Endpoint::Endpoint(sim::Simulation &sim, host::Memory &memory,
                   const EndpointConfig &config,
                   const sim::Process *owner, std::size_t id)
    : sim(sim), _id(id), _owner(owner), _config(config),
      _buffers(memory, config.bufferAreaBytes),
      _sendQueue(config.sendQueueDepth),
      _recvQueue(config.recvQueueDepth),
      _freeQueue(config.freeQueueDepth),
      _ownership(config.bufferAreaBytes),
      _metrics(sim.metrics(), sim.metrics().uniquePrefix(
                                  "unet.ep" + std::to_string(id)))
{
    _metrics.counter("rxQueueDrops", _rxQueueDrops);
    // Custody: only the owning process's fiber (or the main/event
    // context — kernel agents, NIC firmware, harnesses) may touch the
    // shared rings.
    _sendGuard.bindOwner(owner);
    _recvGuard.bindOwner(owner);
    _freeGuard.bindOwner(owner);
}

void
Endpoint::labelGuards(const std::string &prefix)
{
    _sendGuard.setLabel(prefix + ".sendq");
    _recvGuard.setLabel(prefix + ".recvq");
    _freeGuard.setLabel(prefix + ".freeq");
}

void
Endpoint::auditRings() const
{
    _sendQueue.check();
    _recvQueue.check();
    _freeQueue.check();
}

void
Endpoint::auditTick()
{
#if defined(UNET_CHECK) && UNET_CHECK
    if (_config.checkIntervalOps == 0)
        return;
    if (++opsSinceAudit >= _config.checkIntervalOps) {
        opsSinceAudit = 0;
        auditRings();
    }
#endif
}

ChannelId
Endpoint::addChannel(const ChannelInfo &info)
{
    if (channels.size() >= _config.maxChannels)
        UNET_FATAL("endpoint ", _id, " exceeds its channel limit of ",
                   _config.maxChannels);
    channels.push_back(info);
    channels.back().valid = true;
    return static_cast<ChannelId>(channels.size() - 1);
}

const ChannelInfo &
Endpoint::channel(ChannelId id) const
{
    if (!channelValid(id))
        UNET_PANIC("invalid channel ", id, " on endpoint ", _id);
    return channels[id];
}

bool
Endpoint::channelValid(ChannelId id) const
{
    return id < channels.size() && channels[id].valid;
}

bool
Endpoint::consumeNext(RecvDescriptor &out)
{
    auto desc = _recvQueue.pop();
    if (!desc)
        return false;
    out = *desc;
    // The application consumes the message: close out its custody.
    if (auto *tr = sim.trace())
        tr->hop(out.trace, obs::SpanKind::RxQueue, _metrics.prefix(),
                sim.now());
    if (!out.isSmall)
        for (std::uint8_t i = 0; i < out.bufferCount; ++i)
            _ownership.consume(out.buffers[i]);
    return true;
}

bool
Endpoint::poll(RecvDescriptor &out)
{
    check::ContextGuard::Scope scope(_recvGuard, "poll");
    if (!consumeNext(out))
        return false;
    auditTick();
    return true;
}

std::size_t
Endpoint::pollv(RecvDescriptor *out, std::size_t max)
{
    check::ContextGuard::Scope scope(_recvGuard, "pollv");
    std::size_t drained = 0;
    while (drained < max && consumeNext(out[drained])) {
        auditTick();
        ++drained;
    }
    return drained;
}

bool
Endpoint::wait(sim::Process &proc, RecvDescriptor &out, sim::Tick timeout)
{
    check::assertCaller(proc, "Endpoint::wait");
    _recvGuard.mutate("wait");
    while (true) {
        if (poll(out))
            return true;
        if (timeout == sim::maxTick) {
            proc.waitOn(_rxAvailable);
        } else {
            sim::Tick before = sim.now();
            if (!proc.waitOn(_rxAvailable, timeout))
                return poll(out); // one last check after the timeout
            timeout -= sim.now() - before;
            if (timeout < 0)
                timeout = 0;
        }
    }
}

void
Endpoint::setUpcall(std::function<void(const RecvDescriptor &)> handler,
                    sim::Tick latency)
{
    upcall = std::move(handler);
    upcallLatency = latency;
    if (upcall && !_recvQueue.empty())
        scheduleUpcall();
}

std::size_t
Endpoint::postSends(const SendDescriptor *descs, std::size_t n)
{
    std::size_t pushed = 0;
    while (pushed < n && _sendQueue.push(descs[pushed])) {
        const SendDescriptor &desc = descs[pushed];
        if (!desc.isInline)
            for (std::uint8_t i = 0; i < desc.fragmentCount; ++i)
                _ownership.postSend(desc.fragments[i]);
        ++pushed;
    }
    return pushed;
}

bool
Endpoint::postFree(BufferRef buf)
{
    if (!_freeQueue.push(buf))
        return false;
    _ownership.postFree(buf);
    return true;
}

std::optional<SendDescriptor>
Endpoint::claimSend()
{
    // Agents run in the main/event context (always legal), but the
    // scope catches an application fiber that yielded mid-push while
    // the agent pops.
    check::ContextGuard::Scope scope(_sendGuard, "agent tx claim");
    auto desc = _sendQueue.pop();
    if (desc && !desc->isInline)
        for (std::uint8_t i = 0; i < desc->fragmentCount; ++i)
            _ownership.claimSend(desc->fragments[i]);
    return desc;
}

void
Endpoint::releaseSend(BufferRef frag)
{
    _ownership.releaseSend(frag);
}

std::optional<BufferRef>
Endpoint::claimFreeBuffer()
{
    check::ContextGuard::Scope scope(_freeGuard, "agent rx buffer claim");
    auto buf = _freeQueue.pop();
    if (buf)
        _ownership.claimRecv(*buf);
    return buf;
}

void
Endpoint::writeRecv(BufferRef ref, std::span<const std::uint8_t> data)
{
    _ownership.rxWrite(ref);
    _buffers.write(ref, data);
}

void
Endpoint::recycle(BufferRef buf)
{
    check::ContextGuard::Scope scope(_freeGuard,
                                     "agent rx buffer recycle");
    if (_freeQueue.push(buf))
        _ownership.unclaimRecv(buf);
    else
        _ownership.releaseRecv(buf);
}

bool
Endpoint::deliver(const RecvDescriptor &desc)
{
    check::ContextGuard::Scope scope(_recvGuard, "deliver");
    if (!_recvQueue.push(desc)) {
        ++_rxQueueDrops;
        return false;
    }
    if (!desc.isSmall)
        for (std::uint8_t i = 0; i < desc.bufferCount; ++i)
            _ownership.deliver(desc.buffers[i]);
    auditTick();
    _rxAvailable.notifyAll();
    if (upcall)
        scheduleUpcall();
    return true;
}

void
Endpoint::scheduleUpcall()
{
    if (upcallPending)
        return;
    upcallPending = true;
    sim.scheduleIn(upcallLatency, [this] {
        upcallPending = false;
        // Consume all pending messages in a single activation.
        RecvDescriptor desc;
        while (consumeNext(desc))
            upcall(desc);
    });
}

} // namespace unet
