#include "am/active_messages.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace unet::am {

namespace {

void
putWord(std::vector<std::uint8_t> &out, Word w)
{
    out.push_back(static_cast<std::uint8_t>(w));
    out.push_back(static_cast<std::uint8_t>(w >> 8));
    out.push_back(static_cast<std::uint8_t>(w >> 16));
    out.push_back(static_cast<std::uint8_t>(w >> 24));
}

Word
getWord(std::span<const std::uint8_t> in, std::size_t off)
{
    return static_cast<Word>(in[off]) |
        (static_cast<Word>(in[off + 1]) << 8) |
        (static_cast<Word>(in[off + 2]) << 16) |
        (static_cast<Word>(in[off + 3]) << 24);
}

} // namespace

ActiveMessages::ActiveMessages(UNet &unet, Endpoint &ep, AmSpec spec)
    : unet(unet), ep(ep), _spec(spec), handlers(256),
      txPool(0, 0, 0), // replaced below once the layout is known
      _trackApp(unet.host().name() + ".app"),
      _metrics(unet.host().simulation().metrics(),
               unet.host().simulation().metrics().uniquePrefix(
                   "host." + unet.host().name() + ".am"))
{
    _metrics.counter("sent", _sent);
    _metrics.counter("received", _received);
    _metrics.counter("retransmits", _retransmits);
    _metrics.counter("duplicates", _duplicates);
    _metrics.counter("explicitAcks", _explicitAcks);
    _metrics.counter("deadChannels", _dead);

    // Carve the endpoint buffer area: receive chunks first (posted to
    // the free queue), transmit chunks from the remainder.
    std::size_t chunk = std::min<std::size_t>(
        _spec.bulkMtu + headerBytes, unet.maxMessageBytes());
    std::size_t total = ep.buffers().size();
    std::size_t rx_bytes = _spec.rxBuffers * chunk;
    if (rx_bytes >= total)
        UNET_FATAL("endpoint buffer area too small for ",
                   _spec.rxBuffers, " receive chunks of ", chunk,
                   " bytes");
    std::size_t tx_chunks = (total - rx_bytes) / chunk;
    if (tx_chunks < _spec.window)
        UNET_FATAL("buffer area leaves only ", tx_chunks,
                   " TX chunks; need at least the window (",
                   _spec.window, ")");

    // Boot-time posting: the application hands its receive buffers to
    // U-Net before any traffic flows.
    for (std::size_t i = 0; i < _spec.rxBuffers; ++i) {
        BufferRef buf{static_cast<std::uint32_t>(i * chunk),
                      static_cast<std::uint32_t>(chunk)};
        ep.postFree(buf);
    }

    txPool = BufferPool(static_cast<std::uint32_t>(rx_bytes),
                        static_cast<std::uint32_t>(chunk), tx_chunks);
}

void
ActiveMessages::setHandler(HandlerId id, Handler fn)
{
    if (id == noHandler)
        UNET_FATAL("handler id 0xFF is reserved");
    handlers[id] = std::move(fn);
}

void
ActiveMessages::openChannel(ChannelId chan)
{
    channels[chan].open = true;
}

ActiveMessages::ChannelState &
ActiveMessages::state(ChannelId chan)
{
    auto &ch = channels[chan];
    ch.open = true;
    ch.credits.setLimit(_spec.window);
    return ch;
}

bool
ActiveMessages::emit(sim::Process &proc, ChannelId chan, Type type,
                     std::uint8_t seq, HandlerId handler,
                     const Args &args,
                     std::span<const std::uint8_t> payload, Pending *out,
                     bool is_retransmit)
{
    ChannelState &ch = state(chan);
    auto &cpu = unet.host().cpu();
    cpu.busy(proc, _spec.composeCost);

    SendDescriptor sd;
    sd.channel = chan;

    if (is_retransmit && out) {
        // The wire bytes are still in place (inline descriptor or TX
        // chunk); just refresh the descriptor.
        sd = out->desc;
    } else {
        std::vector<std::uint8_t> wire;
        wire.reserve(headerBytes + payload.size());
        wire.push_back(static_cast<std::uint8_t>(type));
        wire.push_back(seq);
        wire.push_back(ch.rxExpected); // cumulative piggybacked ACK
        wire.push_back(handler);
        for (Word w : args)
            putWord(wire, w);
        wire.insert(wire.end(), payload.begin(), payload.end());

        if (wire.size() <= unet.inlineMax()) {
            sd.isInline = true;
            sd.inlineLength = static_cast<std::uint32_t>(wire.size());
            std::copy(wire.begin(), wire.end(), sd.inlineData.begin());
        } else {
            auto chunk = txPool.acquire();
            if (!chunk)
                UNET_PANIC("TX pool dry in emit (caller must reserve)");
            if (wire.size() > chunk->length)
                UNET_PANIC("AM message of ", wire.size(),
                           " bytes exceeds the ", chunk->length,
                           "-byte chunk");
            cpu.busy(proc, cpu.spec().memcpyTime(wire.size()));
            ep.buffers().write(*chunk, wire);
            sd.isInline = false;
            sd.fragmentCount = 1;
            sd.fragments[0] = {chunk->offset,
                               static_cast<std::uint32_t>(wire.size())};
            if (out)
                out->chunk = chunk;
            else
                txPool.release(*chunk); // unreliable one-shot (ACK)
        }
        if (out)
            out->desc = sd;

        // Piggybacking counts as acknowledging. (Retransmits carry a
        // stale ACK byte, so they do not.)
        ch.unackedRx = 0;
    }

    ++_sent;
    return unet.send(proc, ep, sd);
}

bool
ActiveMessages::sendReliable(sim::Process &proc, ChannelId chan,
                             Type type, HandlerId handler,
                             const Args &args,
                             std::span<const std::uint8_t> payload)
{
    ChannelState &ch = state(chan);
    if (ch.dead)
        return false;

    // Window flow control (and TX chunk availability for big sends).
    bool needs_chunk =
        headerBytes + payload.size() > unet.inlineMax();
    bool ok = pollUntil(proc, [&] {
        return ch.dead ||
            (ch.window.size() < _spec.window &&
             (!needs_chunk || txPool.available() > 0));
    });
    if (!ok || ch.dead)
        return false;

    Pending pending;
    pending.seq = ch.txNext;
    bool posted = emit(proc, chan, type, ch.txNext, handler, args,
                       payload, &pending, false);
    while (!posted && !ch.dead) {
        // The U-Net send queue rejected the push (device backlog).
        // The message is already composed (inline or in its TX chunk);
        // give the device time to drain and re-post as-is. No poll()
        // here: the sequence number is already assigned, so dispatching
        // handlers (which may send on this channel) would interleave
        // sequence numbers and corrupt the window ordering.
        unet.flush(proc, ep);
        proc.waitOn(ep.rxAvailable(), _spec.ackDelay);
        posted = emit(proc, chan, type, pending.seq, handler, args,
                      payload, &pending, true);
    }
    if (!posted) {
        if (pending.chunk)
            txPool.release(*pending.chunk);
        return false;
    }
    ch.txNext = static_cast<std::uint8_t>(ch.txNext + 1);
    ch.credits.acquire();
    ch.window.push_back(std::move(pending));
    ch.lastTx = unet.host().simulation().now();
    return true;
}

bool
ActiveMessages::request(sim::Process &proc, ChannelId chan,
                        HandlerId handler, const Args &args,
                        std::span<const std::uint8_t> payload)
{
    return sendReliable(proc, chan, Type::Request, handler, args,
                        payload);
}

bool
ActiveMessages::reply(sim::Process &proc, Token token, HandlerId handler,
                      const Args &args,
                      std::span<const std::uint8_t> payload)
{
    return sendReliable(proc, token.channel, Type::Reply, handler, args,
                        payload);
}

bool
ActiveMessages::store(sim::Process &proc, ChannelId chan,
                      std::uint32_t dst_addr,
                      std::span<const std::uint8_t> data,
                      HandlerId done_handler)
{
    std::size_t mtu = std::min<std::size_t>(
        {_spec.bulkMtu, unet.maxMessageBytes() - headerBytes,
         txPool.chunkBytes() > headerBytes
             ? txPool.chunkBytes() - headerBytes
             : 0});
    if (mtu == 0)
        UNET_FATAL("bulk MTU is zero; buffer area misconfigured");

    Word id = nextBulkId++;
    std::size_t off = 0;
    do {
        std::size_t frag = std::min(mtu, data.size() - off);
        Args args = {id, dst_addr, static_cast<Word>(off),
                     static_cast<Word>(data.size())};
        if (!sendReliable(proc, chan, Type::BulkFragment, done_handler,
                          args, data.subspan(off, frag)))
            return false;
        off += frag;
    } while (off < data.size());
    return true;
}

void
ActiveMessages::processAck(ChannelState &ch, std::uint8_t ack)
{
    if (ch.window.empty())
        return;
    std::uint8_t base = ch.window.front().seq;
    // Number of entries the cumulative ACK covers (mod-256 distance).
    // Retransmitted messages carry the ACK byte they were composed
    // with, so a *stale* ack (ack < base in sequence space) shows up
    // here as a huge distance. With the window far smaller than the
    // sequence space, anything beyond the window cannot be a genuine
    // cumulative ack — ignore it rather than (catastrophically)
    // treating it as covering everything outstanding.
    std::uint8_t distance = static_cast<std::uint8_t>(ack - base);
    if (distance > ch.window.size())
        return;
    std::size_t covered = distance;
    for (std::size_t i = 0; i < covered; ++i) {
        Pending &front = ch.window.front();
        if (front.chunk) {
            // Zero-copy discipline: a chunk referenced by a possibly
            // still-queued duplicate descriptor is quarantined, not
            // reused (see zombieChunks).
            if (front.retransmitted)
                zombieChunks.push_back(*front.chunk);
            else
                txPool.release(*front.chunk);
        }
        ch.credits.release();
        ch.window.pop_front();
    }
    if (covered > 0) {
        // Progress resets the give-up counters.
        ch.retries = 0;
        ch.stalledKicks = 0;
    }
}

void
ActiveMessages::processInbound(sim::Process &proc,
                               const RecvDescriptor &rd)
{
    ++_received;
    auto &cpu = unet.host().cpu();
    cpu.busy(proc, _spec.handleCost);

    // Gather the wire bytes.
    std::vector<std::uint8_t> wire;
    if (rd.isSmall) {
        wire.assign(rd.inlineData.begin(),
                    rd.inlineData.begin() + rd.length);
    } else {
        for (std::uint8_t i = 0; i < rd.bufferCount; ++i) {
            auto span = ep.buffers().span(rd.buffers[i]);
            wire.insert(wire.end(), span.begin(), span.end());
        }
        // Recycle the receive buffers at their full pool size.
        for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
            unet.postFree(proc, ep,
                          {rd.buffers[i].offset, txPool.chunkBytes()});
    }

    if (wire.size() < headerBytes) {
        UNET_WARN("AM: runt message of ", wire.size(), " bytes");
        return;
    }

    Type type = static_cast<Type>(wire[0]);
    std::uint8_t seq = wire[1];
    std::uint8_t ack = wire[2];
    HandlerId handler = wire[3];
    Args args = {getWord(wire, 4), getWord(wire, 8), getWord(wire, 12),
                 getWord(wire, 16)};
    std::span<const std::uint8_t> payload(wire.data() + headerBytes,
                                          wire.size() - headerBytes);

    ChannelState &ch = state(rd.channel);
    processAck(ch, ack);

    if (type == Type::Ack)
        return;

    if (seq != ch.rxExpected) {
        // Duplicate or out-of-order (Go-Back-N): drop, but force an ACK
        // out so the sender resynchronizes quickly.
        ++_duplicates;
        ch.unackedRx = std::max(ch.unackedRx, _spec.ackEvery);
        return;
    }
    if (ch.unackedRx == 0)
        ch.oldestUnackedRx = unet.host().simulation().now();
    ch.rxExpected = static_cast<std::uint8_t>(ch.rxExpected + 1);
    ++ch.unackedRx;

    Token token{rd.channel};
    switch (type) {
      case Type::Request:
      case Type::Reply:
        if (!handlers[handler]) {
            UNET_WARN("AM: no handler ", static_cast<int>(handler));
        } else {
            auto &simulation = unet.host().simulation();
            sim::Tick h0 = simulation.now();
            handlers[handler](proc, token, args, payload);
            if (auto *tr = simulation.trace())
                tr->record(rd.trace.id, obs::SpanKind::AmHandler,
                           _trackApp, h0, simulation.now(),
                           "am handler");
        }
        break;

      case Type::BulkFragment: {
        if (bulkSink)
            bulkSink(args[1] + args[2], payload);
        else
            UNET_WARN("AM: bulk fragment with no sink registered");
        auto &seen = ch.bulkSeen[args[0]];
        seen += static_cast<std::uint32_t>(payload.size());
        if (seen >= args[3]) {
            ch.bulkSeen.erase(args[0]);
            if (handler != noHandler && handlers[handler])
                handlers[handler](proc, token,
                                  {args[1], args[3], 0, 0}, {});
        }
        break;
      }

      default:
        UNET_WARN("AM: unknown message type ",
                  static_cast<int>(type));
    }
}

void
ActiveMessages::checkTimeouts(sim::Process &proc)
{
    sim::Tick now = unet.host().simulation().now();
    for (auto &[chan, ch] : channels) {
        if (ch.dead || ch.window.empty())
            continue;
        // Exponential backoff: a peer busy in a long computation phase
        // (it only polls between phases) must not exhaust the retry
        // budget at the base timeout.
        sim::Tick timeout = _spec.retransmitTimeout
            << std::min(ch.retries, 6);
        if (now - ch.lastTx < timeout)
            continue;

        // If the data is still sitting in the device path (send queue
        // or TX ring), it has not been lost — duplicating descriptors
        // would only stuff the queue and burn the retry budget. Kick
        // the device and re-arm the timer instead. A device path that
        // never drains must still let the channel die, so kicks that
        // saw no drain since the previous kick (no send-queue pop, no
        // smaller backlog) are bounded like retries.
        if (std::size_t backlog = unet.txBacklog(ep)) {
            const std::uint64_t popped = ep.sendQueue().popped();
            const bool drained =
                popped != ch.kickPopped || backlog < ch.kickBacklog;
            ch.stalledKicks = drained ? 1 : ch.stalledKicks + 1;
            ch.kickBacklog = backlog;
            ch.kickPopped = popped;
            if (ch.stalledKicks > _spec.maxRetries) {
                UNET_WARN("AM: channel ", chan, " dead after ",
                          _spec.maxRetries,
                          " kicks of a device path that did not drain");
                ch.dead = true;
                ++_dead;
                continue;
            }
            unet.flush(proc, ep);
            ch.lastTx = now;
            continue;
        }
        ch.stalledKicks = 0;

        if (++ch.retries > _spec.maxRetries) {
            UNET_WARN("AM: channel ", chan, " dead after ",
                      _spec.maxRetries, " retries");
            ch.dead = true;
            ++_dead;
            continue;
        }
        // Go-Back-N: resend everything outstanding. Mark each entry:
        // its chunk now has (potentially) multiple descriptors in
        // flight and must be quarantined on release. If the send queue
        // fills mid-burst, the remainder waits for the next timeout.
        for (auto &pending : ch.window) {
            pending.retransmitted = true;
            ++_retransmits;
            if (!emit(proc, chan, Type::Request /*unused*/,
                      pending.seq, 0, {}, {}, &pending, true))
                break;
        }
        ch.lastTx = now;
    }
}

void
ActiveMessages::reclaimZombies()
{
    if (zombieChunks.empty() || unet.txBacklog(ep) != 0)
        return;
    // No unconsumed descriptors remain anywhere in the device path, so
    // no stale reference to these chunks can exist.
    for (const auto &chunk : zombieChunks)
        txPool.release(chunk);
    zombieChunks.clear();
}

void
ActiveMessages::sendAck(sim::Process &proc, ChannelId chan)
{
    ++_explicitAcks;
    emit(proc, chan, Type::Ack, 0, 0, {0, 0, 0, 0}, {}, nullptr, false);
}

void
ActiveMessages::flushAcks(sim::Process &proc, bool force)
{
    sim::Tick now = unet.host().simulation().now();
    for (auto &[chan, ch] : channels) {
        if (ch.unackedRx == 0 || ch.dead)
            continue;
        if (force || ch.unackedRx >= _spec.ackEvery ||
            now - ch.oldestUnackedRx >= _spec.ackDelay) {
            sendAck(proc, chan);
        }
    }
}

int
ActiveMessages::poll(sim::Process &proc)
{
    auto &cpu = unet.host().cpu();
    cpu.busy(proc, _spec.pollCost);

    // Re-kick sends parked behind device-ring backpressure.
    if (!ep.sendQueue().empty())
        unet.flush(proc, ep);

    int handled = 0;
    RecvDescriptor rd;
    while (ep.poll(rd)) {
        processInbound(proc, rd);
        ++handled;
    }
    checkTimeouts(proc);
    flushAcks(proc);
    reclaimZombies();
    return handled;
}

bool
ActiveMessages::pollUntil(sim::Process &proc,
                          const std::function<bool()> &pred,
                          sim::Tick timeout)
{
    auto &simulation = unet.host().simulation();
    sim::Tick deadline = timeout == sim::maxTick
        ? sim::maxTick : simulation.now() + timeout;
    while (true) {
        // Check before polling: handlers call back into this path (e.g.
        // a handler issuing a store), and when the condition already
        // holds — window space free — no nested poll should run.
        if (pred())
            return true;
        poll(proc);
        if (pred())
            return true;
        if (simulation.now() >= deadline)
            return false;

        // Pick a wake interval: tight when ACKs are pending, the
        // retransmit period when sends are outstanding, lazy otherwise.
        sim::Tick wake = _spec.retransmitTimeout;
        for (auto &[chan, ch] : channels) {
            if (ch.unackedRx > 0)
                wake = std::min(wake, _spec.ackDelay);
        }
        wake = std::min(wake, deadline - simulation.now());
        proc.waitOn(ep.rxAvailable(), wake);
    }
}

void
ActiveMessages::debugDump(const char *tag) const
{
    std::fprintf(stderr, "[AM %s] sent=%llu recv=%llu retx=%llu "
                 "dup=%llu dead=%llu free=%zu zombie=%zu sendq=%zu\n",
                 tag, static_cast<unsigned long long>(sent()),
                 static_cast<unsigned long long>(received()),
                 static_cast<unsigned long long>(retransmits()),
                 static_cast<unsigned long long>(duplicates()),
                 static_cast<unsigned long long>(deadChannels()),
                 txPool.available(), zombieChunks.size(),
                 ep.sendQueue().size());
    for (const auto &[chan, ch] : channels) {
        std::fprintf(stderr,
                     "  chan %u: open=%d dead=%d txNext=%u "
                     "rxExpected=%u retries=%d unackedRx=%zu window=[",
                     chan, ch.open, ch.dead, ch.txNext, ch.rxExpected,
                     ch.retries, ch.unackedRx);
        for (const auto &pending : ch.window)
            std::fprintf(stderr, " %u%s%s", pending.seq,
                         pending.chunk ? "c" : "",
                         pending.retransmitted ? "r" : "");
        std::fprintf(stderr, " ]\n");
    }
}

bool
ActiveMessages::idle() const
{
    for (const auto &[chan, ch] : channels)
        if (!ch.dead && !ch.window.empty())
            return false;
    return true;
}

bool
ActiveMessages::drain(sim::Process &proc, sim::Tick timeout)
{
    return pollUntil(proc, [this] { return idle(); }, timeout);
}

} // namespace unet::am
