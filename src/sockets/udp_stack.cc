#include "sockets/udp_stack.hh"

#include "sim/logging.hh"

namespace unet::sockets {

namespace {

/** EtherType for our modeled IPv4. */
constexpr std::uint16_t etherTypeIp = 0x0800;

sim::Tick
checksumTime(const UdpStackSpec &spec, std::size_t bytes)
{
    return sim::serializationTime(static_cast<std::int64_t>(bytes),
                                  spec.checksumBytesPerSec * 8.0);
}

} // namespace

bool
Socket::sendTo(sim::Process &proc, eth::MacAddress dst_mac,
               std::uint16_t dst_port, std::span<const std::uint8_t> data)
{
    return stack.transmit(proc, *this, dst_mac, dst_port, data);
}

std::optional<Socket::Datagram>
Socket::recvFrom(sim::Process &proc, sim::Tick timeout)
{
    check::assertCaller(proc, "udp recvfrom");
    auto &cpu = stack._host.cpu();
    cpu.busy(proc, stack._spec.syscallCost);

    while (queue.empty()) {
        if (timeout == sim::maxTick) {
            proc.waitOn(readable);
        } else {
            sim::Tick before = proc.simulation().now();
            if (!proc.waitOn(readable, timeout) && queue.empty())
                return std::nullopt;
            timeout -= proc.simulation().now() - before;
            if (timeout < 0)
                timeout = 0;
        }
    }

    Datagram dg;
    {
        check::ContextGuard::Scope scope(bufGuard, "udp recvfrom pop");
        dg = std::move(queue.front());
        queue.pop_front();
        queuedBytes -= dg.data.size();
    }

    // Copy from the socket buffer to user space; the datagram is off
    // the queue, so a delivery during the copy is legal.
    cpu.busy(proc, cpu.spec().memcpyTime(dg.data.size()));
    return dg;
}

UdpStack::UdpStack(host::Host &host, nic::Dc21140 &nic,
                   UdpStackSpec spec)
    : _host(host), _nic(nic), _spec(spec),
      _metrics(host.simulation().metrics(),
               host.simulation().metrics().uniquePrefix(
                   "host." + host.name() + ".sockets.udp"))
{
    txGuard.setLabel(host.name() + ".udp.txring");
    _metrics.counter("packetsSent", _sent);
    _metrics.counter("packetsDelivered", _delivered);
    _metrics.counter("noPortDrops", _noPort);

    const std::size_t mbuf_bytes = eth::Frame::headerBytes +
        eth::Frame::maxPayload;
    mbufOffset.resize(nic.txRingSize());
    for (auto &off : mbufOffset)
        off = host.memory().alloc(mbuf_bytes, 8);

    for (std::size_t i = 0; i < nic.rxRingSize(); ++i) {
        auto &desc = nic.rxDesc(i);
        desc.bufOffset = static_cast<std::uint32_t>(
            host.memory().alloc(nic.spec().rxBufferBytes, 8));
        desc.bufLength =
            static_cast<std::uint32_t>(nic.spec().rxBufferBytes);
        desc.own = true;
    }

    nic.interrupt().connect([this] { rxInterrupt(); });
}

Socket &
UdpStack::createSocket(const sim::Process *owner, std::uint16_t port)
{
    if (port == 0)
        port = nextEphemeral++;
    auto [it, inserted] = sockets.emplace(
        port, std::unique_ptr<Socket>(new Socket(*this, owner, port)));
    if (!inserted)
        UNET_FATAL("UDP port ", port, " already bound");
    it->second->bufGuard.bindOwner(owner);
    it->second->bufGuard.setLabel(_host.name() + ".udp.sock"
                                  + std::to_string(port) + ".rxbuf");
    _metrics.counter("socket." + std::to_string(port) + ".drops",
                     it->second->_drops);
    return *it->second;
}

bool
UdpStack::transmit(sim::Process &proc, Socket &socket,
                   eth::MacAddress dst_mac, std::uint16_t dst_port,
                   std::span<const std::uint8_t> data)
{
    if (data.size() > UdpStackSpec::maxPayload) {
        UNET_WARN("udp: ", data.size(), "-byte datagram exceeds one "
                  "frame; this model does not fragment");
        return false;
    }
    check::assertCaller(proc, "udp sendto");
    auto &cpu = _host.cpu();

    // sendto(2): syscall, copy to a kernel buffer, checksum, protocol
    // output processing, driver handoff. All on the host CPU.
    cpu.busy(proc, _spec.syscallCost);
    cpu.busy(proc, cpu.spec().memcpyTime(data.size()));
    cpu.busy(proc, checksumTime(_spec, data.size()));
    cpu.busy(proc, _spec.txProtocol + _spec.driverTx);

    // Descriptor claim through hand-off must not interleave with
    // another sender: no yields are permitted inside this scope.
    check::ContextGuard::Scope scope(txGuard, "udp tx descriptor");
    std::size_t slot = _nic.txTail();
    auto &ring_desc = _nic.txDesc(slot);
    if (ring_desc.own) {
        // Device backlog: ENOBUFS. (Real stacks block or drop here;
        // we drop, as 90s UDP did.)
        return false;
    }

    // Build ethernet + IP/UDP headers and the copied payload in the
    // kernel mbuf.
    std::vector<std::uint8_t> pkt;
    pkt.reserve(eth::Frame::headerBytes + UdpStackSpec::headerBytes +
                data.size());
    const auto &dst = dst_mac.raw();
    const auto &src = _nic.address().raw();
    pkt.insert(pkt.end(), dst.begin(), dst.end());
    pkt.insert(pkt.end(), src.begin(), src.end());
    pkt.push_back(etherTypeIp >> 8);
    pkt.push_back(etherTypeIp & 0xFF);
    // 20 bytes of IP header (contents unmodeled) + 8 of UDP.
    for (int i = 0; i < 20; ++i)
        pkt.push_back(0);
    pkt.push_back(static_cast<std::uint8_t>(socket._port >> 8));
    pkt.push_back(static_cast<std::uint8_t>(socket._port));
    pkt.push_back(static_cast<std::uint8_t>(dst_port >> 8));
    pkt.push_back(static_cast<std::uint8_t>(dst_port));
    std::uint16_t udp_len = static_cast<std::uint16_t>(8 + data.size());
    pkt.push_back(static_cast<std::uint8_t>(udp_len >> 8));
    pkt.push_back(static_cast<std::uint8_t>(udp_len));
    pkt.push_back(0); // checksum field (cost charged above)
    pkt.push_back(0);
    pkt.insert(pkt.end(), data.begin(), data.end());

    _host.memory().write(mbufOffset[slot], pkt);
    ring_desc.buf1Offset = static_cast<std::uint32_t>(mbufOffset[slot]);
    ring_desc.buf1Length = static_cast<std::uint32_t>(pkt.size());
    ring_desc.buf2Length = 0;
    ring_desc.transmitted = false;
    ring_desc.aborted = false;
    ring_desc.own = true;
    _nic.bumpTxTail();
    _nic.pollDemand();
    ++_sent;
    return true;
}

void
UdpStack::rxInterrupt()
{
    auto &cpu = _host.cpu();
    auto &mem = _host.memory();

    sim::Tick cost = _spec.driverRx;
    std::vector<std::function<void()>> effects;

    while (true) {
        auto &ring_desc = _nic.rxDesc(kernelRxHead);
        if (!ring_desc.complete)
            break;

        auto raw = mem.read(ring_desc.bufOffset, ring_desc.frameLength);
        ring_desc.complete = false;
        ring_desc.own = true;
        kernelRxHead = (kernelRxHead + 1) % _nic.rxRingSize();

        auto frame = eth::Frame::parse(raw);
        if (!frame || frame->etherType != etherTypeIp ||
            frame->payload.size() < UdpStackSpec::headerBytes)
            continue;

        cost += _spec.rxProtocol;
        std::uint16_t dst_port = static_cast<std::uint16_t>(
            (frame->payload[22] << 8) | frame->payload[23]);
        std::uint16_t src_port = static_cast<std::uint16_t>(
            (frame->payload[20] << 8) | frame->payload[21]);
        std::uint16_t udp_len = static_cast<std::uint16_t>(
            (frame->payload[24] << 8) | frame->payload[25]);
        if (udp_len < 8 ||
            20u + udp_len > frame->payload.size())
            continue;
        std::size_t data_len = udp_len - 8u;

        auto it = sockets.find(dst_port);
        if (it == sockets.end()) {
            ++_noPort;
            continue;
        }
        Socket *socket = it->second.get();

        cost += checksumTime(_spec, data_len);
        cost += cpu.spec().memcpyTime(data_len); // into the sockbuf

        Socket::Datagram dg;
        dg.srcMac = frame->src;
        dg.srcPort = src_port;
        dg.data.assign(
            frame->payload.begin() + UdpStackSpec::headerBytes,
            frame->payload.begin() + UdpStackSpec::headerBytes +
                static_cast<std::ptrdiff_t>(data_len));

        effects.push_back([this, socket, dg = std::move(dg)]() mutable {
            check::ContextGuard::Scope scope(socket->bufGuard,
                                             "udp rx deliver");
            if (socket->queuedBytes + dg.data.size() >
                _spec.socketBufferBytes) {
                ++socket->_drops;
                return;
            }
            socket->queuedBytes += dg.data.size();
            socket->queue.push_back(std::move(dg));
            ++_delivered;
            // Scheduler wakeup of a blocked reader.
            _host.simulation().scheduleIn(
                _spec.wakeupLatency,
                [socket] { socket->readable.notifyAll(); });
        });
    }

    cpu.runKernel(cost, [effects = std::move(effects)] {
        for (const auto &effect : effects)
            effect();
    });
}

} // namespace unet::sockets
