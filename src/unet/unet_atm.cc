#include "unet/unet_atm.hh"

#include "check/access.hh"
#include "sim/logging.hh"

namespace unet {

UNetAtm::UNetAtm(host::Host &host, nic::Pca200 &nic, UNetAtmSpec spec)
    : UNet(host), _spec(spec), _nic(nic),
      _metrics(host.simulation().metrics(),
               host.simulation().metrics().uniquePrefix(
                   "host." + host.name() + ".unet.atm"))
{
    _metrics.counter("messagesPosted", _posted);
    _metrics.counter("protectionFaults", _protFaults);
}

Endpoint &
UNetAtm::createEndpoint(const sim::Process *owner,
                        const EndpointConfig &config)
{
    Endpoint &ep = _table.create(_host.simulation(), _host.memory(),
                                 config, owner);
    ep.labelGuards(_host.name() + ".ep" + std::to_string(ep.id()));
    // Command-queue registration: the driver tells the firmware about
    // the endpoint's queues and buffer area.
    _nic.attachEndpoint(&ep);
    return ep;
}

void
UNetAtm::onDestroyEndpoint(Endpoint &ep)
{
    _nic.detachEndpoint(ep);
}

bool
UNetAtm::sendImpl(sim::Process &proc, Endpoint &ep,
                  const SendDescriptor &desc)
{
    check::assertCaller(proc, "UNetAtm::send");
    if (!checkOwner(proc, ep))
        return false;
    if (desc.totalLength() > maxMessage)
        UNET_PANIC("U-Net/ATM message of ", desc.totalLength(),
                   " bytes exceeds the AAL5 maximum");
    if (!ep.channelValid(desc.channel)) {
        UNET_WARN("U-Net/ATM: send on invalid channel ", desc.channel);
        return false;
    }

    // "the host stores the U-Net send descriptor into the i960-resident
    // transmit queue using a double-word store"
    _host.cpu().busy(proc, _spec.sendPost);
    ep.sendGuard().mutate("send");
    if (!ep.sendQueue().push(desc))
        return false;
    if (!desc.isInline)
        for (std::uint8_t i = 0; i < desc.fragmentCount; ++i)
            ep.ownership().postSend(desc.fragments[i]);
    ++_posted;
    _nic.doorbell(&ep);
    return true;
}

std::size_t
UNetAtm::sendvImpl(sim::Process &proc, Endpoint &ep,
                   const SendDescriptor *descs, std::size_t n)
{
    check::assertCaller(proc, "UNetAtm::sendv");
    if (!checkOwner(proc, ep))
        return 0;
    for (std::size_t i = 0; i < n; ++i)
        if (descs[i].totalLength() > maxMessage)
            UNET_PANIC("U-Net/ATM message of ", descs[i].totalLength(),
                       " bytes exceeds the AAL5 maximum");
    // Like the scalar path, an invalid channel rejects before any cost
    // is charged; the burst stops at the first offender.
    std::size_t planned = 0;
    while (planned < n && ep.channelValid(descs[planned].channel))
        ++planned;
    if (planned < n)
        UNET_WARN("U-Net/ATM: sendv on invalid channel ",
                  descs[planned].channel);
    if (planned == 0)
        return 0;

    // One PIO burst into the i960-resident queue: full double-word
    // store cost for the head, write-combined follower stores after.
    _host.cpu().busy(proc,
                     _spec.sendPost +
                         static_cast<sim::Tick>(planned - 1) *
                             _spec.sendPostBatch);
    ep.sendGuard().mutate("sendv");
    std::size_t accepted = 0;
    while (accepted < planned &&
           ep.sendQueue().push(descs[accepted])) {
        const SendDescriptor &desc = descs[accepted];
        if (!desc.isInline)
            for (std::uint8_t i = 0; i < desc.fragmentCount; ++i)
                ep.ownership().postSend(desc.fragments[i]);
        ++_posted;
        ++accepted;
    }
    if (accepted)
        _nic.doorbellTrain(&ep, accepted);
    return accepted;
}

bool
UNetAtm::postFree(sim::Process &proc, Endpoint &ep, BufferRef buf)
{
    check::assertCaller(proc, "UNetAtm::postFree");
    if (!checkOwner(proc, ep))
        return false;
    if (!ep.buffers().contains(buf))
        UNET_PANIC("free buffer outside the endpoint buffer area");
    _host.cpu().busy(proc, _spec.freePost);
    ep.freeGuard().mutate("postFree");
    if (!ep.freeQueue().push(buf))
        return false;
    ep.ownership().postFree(buf);
    return true;
}

ChannelId
UNetAtm::addChannelTo(Endpoint &ep, atm::Vci vci)
{
    ChannelInfo info;
    info.vci = vci;
    ChannelId id = ep.addChannel(info);
    _nic.installVci(vci, &ep, id);
    return id;
}

void
UNetAtm::connect(UNetAtm &a, Endpoint &ep_a, std::size_t port_a,
                 UNetAtm &b, Endpoint &ep_b, std::size_t port_b,
                 atm::Signalling &signalling, ChannelId &chan_a,
                 ChannelId &chan_b)
{
    auto vc = signalling.connect(port_a, port_b);
    chan_a = a.addChannelTo(ep_a, vc.vciAtA);
    chan_b = b.addChannelTo(ep_b, vc.vciAtB);
}

void
UNetAtm::connectDirect(UNetAtm &a, Endpoint &ep_a, UNetAtm &b,
                       Endpoint &ep_b, atm::Vci vci, ChannelId &chan_a,
                       ChannelId &chan_b)
{
    chan_a = a.addChannelTo(ep_a, vci);
    chan_b = b.addChannelTo(ep_b, vci);
}

void
UNetAtm::connectFabric(UNetAtm &a, Endpoint &ep_a,
                       atm::Fabric::HostAttachment at_a, UNetAtm &b,
                       Endpoint &ep_b,
                       atm::Fabric::HostAttachment at_b,
                       atm::Fabric &fabric, ChannelId &chan_a,
                       ChannelId &chan_b)
{
    auto vc = fabric.connect(at_a, at_b);
    chan_a = a.addChannelTo(ep_a, vc.vciAtA);
    chan_b = b.addChannelTo(ep_b, vc.vciAtB);
}

} // namespace unet
