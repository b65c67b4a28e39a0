#include "unet/unet_atm.hh"

#include "sim/logging.hh"

namespace unet {

UNetAtm::UNetAtm(host::Host &host, nic::Pca200 &nic, UNetAtmSpec spec)
    : UNet(host, maxMessage, spec.freePost), _spec(spec), _nic(nic),
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

std::size_t
UNetAtm::submit(sim::Process &proc, Endpoint &ep,
                const SendDescriptor *descs, std::size_t n)
{
    // An invalid channel rejects before any cost is charged; the burst
    // stops at the first offender.
    std::size_t planned = 0;
    while (planned < n && ep.channelValid(descs[planned].channel))
        ++planned;
    if (planned < n)
        UNET_WARN("U-Net/ATM: send on invalid channel ",
                  descs[planned].channel);
    if (planned == 0)
        return 0;

    // "the host stores the U-Net send descriptor into the i960-resident
    // transmit queue using a double-word store": full cost for the
    // head, write-combined follower stores after.
    _host.cpu().busy(proc,
                     _spec.sendPost +
                         static_cast<sim::Tick>(planned - 1) *
                             _spec.sendPostBatch);
    ep.sendGuard().mutate("send");
    std::size_t accepted = ep.postSends(descs, planned);
    _posted += accepted;
    if (accepted)
        _nic.doorbellTrain(&ep, accepted);
    return accepted;
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
