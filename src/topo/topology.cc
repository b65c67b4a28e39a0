#include "topo/topology.hh"

#include "fault/attach.hh"

namespace unet::topo {

NodeSpec
NodeSpec::numbered(int index)
{
    return {.name = "node" + std::to_string(index),
            .mac = static_cast<std::uint32_t>(index + 1)};
}

Spec
Spec::numbered(Fabric fabric, int count, std::vector<int> first)
{
    for (int i = 0; i < count; ++i)
        first.push_back(i);
    Spec spec{std::move(fabric), {}};
    for (int i : first)
        spec.nodes.push_back(NodeSpec::numbered(i));
    return spec;
}

FeNode::FeNode(sim::Simulation &s, eth::Network &net, const NodeSpec &spec)
    : host(s, spec.name, spec.cpu, spec.bus),
      nic(host, net, eth::MacAddress::fromIndex(spec.mac)),
      unet(host, nic, spec.fe)
{
}

AtmNode::AtmNode(sim::Simulation &s, const NodeSpec &spec, atm::Switch *sw,
                 atm::AtmLink *shared)
    : host(s, spec.name, spec.cpu, spec.bus),
      ownLink(shared ? nullptr
                     : std::make_unique<atm::AtmLink>(s, spec.atmLink)),
      link(shared ? *shared : *ownLink), nic(host, link, spec.pca),
      port(sw ? sw->addPort(link) : 0), unet(host, nic)
{
}

Topology::Topology(sim::Simulation &sim, Spec spec)
    : sim(sim), _spec(std::move(spec))
{
    eth::Network *net = nullptr;
    if (auto *h = std::get_if<eth::HubSpec>(&_spec.fabric)) {
        net = (hub = std::make_unique<eth::Hub>(sim, *h)).get();
    } else if (auto *sw = std::get_if<eth::SwitchSpec>(&_spec.fabric)) {
        net = (ethSwitch = std::make_unique<eth::Switch>(sim, *sw)).get();
    } else if (std::holds_alternative<EthLinkSpec>(_spec.fabric)) {
        net = (ethLink = std::make_unique<eth::FullDuplexLink>(sim)).get();
    } else if (auto *sw = std::get_if<atm::SwitchSpec>(&_spec.fabric)) {
        _atmSwitch = std::make_unique<atm::Switch>(sim, *sw);
        _signalling = std::make_unique<atm::Signalling>(*_atmSwitch);
    } else {
        atmLink = std::make_unique<atm::AtmLink>(
            sim, std::get<atm::LinkSpec>(_spec.fabric));
    }

    for (const NodeSpec &n : _spec.nodes) {
        if (net)
            feNodes.push_back(std::make_unique<FeNode>(sim, *net, n));
        else
            atmNodes.push_back(std::make_unique<AtmNode>(
                sim, n, _atmSwitch.get(), atmLink.get()));
    }
}

void
Topology::connect(int i, Endpoint &ep_i, int j, Endpoint &ep_j,
                  ChannelId &chan_i, ChannelId &chan_j, atm::Vci vci)
{
    if (!isAtm())
        UNetFe::connect(fe(i).unet, ep_i, fe(j).unet, ep_j, chan_i, chan_j);
    else if (_atmSwitch)
        UNetAtm::connect(atm(i).unet, ep_i, atm(i).port, atm(j).unet, ep_j,
                         atm(j).port, *_signalling, chan_i, chan_j);
    else
        UNetAtm::connectDirect(atm(i).unet, ep_i, atm(j).unet, ep_j, vci,
                               chan_i, chan_j);
}

void
Topology::attachFaults(fault::Plan &plan)
{
    if (hub)
        fault::attach(plan, sim, *hub);
    if (ethSwitch)
        fault::attach(plan, sim, *ethSwitch);
    if (ethLink)
        fault::attach(plan, sim, *ethLink);
    if (_atmSwitch)
        fault::attach(plan, sim, *_atmSwitch);
    if (atmLink)
        fault::attach(plan, sim, *atmLink);
    for (int i = 0; i < size(); ++i) {
        const std::string &suffix =
            _spec.nodes[static_cast<std::size_t>(i)].faultSuffix;
        if (!isAtm()) {
            fault::attach(plan, sim, fe(i).nic, suffix);
            continue;
        }
        if (atm(i).ownLink)
            fault::attach(plan, sim, *atm(i).ownLink, suffix);
        fault::attach(plan, sim, atm(i).nic, suffix);
    }
}

} // namespace unet::topo
