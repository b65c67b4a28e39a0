/**
 * @file
 * One topology builder for every rig: N hosts, each with a DC21140 or
 * a PCA-200 and its U-Net driver, on one fabric.
 *
 * A Topology builds its Spec in one fixed order — the fabric, then each
 * node in list order (host -> link -> NIC -> switch port -> U-Net). The
 * order is a contract: components sharing a metric base (atm.link,
 * eth.switch, ...) are numbered by obs::Registry::uniquePrefix in
 * construction order, and that numbering and the MAC indices reach the
 * metrics digests. Endpoints, processes and traffic stay with the
 * caller.
 */

#ifndef UNET_TOPO_TOPOLOGY_HH
#define UNET_TOPO_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "atm/switch.hh"
#include "eth/hub.hh"
#include "eth/link.hh"
#include "eth/switch.hh"
#include "fault/fwd.hh"
#include "unet/unet_atm.hh"
#include "unet/unet_fe.hh"

namespace unet::topo {

/** A full-duplex 100BaseTX link between two FE nodes. */
struct EthLinkSpec
{
};

/**
 * The fabric, which also picks every node's NIC: a hub, an Ethernet
 * switch or a full-duplex link take DC21140s; an ATM switch (each node
 * on its own link to a port) or one ATM link shared by two nodes take
 * PCA-200s.
 */
using Fabric = std::variant<eth::HubSpec, eth::SwitchSpec, EthLinkSpec,
                            atm::SwitchSpec, atm::LinkSpec>;

/** One node. Every member has a default, so designated initializers
 *  name only what a rig changes. */
struct NodeSpec
{
    std::string name{};
    host::CpuSpec cpu = host::CpuSpec::pentium120();
    host::BusSpec bus = host::BusSpec::pci();
    std::uint32_t mac = 0; ///< FE: eth::MacAddress::fromIndex index
    atm::LinkSpec atmLink = atm::LinkSpec::oc3(); ///< ATM switch only
    UNetFeSpec fe{};
    nic::Pca200Spec pca{};
    std::string faultSuffix{}; ///< ".a": nic.fe.rx.a, atm.link.a.0

    /** "node<index>" with MAC index index + 1. */
    static NodeSpec numbered(int index);
};

/** What a Topology builds: a fabric and an ordered node list. */
struct Spec
{
    Fabric fabric;
    std::vector<NodeSpec> nodes;

    /** NodeSpec::numbered nodes on @p fabric: each index of @p first,
     *  then 0 .. @p count - 1. */
    static Spec numbered(Fabric fabric, int count,
                         std::vector<int> first = {});
};

/** One Fast Ethernet node: host + DC21140 + in-kernel U-Net. */
struct FeNode
{
    FeNode(sim::Simulation &s, eth::Network &net, const NodeSpec &spec);
    FeNode(sim::Simulation &s, eth::Network &net, int index)
        : FeNode(s, net, NodeSpec::numbered(index))
    {}

    host::Host host;
    nic::Dc21140 nic;
    UNetFe unet;
};

/** One ATM node: host + link + PCA-200 + U-Net/ATM driver. The link
 *  is the node's own (on a port of @p sw, if given) unless @p shared
 *  names one. */
struct AtmNode
{
    AtmNode(sim::Simulation &s, const NodeSpec &spec,
            atm::Switch *sw = nullptr, atm::AtmLink *shared = nullptr);
    AtmNode(sim::Simulation &s, int index)
        : AtmNode(s, NodeSpec::numbered(index))
    {}

    host::Host host;
    std::unique_ptr<atm::AtmLink> ownLink; ///< null on a shared link
    atm::AtmLink &link;
    nic::Pca200 nic;
    std::size_t port = 0; ///< ATM switch port
    UNetAtm unet;
};

/** A built Spec: the fabric and its nodes, in list order. */
class Topology
{
  public:
    Topology(sim::Simulation &sim, Spec spec);

    int size() const { return static_cast<int>(_spec.nodes.size()); }
    bool isAtm() const { return _atmSwitch || atmLink; }

    FeNode &fe(int i) { return *feNodes.at(static_cast<std::size_t>(i)); }
    AtmNode &
    atm(int i)
    {
        return *atmNodes.at(static_cast<std::size_t>(i));
    }
    host::Host &host(int i) { return isAtm() ? atm(i).host : fe(i).host; }
    UNet &
    unet(int i)
    {
        return isAtm() ? static_cast<UNet &>(atm(i).unet) : fe(i).unet;
    }

    /** The ATM-switch fabric's switch and signalling; null on others. */
    atm::Switch *atmSwitch() { return _atmSwitch.get(); }
    atm::Signalling *signalling() { return _signalling.get(); }

    /**
     * Open a channel between @p ep_i on node @p i and @p ep_j on node
     * @p j: an FE channel, a signalled ATM circuit through the switch,
     * or on a shared ATM link the direct circuit @p vci.
     */
    void connect(int i, Endpoint &ep_i, int j, Endpoint &ep_j,
                 ChannelId &chan_i, ChannelId &chan_j, atm::Vci vci = 0);

    /** Arm @p plan on the fabric's canonical sites and on each node's
     *  NIC and own link under its suffix. The plan must die before
     *  the simulation. */
    void attachFaults(fault::Plan &plan);

  private:
    sim::Simulation &sim;
    Spec _spec;

    // The fabric: one of these is set.
    std::unique_ptr<eth::Hub> hub;
    std::unique_ptr<eth::Switch> ethSwitch;
    std::unique_ptr<eth::FullDuplexLink> ethLink;
    std::unique_ptr<atm::Switch> _atmSwitch;
    std::unique_ptr<atm::Signalling> _signalling;
    std::unique_ptr<atm::AtmLink> atmLink;

    std::vector<std::unique_ptr<FeNode>> feNodes;
    std::vector<std::unique_ptr<AtmNode>> atmNodes;
};

} // namespace unet::topo

#endif // UNET_TOPO_TOPOLOGY_HH
