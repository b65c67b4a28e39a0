/**
 * @file
 * Test rigs for the U-Net implementations: the topology builder's
 * node aggregates, an ATM star on it, a U-Net/FE TX-backlog probe and
 * a payload pattern.
 */

#ifndef UNET_TESTS_UNET_FIXTURES_HH
#define UNET_TESTS_UNET_FIXTURES_HH

#include <algorithm>
#include <vector>

#include "topo/topology.hh"

namespace unet::test {

using topo::AtmNode;
using topo::FeNode;

/** An ATM star: N nodes "node<i>" around one ASX-200. */
struct AtmStar
{
    AtmStar(sim::Simulation &s, int n,
            host::CpuSpec cpu = host::CpuSpec::pentium120(),
            host::BusSpec bus = host::BusSpec::pci(),
            atm::LinkSpec link_spec = atm::LinkSpec::oc3())
        : topology(s, spec(n, cpu, bus, link_spec)),
          sw(*topology.atmSwitch()), signalling(*topology.signalling())
    {
        for (int i = 0; i < topology.size(); ++i)
            ports.push_back(topology.atm(i).port);
    }

    AtmNode &operator[](int i) { return topology.atm(i); }

    topo::Topology topology;
    atm::Switch &sw;
    atm::Signalling &signalling;
    std::vector<std::size_t> ports;

  private:
    static topo::Spec
    spec(int n, const host::CpuSpec &cpu, const host::BusSpec &bus,
         const atm::LinkSpec &link_spec)
    {
        topo::Spec sp = topo::Spec::numbered(atm::SwitchSpec::asx200(), n);
        for (topo::NodeSpec &node : sp.nodes) {
            node.cpu = cpu;
            node.bus = bus;
            node.atmLink = link_spec;
        }
        return sp;
    }
};

/**
 * Checks UNetFe::txBacklog against a sweep of the DC21140 TX ring
 * (send-queue entries plus every descriptor the device owns) after
 * every event and every fiber slice, while installed as the
 * simulation's task observer.
 */
class TxBacklogProbe : public sim::TaskObserver
{
  public:
    TxBacklogProbe(sim::Simulation &s, UNetFe &unet, const Endpoint &ep)
        : s(s), unet(unet), ep(ep)
    {
        s.events().setTaskObserver(this);
    }

    ~TxBacklogProbe() override { s.events().setTaskObserver(nullptr); }

    TxBacklogProbe(const TxBacklogProbe &) = delete;
    TxBacklogProbe &operator=(const TxBacklogProbe &) = delete;

    /** The backlog as a full ring sweep computes it. */
    std::size_t
    ringSweep() const
    {
        std::size_t backlog = ep.sendQueue().size();
        for (std::size_t i = 0; i < unet.nic().txRingSize(); ++i)
            if (unet.nic().txDesc(i).own)
                ++backlog;
        return backlog;
    }

    std::size_t checks = 0;
    std::size_t mismatches = 0;
    std::size_t maxBacklog = 0;

    void onEventScheduled(std::uint64_t, sim::Tick, sim::Order) override {}
    void onEventFireBegin(std::uint64_t, sim::Tick, sim::Order) override {}
    void onEventFireEnd(std::uint64_t) override { check(); }
    void onEventCancelled(std::uint64_t) override {}
    void onFiberResume(sim::Process &) override {}
    void onFiberSuspend(sim::Process &) override { check(); }

  private:
    void
    check()
    {
        const std::size_t sweep = ringSweep();
        ++checks;
        if (unet.txBacklog(ep) != sweep)
            ++mismatches;
        maxBacklog = std::max(maxBacklog, sweep);
    }

    sim::Simulation &s;
    UNetFe &unet;
    const Endpoint &ep;
};

/** A recognizable payload. */
inline std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i * 7);
    return v;
}

} // namespace unet::test

#endif // UNET_TESTS_UNET_FIXTURES_HH
