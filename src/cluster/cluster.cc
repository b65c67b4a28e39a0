#include "cluster/cluster.hh"

#include "sim/logging.hh"

namespace unet::cluster {

Config
Config::feCluster(int nodes, NetKind sw, bool paper_hosts)
{
    Config c;
    c.net = sw;
    c.nodes = nodes;
    c.bus = host::BusSpec::pci();
    if (paper_hosts) {
        // "one 90 MHz and seven 120 MHz Pentium workstations"
        c.cpus = {host::CpuSpec::pentium90(),
                  host::CpuSpec::pentium120()};
    } else {
        c.cpus = {host::CpuSpec::pentium120()};
    }
    return c;
}

Config
Config::atmSplitC(int nodes, bool paper_hosts)
{
    Config c;
    c.net = NetKind::Atm;
    c.nodes = nodes;
    c.bus = host::BusSpec::sbus();
    c.atmLink = atm::LinkSpec::taxi140();
    if (paper_hosts) {
        // "4 SPARCStation 20s and 4 SPARCStation 10s": the first half
        // of any cluster size gets SS20s.
        c.cpus.clear();
        for (int i = 0; i < nodes; ++i)
            c.cpus.push_back(i < (nodes + 1) / 2
                                 ? host::CpuSpec::sparc20()
                                 : host::CpuSpec::sparc10());
    } else {
        c.cpus = {host::CpuSpec::sparc20()};
    }
    return c;
}

Config
Config::atmPca200(int nodes)
{
    Config c;
    c.net = NetKind::Atm;
    c.nodes = nodes;
    c.bus = host::BusSpec::pci();
    c.atmLink = atm::LinkSpec::oc3();
    c.cpus = {host::CpuSpec::pentium120()};
    return c;
}

namespace {

/** The topology @p config describes (validated). */
topo::Spec
topologyOf(const Config &config)
{
    if (config.nodes < 1)
        UNET_FATAL("cluster needs at least one node");
    if (config.cpus.empty())
        UNET_FATAL("cluster config has no CPU specs");

    topo::Fabric fabric = config.atmSwitch;
    if (config.net == NetKind::FeHub)
        fabric = config.hub;
    else if (config.net == NetKind::FeBay28115)
        fabric = eth::SwitchSpec::bay28115();
    else if (config.net == NetKind::FeFn100)
        fabric = eth::SwitchSpec::fn100();
    topo::Spec spec = topo::Spec::numbered(fabric, config.nodes);
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        spec.nodes[i].cpu =
            config.cpus[std::min(i, config.cpus.size() - 1)];
        spec.nodes[i].bus = config.bus;
        spec.nodes[i].atmLink = config.atmLink;
    }
    return spec;
}

} // namespace

Cluster::Cluster(sim::Simulation &sim, Config cfg)
    : sim(sim), config(std::move(cfg)), topology(sim, topologyOf(config))
{
    // Processes (endpoint owners), endpoints, runtimes.
    for (int i = 0; i < config.nodes; ++i) {
        Node &node = *nodes.emplace_back(std::make_unique<Node>());
        node.proc = std::make_unique<sim::Process>(
            sim, "spmd" + std::to_string(i),
            [this, i](sim::Process &p) {
                mainFn(*nodes[i]->runtime, p);
                nodes[i]->finishedAt = p.simulation().now();
            },
            config.stackBytes);
        node.endpoint = &unetOf(i).createEndpoint(node.proc.get(),
                                                  config.endpoint);
        node.runtime = std::make_unique<splitc::Runtime>(
            unetOf(i), *node.endpoint, i, config.nodes,
            config.heapBytes, config.am);
        node.runtime->bindOwner(node.proc.get());
    }

    // Full mesh of channels.
    for (int i = 0; i < config.nodes; ++i) {
        for (int j = i + 1; j < config.nodes; ++j) {
            ChannelId ci = invalidChannel, cj = invalidChannel;
            topology.connect(i, *nodes[i]->endpoint, j, *nodes[j]->endpoint,
                             ci, cj);
            nodes[i]->runtime->setChannel(j, ci);
            nodes[j]->runtime->setChannel(i, cj);
        }
    }
}

Cluster::~Cluster() = default;

sim::Tick
Cluster::run(std::function<void(splitc::Runtime &, sim::Process &)> main)
{
    if (ran)
        UNET_FATAL("a Cluster can run one SPMD program; build another");
    ran = true;
    mainFn = std::move(main);

    sim::Tick start = sim.now();
    for (auto &node : nodes)
        node->proc->start();
    if (config.simTimeLimit > 0)
        sim.runUntil(start + config.simTimeLimit);
    else
        sim.run();

    sim::Tick finish = start;
    bool all_done = true;
    for (auto &node : nodes)
        all_done = all_done && node->proc->finished();
    if (!all_done) {
        for (auto &node : nodes) {
            auto &am = node->runtime->am();
            std::fprintf(stderr,
                         "  %s: finished=%d sent=%llu recv=%llu "
                         "retx=%llu dead=%llu sendq=%zu recvq=%zu\n",
                         node->proc->name().c_str(),
                         node->proc->finished() ? 1 : 0,
                         static_cast<unsigned long long>(am.sent()),
                         static_cast<unsigned long long>(
                             am.received()),
                         static_cast<unsigned long long>(
                             am.retransmits()),
                         static_cast<unsigned long long>(
                             am.deadChannels()),
                         node->endpoint->sendQueue().size(),
                         node->endpoint->recvQueue().size());
        }
        UNET_FATAL("SPMD program did not finish",
                   config.simTimeLimit
                       ? " within the simulated-time watchdog"
                       : " (event queue drained: deadlock)");
    }
    for (auto &node : nodes)
        finish = std::max(finish, node->finishedAt);
    return finish - start;
}

} // namespace unet::cluster
