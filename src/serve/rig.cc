#include "serve/rig.hh"

#include <cstdio>
#include <numeric>

#include "sim/logging.hh"

namespace unet::serve {

namespace {

/** Server endpoint: deep queues for fan-in, a channel per client. */
EndpointConfig
serverEndpointConfig(int clients)
{
    EndpointConfig ep;
    ep.sendQueueDepth = 256;
    ep.recvQueueDepth = 256;
    ep.freeQueueDepth = 128;
    ep.maxChannels = static_cast<std::size_t>(clients) + 8;
    return ep;
}

/** The server (node 0), then client i as node 1 + i. */
topo::Spec
topologyOf(const RigSpec &spec)
{
    if (spec.clients < 1)
        UNET_FATAL("serve rig needs at least one client");
    if (spec.methods.empty())
        UNET_FATAL("serve rig needs at least one method");

    topo::Spec t;
    if (spec.nic == NicKind::Fe) {
        eth::SwitchSpec sw = eth::SwitchSpec::bay28115();
        // The paper's switch has 16 ports; serving incast wants
        // hundreds. Model a stacked deployment: same per-port
        // behaviour, no port cap.
        sw.maxPorts = 0;
        t.fabric = sw;
    } else {
        t.fabric = atm::SwitchSpec::asx200();
    }

    // Server first: MAC index 1, the first "atm.link".
    t.nodes.push_back({.name = "server", .mac = 1, .atmLink = spec.atmLink,
                       .faultSuffix = ".s"});
    for (int i = 0; i < spec.clients; ++i) {
        // Distinct per-client propagation delays (cable-length
        // spread): with every node sharing cell-time and firmware
        // quantization constants, identical delays would land
        // independent clients' cells on the switch at the same tick —
        // a physically arbitrary tie the perturbation auditor rightly
        // flags. A picosecond per port breaks every such tie without
        // measurable latency effect.
        atm::LinkSpec link = spec.atmLink;
        link.propDelay += i + 1;
        t.nodes.push_back({.name = "c" + std::to_string(i),
                           .mac = static_cast<std::uint32_t>(i + 2),
                           .atmLink = link,
                           .faultSuffix = ".c" + std::to_string(i)});
    }
    return t;
}

} // namespace

ServeRig::ServeRig(RigSpec s)
    : spec(std::move(s)), sim(spec.seed), topology(sim, topologyOf(spec)),
      plan(spec.faults.empty() ? fault::Plan{}
                               : fault::Plan::parse(spec.faults))
{
    topology.attachFaults(plan);

    // Processes, endpoints, RPC layers.
    serverProc = std::make_unique<sim::Process>(
        sim, "server",
        [this](sim::Process &p) {
            serverOk = _server->serve(p, [this] {
                return finishedClients == spec.clients;
            });
            serverDone = true;
        },
        4 * 1024 * 1024);
    // Shard attribution for the happens-before auditor: the server
    // fiber's work belongs to the server host's shard.
    serverProc->bindShardDomain(topology.host(0).name());
    serverOs = std::make_unique<OsService>(topology.unet(0), spec.osLimits);
    serverEp = serverOs->createEndpoint(
        *serverProc, serverEndpointConfig(spec.clients));
    if (!serverEp)
        UNET_FATAL("serve rig: OS service denied the server endpoint");

    _stats = std::make_unique<ServeStats>(
        sim.metrics(), spec.methods.size(), spec.slo);
    _server = std::make_unique<RpcServer>(topology.unet(0), *serverEp,
                                          spec.serverAm, spec.seed);
    for (const MethodSpec &m : spec.methods)
        _server->addMethod(m);

    clientOk.assign(static_cast<std::size_t>(spec.clients), false);
    for (int i = 0; i < spec.clients; ++i) {
        ClientNode &node =
            *clients.emplace_back(std::make_unique<ClientNode>());
        node.proc = std::make_unique<sim::Process>(
            sim, "client" + std::to_string(i),
            [this, i](sim::Process &p) {
                ClientNode &n = *clients[i];
                GenParams params;
                params.clientIndex = static_cast<std::uint32_t>(i);
                params.stride =
                    static_cast<std::uint32_t>(spec.clients);
                params.seed = spec.seed;
                params.methods.resize(spec.methods.size());
                std::iota(params.methods.begin(),
                          params.methods.end(), MethodId{0});
                params.requestBytes = spec.requestBytes;
                params.completionTimeout = workload.completionTimeout;

                bool ok;
                if (workload.closedLoop) {
                    ClosedLoopSpec cl;
                    cl.requests = workload.requestsPerClient;
                    cl.window = workload.window;
                    cl.meanThink = workload.meanThink;
                    ok = runClosedLoop(p, *n.rpc, params, cl);
                } else {
                    OpenLoopSpec ol;
                    ol.requests = workload.requestsPerClient;
                    ol.meanGap = workload.meanGap;
                    ok = runOpenLoop(p, *n.rpc, params, ol);
                }
                clientOk[static_cast<std::size_t>(i)] = ok;
                ++finishedClients;
                // Two-phase shutdown: keep polling (ACKing the
                // server's drain-phase retransmits) until the server
                // finished its own drain. A client that exits first
                // turns one lost final ACK into a dead channel.
                n.rpc->am().pollUntil(
                    p, [this] { return serverDone; }, sim::seconds(10));
            },
            512 * 1024);
        node.proc->bindShardDomain(topology.host(i + 1).name());
        node.os = std::make_unique<OsService>(topology.unet(i + 1),
                                              spec.osLimits);
        node.endpoint = node.os->createEndpoint(*node.proc, {});
        if (!node.endpoint)
            UNET_FATAL("serve rig: OS service denied client endpoint ",
                       i);
    }

    // Channels: each client to the server.
    for (int i = 0; i < spec.clients; ++i) {
        ClientNode &node = *clients[i];
        ChannelId at_server = invalidChannel;
        topology.connect(i + 1, *node.endpoint, 0, *serverEp, node.toServer,
                         at_server);
        _server->openChannel(at_server);
        node.rpc = std::make_unique<RpcClient>(
            topology.unet(i + 1), *node.endpoint, node.toServer,
            static_cast<std::uint32_t>(i), *_stats, spec.clientAm);
    }
}

ServeRig::~ServeRig() = default;

RunResult
ServeRig::run(const Workload &w)
{
    if (ran)
        UNET_FATAL("a ServeRig runs one workload; build another");
    ran = true;
    workload = w;

    sim::Tick start = sim.now();
    serverProc->start(sim::microseconds(1));
    // Distinct start ticks: no two client fibers ever share a
    // scheduling tick at startup (perturbation hygiene).
    for (int i = 0; i < spec.clients; ++i)
        clients[static_cast<std::size_t>(i)]->proc->start(
            sim::microseconds(10) + i);

    if (spec.simTimeLimit > 0)
        sim.runUntil(start + spec.simTimeLimit);
    else
        sim.run();

    RunResult r;
    r.finished = serverProc->finished();
    for (auto &node : clients)
        r.finished = r.finished && node->proc->finished();
    if (!r.finished) {
        std::fprintf(stderr,
                     "serve rig did not quiesce (%d/%d clients, "
                     "server finished=%d):\n",
                     finishedClients, spec.clients,
                     serverProc->finished() ? 1 : 0);
        std::fprintf(
            stderr, "  server: served=%llu retx=%llu rxDrops=%llu\n",
            static_cast<unsigned long long>(_server->served()),
            static_cast<unsigned long long>(
                _server->am().retransmits()),
            static_cast<unsigned long long>(
                serverEp->rxQueueDrops()));
        for (auto &node : clients) {
            if (node->proc->finished())
                continue;
            std::fprintf(
                stderr,
                "  %s: outstanding=%zu completions=%llu retx=%llu\n",
                node->proc->name().c_str(), node->rpc->outstanding(),
                static_cast<unsigned long long>(
                    node->rpc->completions()),
                static_cast<unsigned long long>(
                    node->rpc->am().retransmits()));
        }
    }

    for (auto &node : clients)
        r.clientRetransmits += node->rpc->am().retransmits();
    // Makespan ends at the last *completion*: the post-run drain and
    // ACK grace are protocol housekeeping, not served load.
    sim::Tick last = _stats->lastCompletion();
    r.makespan = last > start ? last - start : 0;

    r.issued = _stats->issued();
    r.completed = _stats->completed();
    r.dupResponses = _stats->dupResponses();
    r.issuedLate = _stats->issuedLate();
    r.giveUps = _stats->giveUps();
    r.sloViolations = _stats->sloViolations();
    r.served = _server->served();
    r.serverRetransmits = _server->am().retransmits();
    r.serverRxQueueDrops = serverEp->rxQueueDrops();

    r.p50Us = _stats->latencyNs().quantile(0.50) / 1000.0;
    r.p99Us = _stats->latencyNs().quantile(0.99) / 1000.0;
    r.p999Us = _stats->latencyNs().quantile(0.999) / 1000.0;
    if (!workload.closedLoop) {
        // Open loop: the offered-load horizon is the natural goodput
        // denominator — completed equals issued exactly when the plane
        // keeps up, and the ratio to offered load reads directly.
        // (Makespan would fold in the straggler tail of the slowest
        // client's Poisson stream.)
        sim::Tick horizon = static_cast<sim::Tick>(
                                workload.requestsPerClient) *
                            workload.meanGap;
        if (horizon > 0)
            r.goodputRps = static_cast<double>(r.completed) /
                           (static_cast<double>(horizon) * 1e-12);
    } else if (r.makespan > 0) {
        r.goodputRps = static_cast<double>(r.completed) /
                       (static_cast<double>(r.makespan) * 1e-12);
    }
    if (r.issued > 0)
        r.sloViolationRate = static_cast<double>(r.sloViolations) /
                             static_cast<double>(r.issued);
    return r;
}

} // namespace unet::serve
