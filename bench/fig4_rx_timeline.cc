/**
 * @file
 * Figure 4: Fast Ethernet reception timeline for 40- and 100-byte
 * messages.
 *
 * The 40-byte message rides the small-message optimization (copied
 * straight into the receive descriptor, ~4.1 us); the 100-byte message
 * allocates a free buffer and pays the copy slope (~5.6 us total,
 * 1.42 us per extra 100 bytes at the Pentium's 70 MB/s). The rows are
 * the Step spans the receiving kernel agent records into the
 * TraceSession; pass `--trace FILE` / `--metrics FILE` on the first
 * (40-byte) run to export the raw artifacts.
 */

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

namespace {

/** One labelled timeline row: (step name, cost in us). */
using Timeline = std::vector<std::pair<std::string, double>>;

Timeline
receiveOnce(std::size_t size, const ObsOutputs *outs = nullptr)
{
    sim::Simulation s;
    s.enableTrace();
    RawPair rig(s, Fabric::FeBay);

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        auto &fe = static_cast<UNetFe &>(rig.unetOf(1));
        for (int i = 0; i < 4; ++i)
            fe.postFree(self, rig.ep(1),
                        {static_cast<std::uint32_t>(i * 2048), 2048});
        RecvDescriptor rd;
        rig.ep(1).wait(self, rd, sim::seconds(1));
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        rawSend(rig.unetOf(0), self, rig.ep(0), rig.chan(0), size,
                16384);
    });
    rig.wire(tx, rx);
    rx.start();
    tx.start(sim::microseconds(2));
    s.run();

    Timeline t;
    // One message: the receiver's Step spans come out in order.
    auto *tr = s.trace();
    tr->forEach([&](const obs::Span &sp) {
        if (sp.kind == obs::SpanKind::Step &&
            tr->nameOf(sp.track) == "B.cpu")
            t.emplace_back(tr->nameOf(sp.label),
                           sim::toMicroseconds(sp.end - sp.start));
    });
    if (outs)
        outs->write(s);
    return t;
}

void
printTimeline(const char *title, const Timeline &steps)
{
    std::printf("%s\n", title);
    std::printf("%-52s %10s %10s\n", "step", "cost (us)", "cum (us)");
    double cum = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        cum += steps[i].second;
        std::printf("%2zu. %-48s %10.2f %10.2f\n", i + 1,
                    steps[i].first.c_str(), steps[i].second, cum);
    }
    std::printf("total handler time: %.2f us\n\n", cum);
}

double
total(const Timeline &steps)
{
    double sum = 0;
    for (const auto &[name, us] : steps)
        sum += us;
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    ObsOutputs outs(argc, argv);

    std::printf("Figure 4: U-Net/FE reception timelines\n\n");
    printTimeline("(a) 40-byte message — small-message path "
                  "(paper: ~4.1 us total)",
                  receiveOnce(40, &outs));
    printTimeline("(b) 100-byte message — buffer-allocation path "
                  "(paper: ~5.6 us total)",
                  receiveOnce(100));

    // The copy slope: +1.42 us per additional 100 bytes.
    double t100 = total(receiveOnce(100));
    double t500 = total(receiveOnce(500));
    std::printf("copy slope: %.2f us / 100 bytes  (paper: 1.42)\n",
                (t500 - t100) / 4.0);
    return 0;
}
