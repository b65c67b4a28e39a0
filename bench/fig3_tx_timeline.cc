/**
 * @file
 * Figure 3: Fast Ethernet transmission timeline for a 40-byte message.
 *
 * Regenerates the paper's step-by-step breakdown of the U-Net/FE send
 * trap: eight labelled steps summing to ~4.2 us of processor overhead,
 * of which ~20% is the trap itself. The rows are the Step spans the
 * kernel agent records into the simulation's TraceSession; pass
 * `--trace FILE` / `--metrics FILE` to also export the raw artifacts.
 */

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

int
main(int argc, char **argv)
{
    ObsOutputs outs(argc, argv);

    sim::Simulation s;
    s.enableTrace();
    RawPair rig(s, Fabric::FeBay);

    sim::Process echo(s, "echo", [](sim::Process &) {});
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        rawSend(rig.unetOf(0), self, rig.ep(0), rig.chan(0), 40, 16384);
    });
    rig.wire(tx, echo);
    tx.start();
    s.run();

    std::printf("Figure 3: U-Net/FE transmission timeline, 40-byte "
                "message (60-byte frame)\n");
    std::printf("%-52s %10s %10s\n", "step", "cost (us)", "cum (us)");
    // One message: the sender's Step spans come out in timeline order.
    auto *tr = s.trace();
    double cum = 0, trap = 0;
    std::size_t i = 0;
    tr->forEach([&](const obs::Span &sp) {
        if (sp.kind != obs::SpanKind::Step ||
            tr->nameOf(sp.track) != "A.cpu")
            return;
        double us = sim::toMicroseconds(sp.end - sp.start);
        cum += us;
        const std::string &label = tr->nameOf(sp.label);
        if (label == "trap entry" || label == "return from trap")
            trap += us;
        std::printf("%2zu. %-48s %10.2f %10.2f\n", ++i, label.c_str(),
                    us, cum);
    });
    std::printf("\ntotal processor overhead: %.2f us  (paper: ~4.2 us)\n",
                cum);
    std::printf("trap entry+exit share:    %.0f%%    (paper: ~20%%)\n",
                cum > 0 ? trap / cum * 100 : 0.0);
    outs.write(s);
    return 0;
}
