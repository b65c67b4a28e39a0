/**
 * @file
 * Figure 5: application-to-application round-trip latency vs message
 * size for U-Net/FE (hub, Bay 28115, Cabletron FN100) and U-Net/ATM
 * (PCA-200 on OC-3c through an ASX-200).
 *
 * Paper anchors: 40-byte RTT of ~57 us (hub) to ~91 us (FN100) on FE
 * and ~89 us on ATM; slopes of ~25 us/100 B (FE) and ~17 us/100 B
 * (ATM); the ATM multi-cell cliff past 40 bytes (no single-cell
 * optimization: 130 us at 44 bytes rising to ~351 us at 1.5 KB).
 */

#include <vector>

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

int
main(int argc, char **argv)
{
    bool fine = argc > 1 && std::string(argv[1]) == "--fine";

    // `--trace FILE` / `--metrics FILE`: run one traced 40-byte round
    // trip per substrate class instead of the full sweep, exporting the
    // span timeline. Custody spans tile each round, so their durations
    // sum to the reported RTT (validated by tools/trace_report.py).
    ObsOutputs outs(argc, argv);
    if (outs.requested()) {
        double rtt = roundTripTracedUs(
            Fabric::FeBay, 40, 4, {},
            [&](sim::Simulation &s, double mean) {
                outs.write(s);
                std::printf("traced 40B FE Bay28115 round trip: "
                            "%.2f us mean\n",
                            mean);
            });
        double atm = roundTripTracedUs(Fabric::AtmOc3, 40, 4, {});
        std::printf("traced 40B ATM OC-3c round trip:   %.2f us mean "
                    "(not exported)\n",
                    atm);
        return rtt > 0 && atm > 0 ? 0 : 1;
    }

    std::vector<std::size_t> sizes = {0,   8,   16,  24,  32,  40,
                                      44,  48,  64,  80,  96,  128,
                                      192, 256, 384, 512, 768, 1024,
                                      1280, 1494};
    if (fine)
        for (std::size_t v = 0; v <= 128; v += 4)
            sizes.push_back(v);

    const Fabric fabrics[] = {Fabric::FeHub, Fabric::FeBay,
                              Fabric::FeFn100, Fabric::AtmOc3};

    std::printf("Figure 5: round-trip latency (us) vs message size\n");
    std::printf("%8s", "bytes");
    for (Fabric f : fabrics)
        std::printf(" %14s", fabricName(f));
    std::printf("\n");

    Sweep sweep;
    sweep.begin(std::size(fabrics), sizes.size());
    for (std::size_t size : sizes) {
        sweep.addPoint(size);
        for (std::size_t fi = 0; fi < std::size(fabrics); ++fi)
            sweep.add(fi, roundTripUs(fabrics[fi], size));
    }

    for (std::size_t i = 0; i < sweep.points(); ++i) {
        std::printf("%8zu", sweep.x(i));
        for (std::size_t fi = 0; fi < std::size(fabrics); ++fi)
            std::printf(" %14.1f", sweep.value(fi, i));
        std::printf("\n");
    }

    // Headline anchors.
    std::printf("\nanchors (paper -> measured):\n");
    std::printf("  40B FE hub      57 us  -> %6.1f us\n",
                roundTripUs(Fabric::FeHub, 40));
    std::printf("  40B FE FN100    91 us  -> %6.1f us\n",
                roundTripUs(Fabric::FeFn100, 40));
    std::printf("  40B ATM OC-3c   89 us  -> %6.1f us\n",
                roundTripUs(Fabric::AtmOc3, 40));
    std::printf("  44B ATM OC-3c  130 us  -> %6.1f us  (multi-cell "
                "cliff)\n",
                roundTripUs(Fabric::AtmOc3, 44));
    std::printf("1494B ATM OC-3c ~351 us  -> %6.1f us\n",
                roundTripUs(Fabric::AtmOc3, 1494));
    double fe_slope = (roundTripUs(Fabric::FeHub, 1000) -
                       roundTripUs(Fabric::FeHub, 200)) / 8.0;
    double atm_slope = (roundTripUs(Fabric::AtmOc3, 1000) -
                        roundTripUs(Fabric::AtmOc3, 200)) / 8.0;
    std::printf("  FE slope        25 us/100B -> %4.1f\n", fe_slope);
    std::printf("  ATM slope       17 us/100B -> %4.1f\n", atm_slope);
    return 0;
}
