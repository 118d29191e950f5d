/**
 * @file
 * Companion to Figure 9 for CNNs: a SqueezeNet-like backbone (stages
 * are Table-V-style conv chains with ReLU) executed end to end with
 * Chimera-fused stages vs the unfused library path. Measured wall-clock
 * on the host CPU; outputs validated to agree first.
 */

#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "graph/cnn.hpp"
#include "support/mathutil.hpp"
#include "support/thread_pool.hpp"

int
main(int argc, char **argv)
{
    using namespace chimera;
    using namespace chimera::bench;
    const int threads = threadsFromArgs(argc, argv);
    const exec::ExecOptions parOptions{threads, nullptr};
    const int workers = resolveThreadCount(threads);
    bench::printHeader(
        "End-to-end CNN — conv-chain stages fused vs unfused (measured)",
        "SqueezeNet-like backbone variants; every stage is a conv chain "
        "with fused ReLU. --threads N (or CHIMERA_THREADS) selects the "
        "worker count; the fused path is timed serial and parallel.");

    struct Variant
    {
        const char *name;
        std::int64_t ic, hw;
    };
    const Variant variants[] = {
        {"CNN-56", 8, 56},
        {"CNN-112", 8, 112},
        {"CNN-3ch-64", 3, 64},
    };

    AsciiTable table({"Network", "stages", "Unfused (ms)",
                      "Chimera 1T (ms)",
                      "Chimera " + std::to_string(workers) + "T (ms)",
                      "speedup", "scaling"});
    std::vector<double> speedups;
    std::vector<double> scalings;
    for (const Variant &variant : variants) {
        graph::CnnConfig cfg = graph::squeezeNetLike();
        cfg.name = variant.name;
        cfg.inChannels = variant.ic;
        cfg.height = variant.hw;
        cfg.width = variant.hw;
        const graph::CnnBackbone cnn(cfg, hw::kPlanningBudgetBytes);

        Tensor input({cfg.batch, cfg.inChannels, cfg.height, cfg.width});
        Rng rng(12);
        fillUniform(input, rng);

        const Tensor fusedOut =
            cnn.forward(input, graph::ConvMode::FusedChimera);
        const Tensor unfusedOut =
            cnn.forward(input, graph::ConvMode::Unfused);
        if (!allClose(fusedOut, unfusedOut, 5e-3f, 5e-3f)) {
            std::printf("VALIDATION FAILED for %s\n", cfg.name.c_str());
            return 1;
        }
        const Tensor fusedPar =
            cnn.forward(input, graph::ConvMode::FusedChimera, parOptions);
        if (std::memcmp(fusedOut.data(), fusedPar.data(),
                        static_cast<std::size_t>(fusedOut.numel()) *
                            sizeof(float)) != 0) {
            std::printf("PARALLEL DETERMINISM FAILED for %s\n",
                        cfg.name.c_str());
            return 1;
        }

        const double tFused = bestOfSeconds(
            [&] {
                (void)cnn.forward(input, graph::ConvMode::FusedChimera,
                                  exec::ExecOptions{1, nullptr});
            },
            kRepeats);
        const double tFusedPar = bestOfSeconds(
            [&] {
                (void)cnn.forward(input, graph::ConvMode::FusedChimera,
                                  parOptions);
            },
            kRepeats);
        const double tUnfused = bestOfSeconds(
            [&] { (void)cnn.forward(input, graph::ConvMode::Unfused); },
            kRepeats);
        speedups.push_back(tUnfused / tFusedPar);
        scalings.push_back(tFused / tFusedPar);
        table.addRow({cfg.name, std::to_string(cfg.stages.size()),
                      AsciiTable::num(tUnfused * 1e3, 2),
                      AsciiTable::num(tFused * 1e3, 2),
                      AsciiTable::num(tFusedPar * 1e3, 2),
                      AsciiTable::num(tUnfused / tFusedPar, 2) + "x",
                      AsciiTable::num(tFused / tFusedPar, 2) + "x"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("serial->%dT geomean scaling %.2fx\n", workers,
                geometricMean(scalings));
    std::printf("geomean end-to-end speedup %.2fx (single-core fp32 conv "
                "chains are compute-bound; see EXPERIMENTS.md).\n",
                geometricMean(speedups));
    return 0;
}
