/**
 * @file
 * Figure 10 reproduction: ablation of Chimera's three ingredients —
 * analytical cost model (C), fusion (F), micro kernel (M) — on batch
 * GEMM chains.
 *
 * Mapping of the paper's five versions:
 *  - baseline: unfused, default-codegen kernel, tiles picked by
 *    measuring 20 random candidates (the paper's "cost model disabled"
 *    protocol);
 *  - v-C: unfused, default-codegen kernel, analytically solved tiles;
 *  - v-F: fused, default-codegen kernel, random-searched order+tiles;
 *  - v-M: unfused, AVX-512 micro kernel, random tiles;
 *  - v-CFM: full Chimera (fused, planned, AVX-512 micro kernel).
 * "Default codegen" is the AVX2 tier: what generic LLVM instruction
 * selection reaches without the hand-scheduled AVX-512 outer-product
 * pipeline (§II-B2).
 * Reported numbers are speedups over baseline (higher is better).
 */

#include <cstdio>

#include "baselines/random_tuner.hpp"
#include "bench_common.hpp"
#include "support/mathutil.hpp"

namespace chimera::bench {
namespace {

/** Random GemmTiles search measured on hardware (C disabled, unfused). */
exec::GemmTiles
randomGemmTiles(const ir::GemmChainConfig &cfg,
                const exec::ComputeEngine &engine, GemmChainData &data,
                std::uint64_t seed, int trials)
{
    Rng rng(seed);
    const std::int64_t sizes[] = {16, 32, 48, 64, 96, 128, 192, 256};
    auto pick = [&] {
        return sizes[rng.below(sizeof(sizes) / sizeof(sizes[0]))];
    };
    exec::GemmTiles best;
    double bestSeconds = 1e300;
    for (int t = 0; t < trials; ++t) {
        const exec::GemmTiles cand{pick(), pick(), pick()};
        const double s = bestOfSeconds(
            [&] {
                exec::runUnfusedGemmChain(cfg, engine, data.a, data.b,
                                          data.d, data.scratchC, data.e,
                                          cand, cand);
            },
            1, 0);
        if (s < bestSeconds) {
            bestSeconds = s;
            best = cand;
        }
    }
    return best;
}

} // namespace
} // namespace chimera::bench

int
main()
{
    using namespace chimera;
    using namespace chimera::bench;
    bench::printHeader(
        "Figure 10 — ablation: cost model (C), fusion (F), micro kernel "
        "(M)",
        "Normalized speedup over the all-disabled baseline. Paper "
        "averages: C 2.37x, F 1.89x, M 1.61x.");

    const exec::ComputeEngine bestEngine = exec::ComputeEngine::best();
    // Default-codegen proxy: AVX2 tier when available, scalar otherwise.
    const SimdTier defaultTier =
        detectSimdTier() == SimdTier::Scalar ? SimdTier::Scalar
                                             : SimdTier::Avx2Fma;
    const exec::ComputeEngine scalarEngine(
        kernels::MicroKernelRegistry::instance().select(defaultTier));
    constexpr int kTrials = 20;

    AsciiTable table(
        {"Chain", "baseline", "v-C", "v-F", "v-M", "v-CFM"});
    std::vector<double> gC, gF, gM, gAll;
    for (std::size_t i : {3u, 6u, 9u}) { // G4, G7, G10
        const ir::GemmChainConfig cfg = ir::tableIvWorkloads()[i].config;
        const ir::Chain chain = ir::makeGemmChain(cfg);
        GemmChainData data(cfg);

        // baseline: random tiles, unfused, scalar kernel.
        const exec::GemmTiles randTiles =
            randomGemmTiles(cfg, scalarEngine, data, 1, kTrials);
        const double tBaseline =
            timeUnfusedGemmChain(cfg, scalarEngine, data, randTiles,
                                 randTiles);

        // v-C: solved tiles, unfused, scalar kernel.
        const exec::GemmTiles tuned1 =
            solvedGemmTiles(cfg.batch, cfg.m, cfg.l, cfg.k);
        const exec::GemmTiles tuned2 =
            solvedGemmTiles(cfg.batch, cfg.m, cfg.n, cfg.l);
        const double tC =
            timeUnfusedGemmChain(cfg, scalarEngine, data, tuned1, tuned2);

        // v-F: fused, random-searched schedule, scalar kernel.
        baselines::TunerOptions tunerOptions;
        tunerOptions.memCapacityBytes = hw::kPlanningBudgetBytes;
        tunerOptions.trials = kTrials;
        tunerOptions.seed = 2;
        // The tuner samples executor-friendly tiles; with the cost model
        // off, *selection* among them is purely by measurement.
        tunerOptions.constraints =
            exec::cpuChainConstraints(chain, hostKernel());
        const baselines::TunerResult tuned = baselines::randomSearchPlan(
            chain, tunerOptions, [&](const plan::ExecutionPlan &p) {
                return bestOfSeconds(
                    [&] {
                        exec::runFusedGemmChain(cfg, p, scalarEngine,
                                                data.a, data.b, data.d,
                                                data.e);
                    },
                    1, 0);
            });
        const double tF =
            timeFusedGemmChain(cfg, tuned.plan, scalarEngine, data);

        // v-M: random tiles, unfused, wide kernel.
        const exec::GemmTiles randTilesM =
            randomGemmTiles(cfg, bestEngine, data, 3, kTrials);
        const double tM = timeUnfusedGemmChain(cfg, bestEngine, data,
                                               randTilesM, randTilesM);

        // v-CFM: full Chimera.
        const plan::ExecutionPlan plan = planCpu(chain);
        const double tAll = timeFusedGemmChain(cfg, plan, bestEngine, data);

        gC.push_back(tBaseline / tC);
        gF.push_back(tBaseline / tF);
        gM.push_back(tBaseline / tM);
        gAll.push_back(tBaseline / tAll);
        table.addRow({cfg.name, "1.00x",
                      AsciiTable::num(tBaseline / tC, 2) + "x",
                      AsciiTable::num(tBaseline / tF, 2) + "x",
                      AsciiTable::num(tBaseline / tM, 2) + "x",
                      AsciiTable::num(tBaseline / tAll, 2) + "x"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("geomeans: v-C %.2fx, v-F %.2fx, v-M %.2fx, v-CFM %.2fx\n",
                geometricMean(gC), geometricMean(gF), geometricMean(gM),
                geometricMean(gAll));
    return 0;
}
