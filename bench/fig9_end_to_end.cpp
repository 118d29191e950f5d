/**
 * @file
 * Figure 9 reproduction: end-to-end encoder networks with the attention
 * batch GEMM chain executed by Chimera's fused kernel versus the
 * unfused library path. All surrounding operators are identical, so the
 * delta isolates the chain-fusion contribution (the paper's
 * Relay+Chimera vs Relay+CuDNN/Ansor comparison). Wall-clock, measured
 * on the host CPU.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "graph/transformer.hpp"
#include "support/mathutil.hpp"

int
main()
{
    using namespace chimera;
    bench::printHeader(
        "Figure 9 — end-to-end encoder stacks (measured, CPU)",
        "Attention chain fused by Chimera vs unfused; other operators "
        "shared. One encoder stack per model configuration.");

    const graph::EncoderConfig configs[] = {
        graph::transformerSmall(), graph::transformerBase(),
        graph::transformerLarge(), graph::bertBase(),
        graph::bertLarge(),        graph::vitBase(),
        graph::vitLarge(),
    };

    AsciiTable table({"Model", "layers", "Unfused (ms)", "Chimera (ms)",
                      "speedup", "attn unfused (ms)", "attn fused (ms)",
                      "attn speedup"});
    std::vector<double> speedups;
    for (const auto &cfg : configs) {
        const graph::TransformerEncoder encoder(cfg,
                                                hw::kPlanningBudgetBytes);
        Tensor input({cfg.seqLen, cfg.modelDim()});
        Rng rng(17);
        fillUniform(input, rng);

        // Validate once: both paths agree end to end.
        const Tensor fusedOut =
            encoder.forward(input, graph::AttentionMode::FusedChimera);
        const Tensor unfusedOut =
            encoder.forward(input, graph::AttentionMode::Unfused);
        if (!allClose(fusedOut, unfusedOut, 5e-3f, 5e-3f)) {
            std::printf("VALIDATION FAILED for %s\n", cfg.name.c_str());
            return 1;
        }

        const double tFused = bestOfSeconds(
            [&] {
                (void)encoder.forward(
                    input, graph::AttentionMode::FusedChimera);
            },
            3, 1);
        const double tUnfused = bestOfSeconds(
            [&] {
                (void)encoder.forward(input,
                                      graph::AttentionMode::Unfused);
            },
            3, 1);
        speedups.push_back(tUnfused / tFused);

        // Attention chain standalone (the Figure 5b measurement for
        // this model's shape): shows how much of the chain-level gain
        // survives to the end-to-end number.
        const ir::GemmChainConfig chainCfg = encoder.attentionChain();
        bench::GemmChainData data(chainCfg);
        const exec::ComputeEngine engine = exec::ComputeEngine::best();
        const double tAttnFused = bench::timeFusedGemmChain(
            chainCfg, encoder.attentionPlan(), engine, data);
        const double tAttnUnfused = bench::timeUnfusedGemmChain(
            chainCfg, engine, data, {64, 64, 64}, {64, 64, 64});

        table.addRow({cfg.name, std::to_string(cfg.layers),
                      AsciiTable::num(tUnfused * 1e3, 1),
                      AsciiTable::num(tFused * 1e3, 1),
                      AsciiTable::num(tUnfused / tFused, 2) + "x",
                      AsciiTable::num(tAttnUnfused * 1e3, 2),
                      AsciiTable::num(tAttnFused * 1e3, 2),
                      AsciiTable::num(tAttnUnfused / tAttnFused, 2) +
                          "x"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("geomean end-to-end speedup: %.2fx (paper: 1.22x-1.42x "
                "over tuned baselines on A100).\n",
                geometricMean(speedups));
    return 0;
}
