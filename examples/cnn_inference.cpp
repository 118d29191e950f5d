/**
 * @file
 * End-to-end example: a SqueezeNet-like CNN whose conv-chain stages run
 * fused by Chimera vs unfused, with identical weights. Prints per-stage
 * chain plans and the end-to-end timing comparison.
 *
 *   ./build/examples/cnn_inference
 */

#include <cstdio>

#include "graph/cnn.hpp"
#include "hw/machines.hpp"
#include "plan/planner.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

int
main()
{
    using namespace chimera;

    const graph::CnnConfig config = graph::squeezeNetLike();
    const graph::CnnBackbone cnn(config, hw::kPlanningBudgetBytes);

    std::printf("%s: input %ldx%ldx%ld, %zu conv-chain stages\n",
                config.name.c_str(), static_cast<long>(config.inChannels),
                static_cast<long>(config.height),
                static_cast<long>(config.width), config.stages.size());
    for (std::size_t s = 0; s < cnn.stageChains().size(); ++s) {
        const ir::ConvChainConfig &chain = cnn.stageChains()[s];
        std::printf("  stage %zu: %ldch %ldx%ld -> %dx%d s%d -> %ldch -> "
                    "ReLU -> %dx%d -> %ldch\n",
                    s, static_cast<long>(chain.ic),
                    static_cast<long>(chain.h), static_cast<long>(chain.w),
                    chain.k1, chain.k1, chain.stride1,
                    static_cast<long>(chain.oc1), chain.k2, chain.k2,
                    static_cast<long>(chain.oc2));
    }

    Tensor input({config.batch, config.inChannels, config.height,
                  config.width});
    Rng rng(8);
    fillUniform(input, rng);

    const Tensor fusedLogits =
        cnn.forward(input, graph::ConvMode::FusedChimera);
    const Tensor unfusedLogits =
        cnn.forward(input, graph::ConvMode::Unfused);
    std::printf("outputs agree: %s (max diff %.2e)\n",
                allClose(fusedLogits, unfusedLogits, 5e-3f, 5e-3f)
                    ? "yes"
                    : "NO",
                static_cast<double>(
                    maxAbsDiff(fusedLogits, unfusedLogits)));

    const double fused = bestOfSeconds(
        [&] { (void)cnn.forward(input, graph::ConvMode::FusedChimera); },
        3);
    const double unfused = bestOfSeconds(
        [&] { (void)cnn.forward(input, graph::ConvMode::Unfused); }, 3);
    std::printf("end-to-end: fused %.2f ms, unfused %.2f ms (%.2fx)\n",
                fused * 1e3, unfused * 1e3, unfused / fused);

    int best = 0;
    for (std::int64_t i = 1; i < fusedLogits.numel(); ++i) {
        if (fusedLogits[i] > fusedLogits[best]) {
            best = static_cast<int>(i);
        }
    }
    std::printf("predicted class (random weights, illustrative): %d\n",
                best);
    return 0;
}
