/**
 * @file
 * Domain example: fusing a SqueezeNet-style convolution chain (Table V
 * C2: 3x3 stride-2 conv into a pointwise conv with ReLU). Shows halo
 * footprints in the access maps, the planned region schedule, and the
 * DRAM-traffic comparison from the analytical model.
 *
 *   ./build/examples/conv_chain_fusion
 */

#include <cstdio>

#include "exec/constraints.hpp"
#include "exec/conv_chain_exec.hpp"
#include "hw/machines.hpp"
#include "ir/workloads.hpp"
#include "model/data_movement.hpp"
#include "plan/planner.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

int
main()
{
    using namespace chimera;

    ir::ConvChainConfig config = ir::tableVWorkloads()[1].config; // C2
    config.epilogue = ir::Epilogue::Relu;
    std::printf("conv chain %s: %ldx%ldx%ld -> 3x3 s%d -> %ld ch -> ReLU"
                " -> 1x1 -> %ld ch\n",
                config.name.c_str(), static_cast<long>(config.ic),
                static_cast<long>(config.h), static_cast<long>(config.w),
                config.stride1, static_cast<long>(config.oc1),
                static_cast<long>(config.oc2));

    const ir::Chain chain = ir::makeConvChain(config);
    std::printf("independent axes (%d):", chain.numAxes());
    for (const ir::Axis &axis : chain.axes()) {
        std::printf(" %s=%ld%s", axis.name.c_str(),
                    static_cast<long>(axis.extent),
                    axis.reorderable ? "" : "*");
    }
    std::printf("  (* pinned kernel axes)\n");

    plan::PlannerOptions options;
    options.memCapacityBytes = hw::kPlanningBudgetBytes;
    options.constraints = exec::cpuChainConstraints(
        chain,
        kernels::MicroKernelRegistry::instance().select(detectSimdTier()));
    const plan::ExecutionPlan plan = plan::planChain(chain, options);
    std::printf("planned order %s (%d candidates, %.1f ms)\n",
                plan::orderString(chain, plan.perm).c_str(),
                plan.candidatesExamined, plan.planSeconds * 1e3);

    // Analytical comparison: fused vs spilled intermediate.
    const model::DataMovement fusedDv =
        model::computeDataMovement(chain, plan.perm, plan.tiles);
    model::ModelOptions spilled;
    spilled.intermediatesAreIO = true;
    const model::DataMovement unfusedDv =
        model::computeDataMovement(chain, plan.perm, plan.tiles, spilled);
    std::printf("model: fused DRAM traffic %.2f MB vs %.2f MB with the "
                "intermediate spilled (%.1f%% saved)\n",
                fusedDv.volumeBytes / 1e6, unfusedDv.volumeBytes / 1e6,
                100.0 * (1.0 - fusedDv.volumeBytes /
                                   unfusedDv.volumeBytes));

    // Execute and validate.
    Tensor input(exec::convChainShapeI(config));
    Tensor w1(exec::convChainShapeW1(config));
    Tensor w2(exec::convChainShapeW2(config));
    Tensor output(exec::convChainShapeO(config));
    Tensor scratch(exec::convChainShapeT(config));
    Rng rng(3);
    fillUniform(input, rng);
    fillUniform(w1, rng);
    fillUniform(w2, rng);

    const exec::ComputeEngine engine = exec::ComputeEngine::best();
    const double fused = bestOfSeconds(
        [&] {
            exec::runFusedConvChain(config, plan, engine, input, w1, w2,
                                    output);
        },
        3);
    const double unfused = bestOfSeconds(
        [&] {
            exec::runUnfusedConvChain(config, engine, input, w1, w2,
                                      scratch, output, {64, 64}, {64, 64});
        },
        3);
    std::printf("measured: fused %.2f ms, unfused %.2f ms (%.2fx)\n",
                fused * 1e3, unfused * 1e3, unfused / fused);

    Tensor expected(exec::convChainShapeO(config));
    exec::referenceConvChain(config, input, w1, w2, expected);
    std::printf("max |fused - reference| = %.2e\n",
                static_cast<double>(maxAbsDiff(output, expected)));
    return 0;
}
