/**
 * @file
 * Quickstart: describe a batch GEMM chain, let Chimera plan the fused
 * schedule, execute it, and check the result against the naive oracle.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "exec/constraints.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "hw/machines.hpp"
#include "ir/builders.hpp"
#include "plan/planner.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

int
main()
{
    using namespace chimera;

    // 1. Describe the operator chain: E = (A x B) x D, batch 4.
    ir::GemmChainConfig config;
    config.name = "quickstart";
    config.batch = 4;
    config.m = 256;
    config.n = 64;
    config.k = 64;
    config.l = 256;

    const ir::Chain chain = ir::makeGemmChain(config);
    std::printf("chain '%s': %d independent axes, %.1f MFLOP, IO %s\n",
                chain.name().c_str(), chain.numAxes(),
                chain.totalFlops() / 1e6,
                formatBytes(static_cast<double>(chain.ioBytes())).c_str());

    // 2. Plan: enumerate block orders, solve tiles analytically.
    plan::PlannerOptions options;
    options.memCapacityBytes = hw::kPlanningBudgetBytes; // fit blocks in L2
    options.constraints = exec::cpuChainConstraints(
        chain,
        kernels::MicroKernelRegistry::instance().select(detectSimdTier()));
    const plan::ExecutionPlan plan = plan::planChain(chain, options);
    std::printf("planned order %s, tiles %s\n",
                plan::orderString(chain, plan.perm).c_str(),
                formatVector(plan.tiles).c_str());
    std::printf("predicted data movement %s, on-chip footprint %s, "
                "%d candidates in %.1f ms\n",
                formatBytes(plan.predictedVolumeBytes).c_str(),
                formatBytes(static_cast<double>(plan.memUsageBytes))
                    .c_str(),
                plan.candidatesExamined, plan.planSeconds * 1e3);

    // 3. Execute the fused kernel with the widest micro kernel.
    Tensor a(exec::gemmChainShapeA(config));
    Tensor b(exec::gemmChainShapeB(config));
    Tensor d(exec::gemmChainShapeD(config));
    Tensor e(exec::gemmChainShapeE(config));
    Rng rng(1);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);

    const exec::ComputeEngine engine = exec::ComputeEngine::best();
    std::printf("micro kernel: %s\n", engine.name());
    exec::runFusedGemmChain(config, plan, engine, a, b, d, e);

    // 4. Validate against the naive oracle.
    Tensor expected(exec::gemmChainShapeE(config));
    exec::referenceGemmChain(config, a, b, d, expected);
    std::printf("max |fused - reference| = %.2e -> %s\n",
                static_cast<double>(maxAbsDiff(e, expected)),
                allClose(e, expected, 2e-3f, 2e-3f) ? "OK" : "MISMATCH");
    return 0;
}
