/**
 * @file
 * Domain example: the self-attention batch GEMM chain of a Bert-Base
 * encoder (Table IV, G2), fused with its softmax per §VI-B. Shows the
 * softmax decomposition (exp on chip, sum merged into the second GEMM,
 * division deferred) and compares fused vs unfused wall time.
 *
 *   ./build/examples/attention_fusion
 */

#include <cstdio>

#include "exec/constraints.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "hw/machines.hpp"
#include "ir/workloads.hpp"
#include "plan/planner.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

int
main()
{
    using namespace chimera;

    // Bert-Base attention: 12 heads, 512 tokens, 64-dim heads.
    ir::GemmChainConfig config = ir::tableIvWorkloads()[1].config;
    config.epilogue = ir::Epilogue::Softmax;
    std::printf("attention chain %s: batch %ld, %ldx%ld scores, head dim"
                " %ld, softmax scale %.4f\n",
                config.name.c_str(), static_cast<long>(config.batch),
                static_cast<long>(config.m), static_cast<long>(config.l),
                static_cast<long>(config.n),
                static_cast<double>(config.softmaxScale));

    const ir::Chain chain = ir::makeGemmChain(config);
    plan::PlannerOptions options;
    options.memCapacityBytes = hw::kPlanningBudgetBytes;
    options.constraints = exec::cpuChainConstraints(
        chain,
        kernels::MicroKernelRegistry::instance().select(detectSimdTier()));
    const plan::ExecutionPlan plan = plan::planChain(chain, options);
    std::printf("fused plan: order %s, predicted DRAM traffic %.2f MB\n",
                plan::orderString(chain, plan.perm).c_str(),
                plan.predictedVolumeBytes / 1e6);

    Tensor q(exec::gemmChainShapeA(config));
    Tensor kT(exec::gemmChainShapeB(config));
    Tensor v(exec::gemmChainShapeD(config));
    Tensor out(exec::gemmChainShapeE(config));
    Tensor scratch(exec::gemmChainShapeC(config));
    Rng rng(7);
    fillUniform(q, rng);
    fillUniform(kT, rng);
    fillUniform(v, rng);

    const exec::ComputeEngine engine = exec::ComputeEngine::best();
    const double fused = bestOfSeconds(
        [&] {
            exec::runFusedGemmChain(config, plan, engine, q, kT, v, out);
        },
        5);
    const double unfused = bestOfSeconds(
        [&] {
            exec::runUnfusedGemmChain(config, engine, q, kT, v, scratch,
                                      out, {64, 64, 64}, {64, 64, 64});
        },
        5);
    std::printf("fused softmax-attention: %.2f ms\n", fused * 1e3);
    std::printf("unfused (GEMM, softmax pass, GEMM): %.2f ms\n",
                unfused * 1e3);
    std::printf("speedup %.2fx\n", unfused / fused);

    // Sanity: rows of softmax(QK^T) sum to 1, so each output row of E
    // is a convex combination of V rows; check against the oracle.
    Tensor expected(exec::gemmChainShapeE(config));
    exec::referenceGemmChain(config, q, kT, v, expected);
    std::printf("max |fused - reference| = %.2e\n",
                static_cast<double>(maxAbsDiff(out, expected)));
    return 0;
}
