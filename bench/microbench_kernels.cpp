/**
 * @file
 * google-benchmark microbenchmarks of the building blocks: registered
 * micro kernels, block matmul across shapes, packing routines, the
 * Algorithm-1 evaluation, and full chain planning.
 */

#include <benchmark/benchmark.h>

#include "exec/constraints.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "hw/machines.hpp"
#include "ir/workloads.hpp"
#include "kernels/block_matmul.hpp"
#include "kernels/mma_tile.hpp"
#include "kernels/npu_mad.hpp"
#include "model/data_movement.hpp"
#include "plan/planner.hpp"
#include "support/rng.hpp"

namespace chimera {
namespace {

void
BM_MicroKernel(benchmark::State &state, const std::string &name)
{
    const kernels::MicroKernel &kernel =
        kernels::MicroKernelRegistry::instance().byName(name);
    const int kc = 256;
    std::vector<float> aPack(static_cast<std::size_t>(kc * kernel.mr));
    std::vector<float> bPack(static_cast<std::size_t>(kc * kernel.nr));
    std::vector<float> c(
        static_cast<std::size_t>(kernel.mr * kernel.nr), 0.0f);
    Rng rng(1);
    for (auto &v : aPack) {
        v = rng.uniform(-1.0f, 1.0f);
    }
    for (auto &v : bPack) {
        v = rng.uniform(-1.0f, 1.0f);
    }
    for (auto _ : state) {
        kernel.fn(aPack.data(), bPack.data(), c.data(), kernel.nr, kc);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2LL * kernel.mr *
                            kernel.nr * kc);
}

void
RegisterMicroKernels()
{
    for (const kernels::MicroKernel &kernel :
         kernels::MicroKernelRegistry::instance().kernels()) {
        benchmark::RegisterBenchmark(
            ("BM_MicroKernel/" + kernel.name).c_str(),
            [name = kernel.name](benchmark::State &state) {
                BM_MicroKernel(state, name);
            });
    }
}

void
BM_BlockMatmul(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Tensor a({n, n});
    Tensor b({n, n});
    Tensor c({n, n});
    Rng rng(2);
    fillUniform(a, rng);
    fillUniform(b, rng);
    c.zero();
    const kernels::MicroKernel &kernel =
        kernels::MicroKernelRegistry::instance().select(detectSimdTier());
    kernels::Workspace workspace;
    for (auto _ : state) {
        kernels::blockMatmul(kernel, a.data(), n, b.data(), n, c.data(), n,
                             n, n, n, workspace);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_BlockMatmul)->Arg(64)->Arg(128)->Arg(256);

void
BM_PackB(benchmark::State &state)
{
    const std::int64_t kc = 256;
    const int nr = 64;
    std::vector<float> src(static_cast<std::size_t>(kc * 512));
    std::vector<float> dst(static_cast<std::size_t>(kc * nr));
    for (auto _ : state) {
        kernels::packBPanel(src.data(), 512, kc, nr, nr, dst.data());
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(state.iterations() * kc * nr * 4);
}
BENCHMARK(BM_PackB);

void
BM_Algorithm1(benchmark::State &state)
{
    const ir::Chain chain =
        ir::makeGemmChain(ir::tableIvWorkloads()[1].config);
    const auto perm = plan::permFromOrderString(chain, "b,m,l,k,n");
    auto tiles = chain.fullExtents();
    tiles[1] = 64;
    tiles[4] = 64;
    for (auto _ : state) {
        const auto dm = model::computeDataMovement(chain, perm, tiles);
        benchmark::DoNotOptimize(dm.volumeBytes);
    }
}
BENCHMARK(BM_Algorithm1);

void
BM_PlanGemmChain(benchmark::State &state)
{
    const ir::Chain chain =
        ir::makeGemmChain(ir::tableIvWorkloads()[1].config);
    plan::PlannerOptions options;
    options.memCapacityBytes = hw::kPlanningBudgetBytes;
    options.constraints = exec::cpuChainConstraints(
        chain, kernels::MicroKernelRegistry::instance().select(
                   detectSimdTier()));
    for (auto _ : state) {
        const auto plan = plan::planChain(chain, options);
        benchmark::DoNotOptimize(plan.predictedVolumeBytes);
    }
}
BENCHMARK(BM_PlanGemmChain);

void
BM_NpuMadMatmul(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Tensor a({n, n});
    Tensor b({n, n});
    Tensor c({n, n});
    Rng rng(3);
    fillUniform(a, rng);
    fillUniform(b, rng);
    kernels::MadShape shape;
    shape.m1 = 2;
    shape.n1 = 2;
    shape.k1 = 2;
    shape.m2 = 16;
    shape.n2 = 16;
    shape.k2 = 16;
    for (auto _ : state) {
        kernels::madMatmul(a, b, c, shape);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_NpuMadMatmul)->Arg(64)->Arg(128);

void
BM_MmaTiled(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Tensor a({n, n});
    Tensor b({n, n});
    Tensor c({n, n});
    Rng rng(4);
    fillUniform(a, rng);
    fillUniform(b, rng);
    for (auto _ : state) {
        const kernels::MmaStats stats = kernels::mmaMatmulTiled(a, b, c);
        benchmark::DoNotOptimize(stats.mmaOps);
    }
    state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MmaTiled)->Arg(64)->Arg(128);

} // namespace
} // namespace chimera

int
main(int argc, char **argv)
{
    chimera::RegisterMicroKernels();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
