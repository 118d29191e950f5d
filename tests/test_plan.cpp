/**
 * @file
 * Unit tests for the inter-block planner: permutation enumeration, order
 * strings, single-level and multi-level planning.
 */

#include <gtest/gtest.h>

#include "analysis/dependence.hpp"
#include "hw/machines.hpp"
#include "ir/builders.hpp"
#include "ir/workloads.hpp"
#include "model/data_movement.hpp"
#include "model/multilevel.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace chimera::plan {
namespace {

using ir::Chain;
using ir::GemmChainConfig;
using ir::makeGemmChain;

GemmChainConfig
squareChain(std::int64_t size)
{
    GemmChainConfig cfg;
    cfg.m = size;
    cfg.n = size;
    cfg.k = size;
    cfg.l = size;
    cfg.name = "square";
    return cfg;
}

TEST(OrderString, RoundTrips)
{
    const Chain chain = makeGemmChain(squareChain(64));
    const std::vector<ir::AxisId> perm =
        permFromOrderString(chain, "m,l,k,n");
    EXPECT_EQ(orderString(chain, perm), "m,l,k,n");
}

TEST(OrderString, AppendsOmittedAxesInnermost)
{
    ir::ConvChainConfig cfg;
    cfg.ic = 8;
    cfg.h = 16;
    cfg.w = 16;
    cfg.oc1 = 8;
    cfg.oc2 = 8;
    cfg.k1 = 3;
    cfg.k2 = 1;
    const Chain chain = ir::makeConvChain(cfg);
    const auto perm = permFromOrderString(chain, "oc2,oh,ow,oc1,ic");
    EXPECT_EQ(static_cast<int>(perm.size()), chain.numAxes());
    // The pinned kernel axes land innermost.
    const auto pinned = chain.pinnedAxes();
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        EXPECT_EQ(perm[perm.size() - pinned.size() + i], pinned[i]);
    }
}

TEST(OrderString, RejectsUnknownAxis)
{
    const Chain chain = makeGemmChain(squareChain(64));
    EXPECT_THROW(permFromOrderString(chain, "m,zz"), Error);
}

TEST(Planner, ExaminesAllTwentyFourOrders)
{
    const Chain chain = makeGemmChain(squareChain(128));
    PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    // Without the executability filter every enumerated order is solved.
    options.onlyExecutableOrders = false;
    options.prune = analysis::PruneMode::None; // this test is about exhaustion
    const ExecutionPlan plan = planChain(chain, options);
    EXPECT_EQ(plan.candidatesExamined, 24);
    EXPECT_GT(plan.planSeconds, 0.0);
}

TEST(Planner, CandidatesExaminedCountsOnlySolvedOrders)
{
    const Chain chain = makeGemmChain(squareChain(128));
    PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    const ExecutionPlan plan = planChain(chain, options);
    // The executable-order filter skips some of the 4! = 24 orders
    // before the solver runs; those are no longer reported as examined.
    EXPECT_GT(plan.candidatesExamined, 0);
    EXPECT_LT(plan.candidatesExamined, 24);
}

TEST(Planner, PlanBeatsEveryOtherOrderItExamined)
{
    const Chain chain = makeGemmChain(squareChain(128));
    PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    const ExecutionPlan plan = planChain(chain, options);

    // Re-solve every permutation and confirm none beats the plan.
    solver::TileSolverOptions solverOptions;
    solverOptions.memCapacityBytes = options.memCapacityBytes;
    for (const auto &orderIdx : allPermutations(4)) {
        std::vector<ir::AxisId> perm(orderIdx.begin(), orderIdx.end());
        if (!model::isExecutableOrder(chain, perm)) {
            continue;
        }
        const auto sol =
            solver::solveTiles(chain, perm, {}, solverOptions);
        if (sol.feasible) {
            EXPECT_GE(sol.volumeBytes, plan.predictedVolumeBytes - 0.5);
        }
    }
}

TEST(ExecutableOrders, GemmChainHasTwelveOfTwentyFour)
{
    // Valid orders: {m, l} in either order with {k, n} inside in either
    // order and interleavings where both k and n stay inner to both m
    // and l.
    const Chain chain = makeGemmChain(squareChain(64));
    int executable = 0;
    for (const auto &orderIdx : allPermutations(4)) {
        std::vector<ir::AxisId> perm(orderIdx.begin(), orderIdx.end());
        if (model::isExecutableOrder(chain, perm)) {
            ++executable;
        }
    }
    // m and l must both precede k and n: choose 2 of 4 positions for
    // {m,l} as the first two slots -> 2! * 2! = 4 orders.
    EXPECT_EQ(executable, 4);
    EXPECT_TRUE(model::isExecutableOrder(
        chain, permFromOrderString(chain, "m,l,k,n")));
    EXPECT_TRUE(model::isExecutableOrder(
        chain, permFromOrderString(chain, "l,m,n,k")));
    EXPECT_FALSE(model::isExecutableOrder(
        chain, permFromOrderString(chain, "m,k,l,n")));
    EXPECT_FALSE(model::isExecutableOrder(
        chain, permFromOrderString(chain, "m,n,k,l")));
}

TEST(ExecutableOrders, SingleOpChainAlwaysExecutable)
{
    const Chain chain = ir::makeSingleGemm(1, 16, 16, 16);
    for (const auto &orderIdx : allPermutations(3)) {
        std::vector<ir::AxisId> perm(orderIdx.begin(), orderIdx.end());
        EXPECT_TRUE(model::isExecutableOrder(chain, perm));
    }
}

TEST(ExecutableOrders, PlannerSelectsExecutableOrder)
{
    const Chain chain = makeGemmChain(squareChain(128));
    PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    const ExecutionPlan plan = planChain(chain, options);
    EXPECT_TRUE(model::isExecutableOrder(chain, plan.perm));
}

TEST(Planner, PredictionsSatisfyCapacity)
{
    for (const auto &load : ir::smallGemmWorkloads()) {
        const Chain chain = makeGemmChain(load.config);
        PlannerOptions options;
        options.memCapacityBytes = 16.0 * 1024;
        const ExecutionPlan plan = planChain(chain, options);
        EXPECT_LE(static_cast<double>(plan.memUsageBytes),
                  options.memCapacityBytes)
            << load.config.name;
        const auto dm =
            model::computeDataMovement(chain, plan.perm, plan.tiles);
        EXPECT_DOUBLE_EQ(dm.volumeBytes, plan.predictedVolumeBytes);
    }
}

TEST(Planner, FusedPlanBeatsUnfusedVolumeOnMemoryBoundChain)
{
    // The headline claim: planning the fused chain yields less DRAM
    // traffic than executing the two GEMMs separately (intermediate
    // spilled). Use a Bert-like shape (memory-bound batch GEMMs).
    GemmChainConfig cfg;
    cfg.m = 512;
    cfg.n = 64;
    cfg.k = 64;
    cfg.l = 512;
    const Chain chain = makeGemmChain(cfg);

    PlannerOptions options;
    options.memCapacityBytes = 512.0 * 1024;
    const ExecutionPlan fused = planChain(chain, options);

    PlannerOptions unfusedOptions = options;
    unfusedOptions.model.intermediatesAreIO = true;
    const ExecutionPlan unfused = planChain(chain, unfusedOptions);

    EXPECT_LT(fused.predictedVolumeBytes, unfused.predictedVolumeBytes);
}

TEST(Planner, ConvChainPlansWithinCapacity)
{
    ir::ConvChainConfig cfg;
    cfg.ic = 32;
    cfg.h = 56;
    cfg.w = 56;
    cfg.oc1 = 32;
    cfg.oc2 = 32;
    cfg.k1 = 3;
    cfg.k2 = 1;
    const Chain chain = ir::makeConvChain(cfg);
    PlannerOptions options;
    options.memCapacityBytes = 256.0 * 1024;
    const ExecutionPlan plan = planChain(chain, options);
    EXPECT_LE(static_cast<double>(plan.memUsageBytes),
              options.memCapacityBytes);
    EXPECT_EQ(static_cast<int>(plan.perm.size()), chain.numAxes());
}

TEST(Planner, ThrowsWhenNothingFits)
{
    const Chain chain = makeGemmChain(squareChain(64));
    PlannerOptions options;
    options.memCapacityBytes = 4.0;
    EXPECT_THROW(planChain(chain, options), Error);
}

TEST(Planner, RespectsPermutationCap)
{
    const Chain chain = makeGemmChain(squareChain(64));
    PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    options.maxPermutations = 5;
    options.onlyExecutableOrders = false; // solve all capped candidates
    options.prune = analysis::PruneMode::None; // cap semantics, not pruning
    const ExecutionPlan plan = planChain(chain, options);
    EXPECT_EQ(plan.candidatesExamined, 5);
    EXPECT_EQ(plan.search.enumerated, 5);
    EXPECT_TRUE(plan.search.truncated);

    // A cap of exactly n! leaves nothing unvisited: not truncated.
    const std::int64_t all =
        factorial(static_cast<int>(chain.reorderableAxes().size()));
    options.maxPermutations = static_cast<int>(all);
    const ExecutionPlan full = planChain(chain, options);
    EXPECT_EQ(full.search.enumerated, all);
    EXPECT_FALSE(full.search.truncated);

    // Capped with symmetry pruning and the filter: the counts still
    // close over the visited orders.
    options.maxPermutations = 10;
    options.onlyExecutableOrders = true;
    options.prune = analysis::PruneMode::Symmetry;
    const analysis::SearchStats capped = planChain(chain, options).search;
    EXPECT_TRUE(capped.truncated);
    EXPECT_EQ(capped.enumerated, 10);
    EXPECT_EQ(capped.filtered + capped.symmetryPruned + capped.solved, 10);
    EXPECT_GT(capped.symmetryPruned, 0);
    EXPECT_GT(capped.filtered, 0);
}

TEST(Planner, ParallelPlanningMatchesSerialOnGemmChain)
{
    const Chain chain = makeGemmChain(squareChain(128));
    PlannerOptions serialOptions;
    serialOptions.memCapacityBytes = 32.0 * 1024;
    serialOptions.threads = 1;
    const ExecutionPlan serial = planChain(chain, serialOptions);

    for (int threads : {2, 4, 8}) {
        PlannerOptions options = serialOptions;
        options.threads = threads;
        const ExecutionPlan parallel = planChain(chain, options);
        EXPECT_EQ(parallel.perm, serial.perm) << "threads " << threads;
        EXPECT_EQ(parallel.tiles, serial.tiles) << "threads " << threads;
        EXPECT_DOUBLE_EQ(parallel.predictedVolumeBytes,
                         serial.predictedVolumeBytes)
            << "threads " << threads;
        EXPECT_EQ(parallel.memUsageBytes, serial.memUsageBytes)
            << "threads " << threads;
        EXPECT_EQ(parallel.candidatesExamined, serial.candidatesExamined)
            << "threads " << threads;
    }
}

TEST(Planner, ParallelPlanningMatchesSerialOnConvChain)
{
    ir::ConvChainConfig cfg;
    cfg.ic = 32;
    cfg.h = 56;
    cfg.w = 56;
    cfg.oc1 = 32;
    cfg.oc2 = 32;
    cfg.k1 = 3;
    cfg.k2 = 1;
    const Chain chain = ir::makeConvChain(cfg);
    PlannerOptions serialOptions;
    serialOptions.memCapacityBytes = 256.0 * 1024;
    serialOptions.threads = 1;
    const ExecutionPlan serial = planChain(chain, serialOptions);

    PlannerOptions options = serialOptions;
    options.threads = 4;
    const ExecutionPlan parallel = planChain(chain, options);
    EXPECT_EQ(parallel.perm, serial.perm);
    EXPECT_EQ(parallel.tiles, serial.tiles);
    EXPECT_DOUBLE_EQ(parallel.predictedVolumeBytes,
                     serial.predictedVolumeBytes);
    EXPECT_EQ(parallel.memUsageBytes, serial.memUsageBytes);
    EXPECT_EQ(parallel.candidatesExamined, serial.candidatesExamined);
}

TEST(Planner, ParallelPlanningRespectsPermutationCap)
{
    const Chain chain = makeGemmChain(squareChain(64));
    PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    options.maxPermutations = 5;
    options.onlyExecutableOrders = false; // solve all capped candidates
    options.prune = analysis::PruneMode::None; // cap semantics, not pruning
    options.threads = 4;
    const ExecutionPlan plan = planChain(chain, options);
    EXPECT_EQ(plan.candidatesExamined, 5);
}

TEST(MultiLevelPlanner, TilesNestAcrossLevels)
{
    const Chain chain = makeGemmChain(squareChain(256));
    model::MachineModel machine;
    machine.name = "toy";
    machine.levels = {
        {"L1", 16.0 * 1024, 400e9},
        {"L2", 256.0 * 1024, 100e9},
    };
    machine.peakFlops = 1e12;

    PlannerOptions options;
    const MultiLevelPlan plan = planChainMultiLevel(chain, machine, options);
    ASSERT_EQ(plan.levels.size(), 2u);
    for (int a = 0; a < chain.numAxes(); ++a) {
        EXPECT_LE(plan.levels[0].tiles[static_cast<std::size_t>(a)],
                  plan.levels[1].tiles[static_cast<std::size_t>(a)])
            << "axis " << a;
    }
    EXPECT_TRUE(plan.cost.feasible);
    // Inner level traffic must be at least the outer level traffic.
    EXPECT_GE(plan.cost.volumeBytes[0], plan.cost.volumeBytes[1] - 0.5);
}

TEST(MultiLevelPlanner, BoundIsMaxOfStages)
{
    const Chain chain = makeGemmChain(squareChain(128));
    model::MachineModel machine;
    machine.levels = {{"L1", 32.0 * 1024, 1e12}};
    machine.peakFlops = 2e12;
    const MultiLevelPlan plan = planChainMultiLevel(chain, machine, {});
    double maxStage = plan.cost.computeSeconds;
    for (double s : plan.cost.stageSeconds) {
        maxStage = std::max(maxStage, s);
    }
    EXPECT_DOUBLE_EQ(plan.cost.boundSeconds, maxStage);
}

TEST(ThreadAwarePlanner, SingleThreadReproducesSerialPlanExactly)
{
    const Chain chain = makeGemmChain(squareChain(256));
    PlannerOptions serial;
    serial.memCapacityBytes = 512.0 * 1024;
    const ExecutionPlan base = planChain(chain, serial);

    PlannerOptions one = serial;
    one.execThreads = 1;
    one.topology = hw::multicoreCpuTopology();
    const ExecutionPlan same = planChain(chain, one);
    EXPECT_EQ(same.perm, base.perm);
    EXPECT_EQ(same.tiles, base.tiles);
    EXPECT_EQ(same.plannedThreads, 1);
    // And the serial document stays byte-identical: no threads line.
    EXPECT_EQ(serializePlan(chain, same), serializePlan(chain, base));
}

TEST(ThreadAwarePlanner, SharedCachePressureShrinksTiles)
{
    // A working set that fits the serial budget but not a twelfth of
    // the multicore LLC: the 12-thread plan must re-solve with strictly
    // smaller tiles so twelve concurrent working sets coexist.
    const Chain chain = makeGemmChain(squareChain(512));
    const model::MachineModel topo = hw::multicoreCpuTopology();

    PlannerOptions serial;
    serial.memCapacityBytes = 8.0 * 1024 * 1024;
    const ExecutionPlan base = planChain(chain, serial);
    const double share = model::minSharedPerWorkerCapacityBytes(topo, 12);
    ASSERT_GT(static_cast<double>(base.memUsageBytes), share)
        << "fixture too small to pressure the shared cache";

    PlannerOptions par = serial;
    par.execThreads = 12;
    par.topology = topo;
    const ExecutionPlan plan8 = planChain(chain, par);
    EXPECT_LE(static_cast<double>(plan8.memUsageBytes), share);
    EXPECT_EQ(plan8.plannedThreads, 12);
    bool strictlySmaller = false;
    for (int a = 0; a < chain.numAxes(); ++a) {
        const auto idx = static_cast<std::size_t>(a);
        EXPECT_LE(plan8.tiles[idx], base.tiles[idx]) << "axis " << a;
        strictlySmaller |= plan8.tiles[idx] < base.tiles[idx];
    }
    EXPECT_TRUE(strictlySmaller);
}

TEST(ThreadAwarePlanner, ChunkingCoversEveryWorker)
{
    // Enough parallel tasks must exist for the planned worker count.
    GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 96;
    cfg.n = 48;
    cfg.k = 32;
    cfg.l = 64;
    cfg.name = "chunk-cover";
    const Chain chain = makeGemmChain(cfg);
    PlannerOptions options;
    options.memCapacityBytes = 64.0 * 1024;
    options.execThreads = 8;
    options.topology = hw::multicoreCpuTopology();
    const ExecutionPlan plan = planChain(chain, options);

    std::int64_t tasks = 1;
    for (int a = 0; a < chain.numAxes(); ++a) {
        const auto idx = static_cast<std::size_t>(a);
        if (plan.concurrency[idx] ==
                analysis::AxisConcurrency::Parallel &&
            chain.axes()[idx].extent > 1) {
            tasks *= ceilDiv(chain.axes()[idx].extent, plan.tiles[idx]);
        }
    }
    EXPECT_GE(tasks, 8);
}

} // namespace
} // namespace chimera::plan
