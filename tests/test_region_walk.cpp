/**
 * @file
 * Tests for the region walk the fused executors and cache traces share:
 * region loops derived from the IR, the parallel/serial split and its
 * hoisting rule, exactly-once visits, and mixed-radix task ids, one
 * task per dispatch index.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "exec/gemm_chain3_exec.hpp"
#include "exec/region_walk.hpp"
#include "hw/machines.hpp"
#include "ir/builders.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "support/cpu_features.hpp"

namespace chimera::exec {
namespace {

/**
 * One region visit: the dispatch index it ran under, its task and
 * (start, size) per region loop.
 */
struct Visit
{
    std::int64_t index = 0;
    std::int64_t task = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> blocks;
};

/** Every region of every task, in serial walk order. */
std::vector<Visit>
walkAll(const RegionWalk &walk)
{
    std::vector<Visit> visits;
    Region region = walk.makeRegion();
    for (std::int64_t index = 0; index < walk.taskCount(); ++index) {
        walk.forEachRegion(index, region, [&](const Region &r) {
            Visit v{index, r.task(), {}};
            for (const RegionLoop &loop : walk.parallelLoops()) {
                v.blocks.emplace_back(r.start(loop.axis), r.size(loop.axis));
            }
            for (const RegionLoop &loop : walk.serialLoops()) {
                v.blocks.emplace_back(r.start(loop.axis), r.size(loop.axis));
            }
            visits.push_back(v);
        });
    }
    return visits;
}

std::vector<std::string>
loopNames(const ir::Chain &chain, const std::vector<RegionLoop> &loops)
{
    std::vector<std::string> names;
    for (const RegionLoop &loop : loops) {
        names.push_back(chain.axes()[static_cast<std::size_t>(loop.axis)].name);
    }
    return names;
}

plan::ExecutionPlan
planned(const ir::Chain &chain, double capacityBytes, int execThreads = 1)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = capacityBytes;
    options.execThreads = execThreads;
    if (execThreads > 1) {
        options.topology = hw::multicoreCpuTopology();
    }
    return plan::planChain(chain, options);
}

ir::Chain
gemmChain(std::int64_t batch, std::int64_t m)
{
    ir::GemmChainConfig cfg;
    cfg.name = "walk-gemm";
    cfg.batch = batch;
    cfg.m = m;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 40;
    return ir::makeGemmChain(cfg);
}

ir::Chain
chain3()
{
    ir::GemmChain3Config cfg;
    cfg.batch = 2;
    cfg.m = 48;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 40;
    cfg.p = 20;
    return ir::makeGemmChain3(cfg);
}

plan::ExecutionPlan
chain3Plan(const ir::Chain &chain)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = 48.0 * 1024;
    options.constraints = gemmChain3Constraints(
        chain,
        kernels::MicroKernelRegistry::instance().select(detectSimdTier()));
    return plan::planChain(chain, options);
}

ir::Chain
convChain(std::int64_t batch)
{
    ir::ConvChainConfig cfg;
    cfg.name = "walk-conv";
    cfg.batch = batch;
    cfg.ic = 6;
    cfg.h = 17;
    cfg.w = 17;
    cfg.oc1 = 9;
    cfg.oc2 = 7;
    cfg.k1 = 3;
    cfg.k2 = 3;
    return ir::makeConvChain(cfg);
}

/** Table V's C7 shape (1x1 -> 1x1) with the hand order ow,oc1,oh. */
ir::Chain
c7Chain()
{
    ir::ConvChainConfig cfg;
    cfg.name = "C7";
    cfg.ic = 64;
    cfg.h = 56;
    cfg.w = 56;
    cfg.oc1 = 64;
    cfg.oc2 = 64;
    cfg.k1 = 1;
    cfg.k2 = 1;
    return ir::makeConvChain(cfg);
}

plan::ExecutionPlan
c7HandPlan(const ir::Chain &chain)
{
    return plan::deserializePlan(chain, "chimera-plan v2\n"
                                        "chain: C7\n"
                                        "order: ow,oc1,oh,oc2,ic\n"
                                        "tiles: oc2=64 oh=16 ow=24 oc1=16 "
                                        "ic=64\n");
}

plan::ExecutionPlan
gemmHandPlan(const ir::Chain &chain)
{
    return plan::deserializePlan(chain, "chimera-plan v2\n"
                                        "chain: walk-gemm\n"
                                        "order: l,m,k,n\n"
                                        "tiles: m=16 n=8 k=8 l=16\n");
}

/** The (chain, plan) cases every property below is checked on. */
struct Case
{
    std::string name;
    ir::Chain chain;
    plan::ExecutionPlan plan;
};

std::vector<Case>
cases()
{
    std::vector<Case> out;
    const ir::Chain gemm = gemmChain(3, 48);
    out.push_back({"gemm", gemm, planned(gemm, 16.0 * 1024)});
    const ir::Chain threaded = gemmChain(8, 512);
    out.push_back(
        {"gemm-threaded", threaded, planned(threaded, 16.0 * 1024, 4)});
    const ir::Chain hand = gemmChain(1, 48);
    out.push_back({"gemm-hand", hand, gemmHandPlan(hand)});
    const ir::Chain three = chain3();
    out.push_back({"chain3", three, chain3Plan(three)});
    const ir::Chain conv = convChain(2);
    out.push_back({"conv", conv, planned(conv, 24.0 * 1024)});
    const ir::Chain c7 = c7Chain();
    out.push_back({"c7-hand", c7, c7HandPlan(c7)});
    return out;
}

TEST(RegionWalk, RegionLoopsAreTheAxesIndexingEveryIntermediate)
{
    auto regionAxes = [](const ir::Chain &chain,
                         const plan::ExecutionPlan &plan) {
        const RegionWalk walk(chain, plan);
        std::vector<std::string> names =
            loopNames(chain, walk.parallelLoops());
        for (const std::string &name : loopNames(chain, walk.serialLoops())) {
            names.push_back(name);
        }
        return std::set<std::string>(names.begin(), names.end());
    };
    const ir::Chain gemm = gemmChain(3, 48);
    EXPECT_EQ(regionAxes(gemm, planned(gemm, 16.0 * 1024)),
              (std::set<std::string>{"b", "m", "l"}));
    const ir::Chain three = chain3();
    EXPECT_EQ(regionAxes(three, chain3Plan(three)),
              (std::set<std::string>{"b", "m"}));
    const ir::Chain conv = convChain(2);
    EXPECT_EQ(regionAxes(conv, planned(conv, 24.0 * 1024)),
              (std::set<std::string>{"b", "oc1", "oh", "ow"}));
    // Without a batch axis there is simply no b loop.
    const ir::Chain single = gemmChain(1, 48);
    EXPECT_EQ(regionAxes(single, gemmHandPlan(single)),
              (std::set<std::string>{"m", "l"}));
}

TEST(RegionWalk, SerialWalkVisitsEveryRegionBlockExactlyOnce)
{
    for (const Case &c : cases()) {
        const RegionWalk walk(c.chain, c.plan);
        std::int64_t expected = 1;
        for (const auto *loops : {&walk.parallelLoops(), &walk.serialLoops()}) {
            for (const RegionLoop &loop : *loops) {
                expected *= loop.blocks();
            }
        }
        std::set<std::vector<std::pair<std::int64_t, std::int64_t>>> seen;
        const std::vector<Visit> visits = walkAll(walk);
        for (const Visit &v : visits) {
            EXPECT_TRUE(seen.insert(v.blocks).second) << c.name;
        }
        EXPECT_EQ(static_cast<std::int64_t>(visits.size()), expected)
            << c.name;

        // Axes that are not region loops span their full extent.
        Region region = walk.makeRegion();
        walk.forEachRegion(0, region, [&](const Region &r) {
            for (ir::AxisId a = 0; a < c.chain.numAxes(); ++a) {
                if (!walk.isRegionLoop(a)) {
                    EXPECT_EQ(r.start(a), 0) << c.name;
                    EXPECT_EQ(r.size(a),
                              c.chain.axes()[static_cast<std::size_t>(a)]
                                  .extent)
                        << c.name;
                }
            }
            EXPECT_EQ(r.size(-1), 1);
        });
    }
}

TEST(RegionWalk, TaskIdsAreMixedRadixOverParallelBlocks)
{
    for (const Case &c : cases()) {
        const RegionWalk walk(c.chain, c.plan);
        const std::vector<RegionLoop> &par = walk.parallelLoops();
        for (const Visit &v : walkAll(walk)) {
            std::int64_t task = 0;
            for (std::size_t i = 0; i < par.size(); ++i) {
                task = task * par[i].blocks() + v.blocks[i].first / par[i].tile;
            }
            EXPECT_EQ(v.task, task) << c.name;
            // Dispatch index i runs task i, and nothing else.
            EXPECT_EQ(v.task, v.index) << c.name;
        }
    }
}

TEST(RegionWalk, ParallelLoopsRunOutsideSerialLoops)
{
    // C7's hand order ow,oc1,oh puts the serial oc1 loop between the two
    // parallel ones; the walk hoists ow and oh outside it.
    const ir::Chain c7 = c7Chain();
    const RegionWalk walk(c7, c7HandPlan(c7));
    EXPECT_EQ(loopNames(c7, walk.parallelLoops()),
              (std::vector<std::string>{"ow", "oh"}));
    EXPECT_EQ(loopNames(c7, walk.serialLoops()),
              (std::vector<std::string>{"oc1"}));
    const std::vector<Visit> visits = walkAll(walk);
    ASSERT_GE(visits.size(), 5u);
    // oc1 (16 of 64 -> 4 blocks) varies fastest, then oh, then ow.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(visits[i].blocks[0].first, 0);
        EXPECT_EQ(visits[i].blocks[1].first, 0);
        EXPECT_EQ(visits[i].blocks[2].first,
                  static_cast<std::int64_t>(i) * 16);
    }
    EXPECT_EQ(visits[4].blocks[1].first, 16);
    EXPECT_EQ(visits[4].blocks[2].first, 0);

    // Same rule for a GEMM hand plan ordering the serial l loop first.
    const ir::Chain gemm = gemmChain(1, 48);
    const RegionWalk gemmWalk(gemm, gemmHandPlan(gemm));
    EXPECT_EQ(loopNames(gemm, gemmWalk.parallelLoops()),
              (std::vector<std::string>{"m"}));
    EXPECT_EQ(loopNames(gemm, gemmWalk.serialLoops()),
              (std::vector<std::string>{"l"}));
    EXPECT_EQ(fusedParallelAxes(gemm, gemmHandPlan(gemm)),
              (std::vector<std::string>{"m"}));
}

} // namespace
} // namespace chimera::exec
