/**
 * @file
 * Tests for the three-GEMM chain extension: IR structure, Algorithm-1
 * behaviour with two intermediates, panel-aware executable orders,
 * planning, and fused-executor correctness.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "exec/gemm_chain3_exec.hpp"
#include "model/data_movement.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace chimera {
namespace {

ir::GemmChain3Config
smallChain3()
{
    ir::GemmChain3Config cfg;
    cfg.batch = 2;
    cfg.m = 48;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 40;
    cfg.p = 20;
    return cfg;
}

plan::ExecutionPlan
planChain3(const ir::GemmChain3Config &cfg, double capacity)
{
    const ir::Chain chain = ir::makeGemmChain3(cfg);
    plan::PlannerOptions options;
    options.memCapacityBytes = capacity;
    options.constraints = exec::gemmChain3Constraints(
        chain,
        kernels::MicroKernelRegistry::instance().select(detectSimdTier()));
    return plan::planChain(chain, options);
}

TEST(Chain3Ir, SixIndependentAxesWithBatch)
{
    const ir::Chain chain = ir::makeGemmChain3(smallChain3());
    EXPECT_EQ(chain.numAxes(), 6);
    EXPECT_EQ(chain.ops().size(), 3u);
    EXPECT_EQ(chain.tensors().size(), 7u);
    // A, B, D, F inputs + E output are IO; C1, C2 stay on chip.
    EXPECT_EQ(chain.ioTensorIds().size(), 5u);
}

TEST(Chain3Ir, PrivateAxesFlowThroughOps)
{
    const ir::Chain chain = ir::makeGemmChain3(smallChain3());
    const auto priv1 = chain.privateAxesOf(0);
    ASSERT_EQ(priv1.size(), 1u);
    EXPECT_EQ(chain.axes()[static_cast<std::size_t>(priv1[0])].name, "k");
    const auto priv2 = chain.privateAxesOf(1);
    ASSERT_EQ(priv2.size(), 1u);
    EXPECT_EQ(chain.axes()[static_cast<std::size_t>(priv2[0])].name, "l");
}

TEST(Chain3Ir, SoftmaxBuildsTheAttentionChain)
{
    // QK^T -> softmax -> .V -> proj: same IR skeleton, the softmax
    // rides as the first intermediate's epilogue.
    ir::GemmChain3Config cfg = smallChain3();
    cfg.epilogue = ir::Epilogue::Softmax;
    const ir::Chain chain = ir::makeGemmChain3(cfg);
    EXPECT_EQ(chain.ops().size(), 3u);
    EXPECT_EQ(chain.intermediateEpilogue(), ir::Epilogue::Softmax);
}

TEST(Chain3Planner, SoftmaxPinsTheFullScoreRow)
{
    // Softmax normalizes a whole l row, so the constraints pin T_L = L
    // (next to the usual T_P = P panel pin).
    ir::GemmChain3Config cfg = smallChain3();
    cfg.epilogue = ir::Epilogue::Softmax;
    const ir::Chain chain = ir::makeGemmChain3(cfg);
    plan::PlannerOptions options;
    options.memCapacityBytes = 64.0 * 1024;
    options.constraints = exec::gemmChain3Constraints(
        chain,
        kernels::MicroKernelRegistry::instance().select(detectSimdTier()));
    const plan::ExecutionPlan plan = plan::planChain(chain, options);
    const ir::AxisId l = ir::axisIdByName(chain, "l");
    const ir::AxisId p = ir::axisIdByName(chain, "p");
    EXPECT_EQ(plan.tiles[static_cast<std::size_t>(l)], cfg.l);
    EXPECT_EQ(plan.tiles[static_cast<std::size_t>(p)], cfg.p);
}

TEST(Chain3Model, IntermediatesMoveNothing)
{
    const ir::Chain chain = ir::makeGemmChain3(smallChain3());
    const auto perm = plan::permFromOrderString(chain, "b,m,l,k,p,n");
    const auto tiles = chain.fullExtents();
    const auto dm = model::computeDataMovement(chain, perm, tiles);
    EXPECT_DOUBLE_EQ(dm.perTensorBytes[2], 0.0); // C1
    EXPECT_DOUBLE_EQ(dm.perTensorBytes[4], 0.0); // C2
    EXPECT_DOUBLE_EQ(dm.volumeBytes,
                     static_cast<double>(chain.ioBytes()));
}

TEST(Chain3Model, NoFullyBlockedOrderIsExecutable)
{
    // With every axis blocked, the two intermediates impose conflicting
    // orderings (p inner to l and l inner to p): nothing is executable.
    const ir::Chain chain = ir::makeGemmChain3(smallChain3());
    int executable = 0;
    for (const auto &idx : allPermutations(5)) {
        std::vector<ir::AxisId> perm;
        perm.push_back(ir::axisIdByName(chain, "b"));
        for (int i : idx) {
            perm.push_back(i + 1); // axes m, n, k, l, p follow b
        }
        if (model::isExecutableOrder(chain, perm)) {
            ++executable;
        }
    }
    EXPECT_EQ(executable, 0);
}

TEST(Chain3Model, PanelTilesUnlockExecutableOrders)
{
    const ir::Chain chain = ir::makeGemmChain3(smallChain3());
    auto tiles = chain.fullExtents();
    // Block everything except p (held as a full panel).
    for (const char *name : {"m", "n", "k", "l"}) {
        tiles[static_cast<std::size_t>(ir::axisIdByName(chain, name))] = 8;
    }
    tiles[static_cast<std::size_t>(ir::axisIdByName(chain, "b"))] = 1;
    const auto perm = plan::permFromOrderString(chain, "b,m,l,k,p,n");
    EXPECT_FALSE(model::isExecutableOrder(chain, perm));
    EXPECT_TRUE(model::isExecutableOrder(chain, perm, tiles));
}

TEST(Chain3Planner, PlansWithPanelConstraint)
{
    const plan::ExecutionPlan plan = planChain3(smallChain3(), 64.0 * 1024);
    const ir::Chain chain = ir::makeGemmChain3(smallChain3());
    const ir::AxisId p = ir::axisIdByName(chain, "p");
    EXPECT_EQ(plan.tiles[static_cast<std::size_t>(p)], 20);
    EXPECT_LE(static_cast<double>(plan.memUsageBytes), 64.0 * 1024);
}

class Chain3Exec : public ::testing::TestWithParam<ir::Epilogue>
{
};

TEST_P(Chain3Exec, FusedMatchesReference)
{
    ir::GemmChain3Config cfg = smallChain3();
    cfg.epilogue = GetParam();
    const plan::ExecutionPlan plan = planChain3(cfg, 48.0 * 1024);

    Tensor a(exec::gemmChain3ShapeA(cfg));
    Tensor b(exec::gemmChain3ShapeB(cfg));
    Tensor d(exec::gemmChain3ShapeD(cfg));
    Tensor f(exec::gemmChain3ShapeF(cfg));
    Tensor e(exec::gemmChain3ShapeE(cfg));
    Tensor expected(exec::gemmChain3ShapeE(cfg));
    Rng rng(9);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);
    fillUniform(f, rng);

    exec::referenceGemmChain3(cfg, a, b, d, f, expected);
    exec::runFusedGemmChain3(cfg, plan, exec::ComputeEngine::best(), a, b,
                             d, f, e);
    EXPECT_TRUE(allClose(e, expected, 5e-3f, 5e-3f))
        << "maxdiff " << maxAbsDiff(e, expected);
}

INSTANTIATE_TEST_SUITE_P(Epilogues, Chain3Exec,
                         ::testing::Values(ir::Epilogue::None,
                                           ir::Epilogue::Relu,
                                           ir::Epilogue::Softmax));

TEST(Chain3Exec, SoftmaxAttentionWithScaleMatchesReference)
{
    // The 4-op attention pattern with the 1/sqrt(d_k) score scaling:
    // fused (on-chip row softmax) vs the max-subtracting reference.
    ir::GemmChain3Config cfg = smallChain3();
    cfg.epilogue = ir::Epilogue::Softmax;
    cfg.softmaxScale = 1.0f / std::sqrt(static_cast<float>(cfg.k));
    const plan::ExecutionPlan plan = planChain3(cfg, 48.0 * 1024);

    Tensor a(exec::gemmChain3ShapeA(cfg));
    Tensor b(exec::gemmChain3ShapeB(cfg));
    Tensor d(exec::gemmChain3ShapeD(cfg));
    Tensor f(exec::gemmChain3ShapeF(cfg));
    Tensor e(exec::gemmChain3ShapeE(cfg));
    Tensor fused(exec::gemmChain3ShapeE(cfg));
    Tensor expected(exec::gemmChain3ShapeE(cfg));
    Rng rng(31);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);
    fillUniform(f, rng);

    exec::referenceGemmChain3(cfg, a, b, d, f, expected);
    exec::runFusedGemmChain3(cfg, plan, exec::ComputeEngine::best(), a, b,
                             d, f, fused);
    EXPECT_TRUE(allClose(fused, expected, 5e-3f, 5e-3f))
        << "maxdiff " << maxAbsDiff(fused, expected);

    Tensor c1({cfg.batch, cfg.m, cfg.l});
    Tensor c2({cfg.batch, cfg.m, cfg.p});
    exec::runUnfusedGemmChain3(cfg, exec::ComputeEngine::best(), a, b, d,
                               f, c1, c2, e, {16, 16, 16});
    EXPECT_TRUE(allClose(e, expected, 5e-3f, 5e-3f))
        << "maxdiff " << maxAbsDiff(e, expected);
}

TEST(Chain3Exec, OddShapesAndBatchOne)
{
    ir::GemmChain3Config cfg;
    cfg.batch = 1;
    cfg.m = 37;
    cfg.n = 19;
    cfg.k = 11;
    cfg.l = 23;
    cfg.p = 13;
    const plan::ExecutionPlan plan = planChain3(cfg, 32.0 * 1024);

    Tensor a(exec::gemmChain3ShapeA(cfg));
    Tensor b(exec::gemmChain3ShapeB(cfg));
    Tensor d(exec::gemmChain3ShapeD(cfg));
    Tensor f(exec::gemmChain3ShapeF(cfg));
    Tensor e(exec::gemmChain3ShapeE(cfg));
    Tensor expected(exec::gemmChain3ShapeE(cfg));
    Rng rng(21);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);
    fillUniform(f, rng);
    exec::referenceGemmChain3(cfg, a, b, d, f, expected);
    exec::runFusedGemmChain3(cfg, plan, exec::ComputeEngine::best(), a, b,
                             d, f, e);
    EXPECT_TRUE(allClose(e, expected, 5e-3f, 5e-3f));
}

TEST(Chain3Exec, UnfusedMatchesReference)
{
    const ir::GemmChain3Config cfg = smallChain3();
    Tensor a(exec::gemmChain3ShapeA(cfg));
    Tensor b(exec::gemmChain3ShapeB(cfg));
    Tensor d(exec::gemmChain3ShapeD(cfg));
    Tensor f(exec::gemmChain3ShapeF(cfg));
    Tensor e(exec::gemmChain3ShapeE(cfg));
    Tensor c1({cfg.batch, cfg.m, cfg.l});
    Tensor c2({cfg.batch, cfg.m, cfg.p});
    Tensor expected(exec::gemmChain3ShapeE(cfg));
    Rng rng(4);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);
    fillUniform(f, rng);
    exec::referenceGemmChain3(cfg, a, b, d, f, expected);
    exec::runUnfusedGemmChain3(cfg, exec::ComputeEngine::best(), a, b, d,
                               f, c1, c2, e, {16, 16, 16});
    EXPECT_TRUE(allClose(e, expected, 5e-3f, 5e-3f));
}

TEST(Chain3Exec, RequiresPanelTileForP)
{
    const ir::GemmChain3Config cfg = smallChain3();
    const ir::Chain chain = ir::makeGemmChain3(cfg);
    plan::ExecutionPlan plan;
    plan.perm = plan::permFromOrderString(chain, "b,m,l,k,p,n");
    plan.tiles = chain.fullExtents();
    plan.tiles[static_cast<std::size_t>(ir::axisIdByName(chain, "p"))] = 4;

    Tensor a(exec::gemmChain3ShapeA(cfg));
    Tensor b(exec::gemmChain3ShapeB(cfg));
    Tensor d(exec::gemmChain3ShapeD(cfg));
    Tensor f(exec::gemmChain3ShapeF(cfg));
    Tensor e(exec::gemmChain3ShapeE(cfg));
    EXPECT_THROW(runFusedGemmChain3(cfg, plan, exec::ComputeEngine::best(),
                                    a, b, d, f, e),
                 Error);

    // The attention chain normalizes a full scores row on chip, so a
    // softmax plan with T_P = P but T_L < L is refused as well.
    ir::GemmChain3Config attn = cfg;
    attn.epilogue = ir::Epilogue::Softmax;
    const ir::Chain attnChain = ir::makeGemmChain3(attn);
    plan::ExecutionPlan attnPlan;
    attnPlan.perm = plan::permFromOrderString(attnChain, "b,m,l,k,p,n");
    attnPlan.tiles = attnChain.fullExtents();
    attnPlan.tiles[static_cast<std::size_t>(
        ir::axisIdByName(attnChain, "l"))] = 8;
    EXPECT_THROW(runFusedGemmChain3(attn, attnPlan,
                                    exec::ComputeEngine::best(), a, b, d, f,
                                    e),
                 Error);
    attnPlan.tiles = attnChain.fullExtents();
    EXPECT_NO_THROW(runFusedGemmChain3(attn, attnPlan,
                                       exec::ComputeEngine::best(), a, b, d,
                                       f, e));
}

} // namespace
} // namespace chimera
