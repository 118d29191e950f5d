/**
 * @file
 * Unit tests for the closed-form GEMM-chain solution and the general
 * tile solver, including the cross-check that coordinate descent
 * reproduces the paper's Lagrange-multiplier optimum.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "ir/builders.hpp"
#include "solver/closed_form.hpp"
#include "solver/tile_solver.hpp"
#include "support/error.hpp"

namespace chimera::solver {
namespace {

using ir::Chain;
using ir::GemmChainConfig;
using ir::axisIdByName;
using ir::makeGemmChain;

GemmChainConfig
cfgOf(std::int64_t batch, std::int64_t m, std::int64_t n, std::int64_t k,
      std::int64_t l)
{
    GemmChainConfig cfg;
    cfg.batch = batch;
    cfg.m = m;
    cfg.n = n;
    cfg.k = k;
    cfg.l = l;
    cfg.name = "t";
    return cfg;
}

TEST(ClosedForm, MatchesPaperFormulas)
{
    // T* = -alpha + sqrt(alpha^2 + MC); DV* = 2*M*L*(K+N)/T*.
    const std::int64_t m = 2048, n = 2048, k = 2048, l = 2048;
    const double mc = 256.0 * 1024; // elements
    const std::int64_t alpha = 8;
    const GemmChainClosedForm sol =
        solveGemmChainClosedForm(m, n, k, l, mc, alpha);

    const double expectedT = -8.0 + std::sqrt(64.0 + mc);
    EXPECT_DOUBLE_EQ(sol.tmStar, expectedT);
    EXPECT_DOUBLE_EQ(sol.tlStar, expectedT);
    EXPECT_DOUBLE_EQ(sol.dvStarElems,
                     2.0 * 2048.0 * 2048.0 * (2048.0 + 2048.0) / expectedT);
    EXPECT_EQ(sol.tm, static_cast<std::int64_t>(std::floor(expectedT)));
    EXPECT_EQ(sol.tn, alpha);
    EXPECT_EQ(sol.tk, alpha);
}

TEST(ClosedForm, TilesClampToExtents)
{
    // Tiny problem: rounded tiles cannot exceed the extents.
    const GemmChainClosedForm sol =
        solveGemmChainClosedForm(16, 4, 4, 16, 1e6, 8);
    EXPECT_EQ(sol.tm, 16);
    EXPECT_EQ(sol.tl, 16);
    EXPECT_EQ(sol.tn, 4);
    EXPECT_EQ(sol.tk, 4);
}

TEST(ClosedForm, RoundedWithinApproximationBound)
{
    for (std::int64_t size : {256, 512, 1024, 2048}) {
        const GemmChainClosedForm sol = solveGemmChainClosedForm(
            size, size, size, size, 128.0 * 1024, 8);
        EXPECT_LE(sol.dvRoundedElems,
                  sol.dvStarElems * sol.approximationBound * 1.01)
            << "size " << size;
        EXPECT_GE(sol.dvRoundedElems, sol.dvStarElems * 0.99);
    }
}

TEST(ClosedForm, RejectsBadInput)
{
    EXPECT_THROW(solveGemmChainClosedForm(0, 1, 1, 1, 10.0), Error);
    EXPECT_THROW(solveGemmChainClosedForm(1, 1, 1, 1, -1.0), Error);
    EXPECT_THROW(solveGemmChainClosedForm(1, 1, 1, 1, 10.0, 0), Error);
}

TEST(AxisCandidates, HonorFixedAndMultiples)
{
    const Chain chain = makeGemmChain(cfgOf(1, 64, 32, 16, 48));
    const ir::AxisId n = axisIdByName(chain, "n");

    TileConstraints c;
    c.fixed[n] = 16;
    auto cands = axisTileCandidates(chain, n, c);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0], 16);

    TileConstraints c2;
    c2.multipleOf[n] = 16;
    cands = axisTileCandidates(chain, n, c2);
    for (std::int64_t v : cands) {
        EXPECT_TRUE(v % 16 == 0 || v == 32);
    }
    EXPECT_EQ(cands.back(), 32);
}

TEST(AxisCandidates, MaxTileCapsCandidates)
{
    const Chain chain = makeGemmChain(cfgOf(1, 64, 32, 16, 48));
    const ir::AxisId m = axisIdByName(chain, "m");
    TileConstraints c;
    c.maxTile[m] = 10;
    const auto cands = axisTileCandidates(chain, m, c);
    for (std::int64_t v : cands) {
        EXPECT_LE(v, 10);
    }
    EXPECT_EQ(cands.back(), 10);
}

TEST(TileSolver, FindsFeasibleMinimum)
{
    const Chain chain = makeGemmChain(cfgOf(1, 256, 64, 64, 256));
    const std::vector<ir::AxisId> perm = {
        axisIdByName(chain, "m"), axisIdByName(chain, "l"),
        axisIdByName(chain, "k"), axisIdByName(chain, "n")};

    TileSolverOptions options;
    options.memCapacityBytes = 64.0 * 1024;
    const TileSolution sol = solveTiles(chain, perm, {}, options);
    ASSERT_TRUE(sol.feasible);
    EXPECT_LE(static_cast<double>(sol.memUsageBytes),
              options.memCapacityBytes);
    // The solve must beat the all-ones starting point substantially.
    TileSolution ones;
    const model::DataMovement onesDm = model::computeDataMovement(
        chain, perm,
        std::vector<std::int64_t>(static_cast<std::size_t>(chain.numAxes()),
                                  1));
    EXPECT_LT(sol.volumeBytes, onesDm.volumeBytes / 4.0);
}

TEST(TileSolver, MatchesClosedFormOnGemmChain)
{
    // On the square GEMM chain under order mlkn, coordinate descent must
    // land within a small factor of the paper's closed-form optimum.
    const std::int64_t size = 512;
    const double capBytes = 128.0 * 1024;
    const Chain chain = makeGemmChain(cfgOf(1, size, size, size, size));
    const std::vector<ir::AxisId> perm = {
        axisIdByName(chain, "m"), axisIdByName(chain, "l"),
        axisIdByName(chain, "k"), axisIdByName(chain, "n")};

    TileSolverOptions options;
    options.memCapacityBytes = capBytes;
    const TileSolution sol = solveTiles(chain, perm, {}, options);
    ASSERT_TRUE(sol.feasible);

    const GemmChainClosedForm closed = solveGemmChainClosedForm(
        size, size, size, size, capBytes / 4.0, 1);
    // Closed form reports elements; solver reports bytes.
    const double closedBytes = closed.dvStarElems * 4.0;
    EXPECT_LE(sol.volumeBytes, closedBytes * 1.30);
    EXPECT_GE(sol.volumeBytes, closedBytes * 0.95);
}

TEST(TileSolver, InfeasibleWhenCapacityTiny)
{
    const Chain chain = makeGemmChain(cfgOf(1, 64, 64, 64, 64));
    const std::vector<ir::AxisId> perm = {0, 1, 2, 3};
    TileSolverOptions options;
    options.memCapacityBytes = 8.0; // two floats: nothing fits
    const TileSolution sol = solveTiles(chain, perm, {}, options);
    EXPECT_FALSE(sol.feasible);
}

TEST(TileSolver, RespectsFixedTiles)
{
    const Chain chain = makeGemmChain(cfgOf(1, 64, 32, 16, 48));
    const ir::AxisId k = axisIdByName(chain, "k");
    TileConstraints constraints;
    constraints.fixed[k] = 16;
    TileSolverOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    const std::vector<ir::AxisId> perm = {0, 1, 2, 3};
    const TileSolution sol = solveTiles(chain, perm, constraints, options);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.tiles[static_cast<std::size_t>(k)], 16);
}

TEST(TileSolver, RejectsOutOfRangeFixedTile)
{
    // The solver validates each axis's candidate list once instead of
    // every evaluated tile vector: a fixed tile below 1 must still throw
    // the tile-range error for its axis.
    const Chain chain = makeGemmChain(cfgOf(1, 64, 32, 16, 48));
    const ir::AxisId k = axisIdByName(chain, "k");
    TileSolverOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    const std::vector<ir::AxisId> perm = {0, 1, 2, 3};
    for (std::int64_t bad : {0, -4}) {
        TileConstraints constraints;
        constraints.fixed[k] = bad;
        try {
            (void)solveTiles(chain, perm, constraints, options);
            ADD_FAILURE() << "fixed tile " << bad << " was accepted";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "tile size out of range for axis k"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TileSolver, RequiresPositiveCapacity)
{
    const Chain chain = ir::makeSingleGemm(1, 8, 8, 8);
    TileSolverOptions options;
    options.memCapacityBytes = 0.0;
    EXPECT_THROW(solveTiles(chain, {0, 1, 2}, {}, options), Error);
}

} // namespace
} // namespace chimera::solver
