/**
 * @file
 * Tests for the order-equivalence analyzer and the pruned search:
 * symmetry pruning must be bitwise-indistinguishable from exhaustive
 * enumeration (the property sweep runs randomized chains at 1/2/8
 * planner threads), its candidate accounting must close, the pair-order
 * key must partition orders like the induced-subsequence definition, the
 * planner-scaling chains must keep their search statistics, the OE01
 * replay must come back clean, a cache entry carrying a retired
 * `search:` line must be replanned, and the two modes must share
 * fingerprints.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/order_equivalence.hpp"
#include "exec/constraints.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "hw/machines.hpp"
#include "ir/builders.hpp"
#include "kernels/micro_kernel.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "verify/search_verifier.hpp"

namespace chimera {
namespace {

namespace fs = std::filesystem;

const kernels::MicroKernel &
testKernel()
{
    return kernels::MicroKernelRegistry::instance().select(
        detectSimdTier());
}

/** A random two-GEMM chain (fused length 2, with softmax 3). */
ir::Chain
randomGemmChain(Rng &rng, bool softmax)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 1 + static_cast<std::int64_t>(rng.below(2));
    cfg.m = 16 + static_cast<std::int64_t>(rng.below(6)) * 16;
    cfg.n = 16 + static_cast<std::int64_t>(rng.below(6)) * 16;
    cfg.k = 8 + static_cast<std::int64_t>(rng.below(6)) * 8;
    cfg.l = 16 + static_cast<std::int64_t>(rng.below(6)) * 16;
    cfg.epilogue = softmax ? ir::Epilogue::Softmax : ir::Epilogue::None;
    cfg.name = "sweep-gemm2";
    return ir::makeGemmChain(cfg);
}

/** A random three-GEMM chain (fused length 3, with softmax 4). */
ir::Chain
randomGemmChain3(Rng &rng, bool softmax)
{
    ir::GemmChain3Config cfg;
    cfg.batch = 1 + static_cast<std::int64_t>(rng.below(2));
    cfg.m = 16 + static_cast<std::int64_t>(rng.below(4)) * 16;
    cfg.n = 16 + static_cast<std::int64_t>(rng.below(4)) * 16;
    cfg.k = 8 + static_cast<std::int64_t>(rng.below(4)) * 8;
    cfg.l = 16 + static_cast<std::int64_t>(rng.below(4)) * 8;
    cfg.p = 8 + static_cast<std::int64_t>(rng.below(3)) * 4;
    cfg.epilogue = softmax ? ir::Epilogue::Softmax : ir::Epilogue::None;
    cfg.name = "sweep-gemm3";
    return ir::makeGemmChain3(cfg);
}

plan::PlannerOptions
sweepOptions(const ir::Chain &chain, bool chain3)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = 96.0 * 1024;
    options.constraints =
        chain3 ? exec::gemmChain3Constraints(chain, testKernel())
               : exec::cpuChainConstraints(chain, testKernel());
    return options;
}

/** Bitwise plan equality: the exact-pruning contract. */
void
expectSamePlan(const plan::ExecutionPlan &a, const plan::ExecutionPlan &b,
               const std::string &what)
{
    EXPECT_EQ(a.perm, b.perm) << what;
    EXPECT_EQ(a.tiles, b.tiles) << what;
    EXPECT_DOUBLE_EQ(a.predictedVolumeBytes, b.predictedVolumeBytes)
        << what;
    EXPECT_EQ(a.memUsageBytes, b.memUsageBytes) << what;
}

TEST(PropertySweep, ExactPruningMatchesExhaustiveAtEveryThreadCount)
{
    Rng rng(2026);
    for (int round = 0; round < 6; ++round) {
        const bool chain3 = round >= 2;
        const bool softmax = (round & 1) != 0;
        const ir::Chain chain = chain3 ? randomGemmChain3(rng, softmax)
                                       : randomGemmChain(rng, softmax);
        plan::PlannerOptions options = sweepOptions(chain, chain3);

        options.prune = analysis::PruneMode::None;
        options.threads = 1;
        const plan::ExecutionPlan exhaustive =
            plan::planChain(chain, options);

        for (const int threads : {1, 2, 8}) {
            options.prune = analysis::PruneMode::Symmetry;
            options.threads = threads;
            const plan::ExecutionPlan pruned =
                plan::planChain(chain, options);
            expectSamePlan(pruned, exhaustive,
                           std::string("round ") + std::to_string(round) +
                               " threads " + std::to_string(threads));
            EXPECT_LE(pruned.search.solved, exhaustive.search.solved);
            EXPECT_EQ(pruned.search.enumerated,
                      exhaustive.search.enumerated);
        }
    }
}

TEST(OrderAnalyzer, SearchStatsCountsAreConsistent)
{
    Rng rng(7);
    const ir::Chain chain = randomGemmChain(rng, false);
    plan::PlannerOptions options = sweepOptions(chain, false);
    for (const analysis::PruneMode mode :
         {analysis::PruneMode::None, analysis::PruneMode::Symmetry}) {
        options.prune = mode;
        const plan::ExecutionPlan plan = plan::planChain(chain, options);
        const analysis::SearchStats &s = plan.search;
        EXPECT_EQ(s.enumerated, s.filtered + s.symmetryPruned + s.solved);
        EXPECT_EQ(s.enumerated,
                  factorial(static_cast<int>(
                      chain.reorderableAxes().size())));
        EXPECT_FALSE(s.truncated);
        EXPECT_GE(s.solved, 1);
        EXPECT_EQ(plan.candidatesExamined, s.solved);
        if (mode == analysis::PruneMode::None) {
            EXPECT_EQ(s.symmetryPruned, 0);
        }
    }
}

/**
 * The axes a symmetry key orders, by the rule DESIGN.md states: every
 * axis except those invisible to both the model (its smallest tile
 * candidate covers its extent) and the executability filter (not a
 * reorderable axis with more than one block at its filter tile).
 */
std::vector<bool>
referenceKeyAxes(const ir::Chain &chain,
                 const solver::TileConstraints &constraints)
{
    std::vector<bool> inKey;
    for (ir::AxisId a = 0; a < chain.numAxes(); ++a) {
        const ir::Axis &axis = chain.axes()[static_cast<std::size_t>(a)];
        const bool alwaysSingle =
            solver::axisTileCandidates(chain, a, constraints).front() >=
            axis.extent;
        const auto fixed = constraints.fixed.find(a);
        const std::int64_t filterTile =
            fixed == constraints.fixed.end() ? 1 : fixed->second;
        const bool filterFree = axis.reorderable && filterTile < axis.extent;
        inKey.push_back(!alwaysSingle || filterFree);
    }
    return inKey;
}

/**
 * Every order of each chain, under the planner's search constraints:
 * two orders share a symmetry key exactly when every operator's induced
 * subsequence over the key axes agrees.
 */
TEST(OrderAnalyzer, PairKeyMatchesInducedSubsequences)
{
    ir::GemmChainConfig g2;
    g2.batch = 4;
    g2.m = 96;
    g2.n = 64;
    g2.k = 32;
    g2.l = 128;
    g2.name = "pair-key-gemm2";
    ir::GemmChainConfig g2NoBatch = g2;
    g2NoBatch.batch = 1;
    g2NoBatch.name = "pair-key-gemm2-nobatch";
    ir::GemmChain3Config g3;
    g3.batch = 2;
    g3.m = 128;
    g3.n = 64;
    g3.k = 32;
    g3.l = 96;
    g3.p = 48;
    g3.name = "pair-key-gemm3";
    ir::GemmChain3Config attention = g3;
    attention.epilogue = ir::Epilogue::Softmax;
    attention.name = "pair-key-attention";
    ir::ConvChainConfig conv;
    conv.ic = 16;
    conv.h = 28;
    conv.w = 28;
    conv.oc1 = 32;
    conv.oc2 = 32;
    conv.k1 = 3;
    conv.k2 = 1;
    conv.name = "pair-key-conv";

    struct Case
    {
        ir::Chain chain;
        solver::TileConstraints constraints;
        bool dropsAnAxis;
    };
    std::vector<Case> cases;
    for (const ir::GemmChainConfig &cfg : {g2, g2NoBatch}) {
        ir::Chain chain = ir::makeGemmChain(cfg);
        solver::TileConstraints c =
            exec::cpuChainConstraints(chain, testKernel());
        cases.push_back({std::move(chain), std::move(c), false});
    }
    // The pinned full-extent panel axis (and softmax's l) leave the key.
    for (const ir::GemmChain3Config &cfg : {g3, attention}) {
        ir::Chain chain = ir::makeGemmChain3(cfg);
        solver::TileConstraints c =
            exec::gemmChain3Constraints(chain, testKernel());
        cases.push_back({std::move(chain), std::move(c), true});
    }
    {
        ir::Chain chain = ir::makeConvChain(conv);
        solver::TileConstraints c =
            exec::cpuChainConstraints(chain, testKernel());
        cases.push_back({std::move(chain), std::move(c), false});
    }

    for (const Case &tc : cases) {
        plan::PlannerOptions options;
        options.memCapacityBytes = 96.0 * 1024;
        options.constraints = tc.constraints;
        const solver::TileConstraints constraints =
            plan::searchConstraints(tc.chain, options);
        const analysis::OrderAnalyzer analyzer(tc.chain, constraints);
        const std::vector<bool> inKey =
            referenceKeyAxes(tc.chain, constraints);

        bool dropped = false;
        for (const ir::AxisId a : tc.chain.reorderableAxes()) {
            dropped = dropped || !inKey[static_cast<std::size_t>(a)];
        }
        EXPECT_EQ(dropped, tc.dropsAnAxis) << tc.chain.name();

        using Subsequences = std::vector<std::vector<ir::AxisId>>;
        std::map<std::uint64_t, Subsequences> byKey;
        std::map<Subsequences, std::uint64_t> bySubsequences;
        std::int64_t orders = 0;
        plan::forEachCandidateOrder(
            tc.chain, options, [&](const std::vector<ir::AxisId> &perm) {
                ++orders;
                Subsequences induced;
                for (const ir::OpDecl &op : tc.chain.ops()) {
                    std::vector<ir::AxisId> sub;
                    for (const ir::AxisId a : perm) {
                        if (inKey[static_cast<std::size_t>(a)] &&
                            op.usesLoop(a)) {
                            sub.push_back(a);
                        }
                    }
                    induced.push_back(std::move(sub));
                }
                const std::uint64_t key = analyzer.symmetryKey(perm);
                const auto [k, newKey] = byKey.emplace(key, induced);
                const auto [s, newSub] = bySubsequences.emplace(induced, key);
                EXPECT_EQ(k->second, induced)
                    << tc.chain.name() << ": one key, two subsequences at "
                    << plan::orderString(tc.chain, perm);
                EXPECT_EQ(s->second, key)
                    << tc.chain.name() << ": one subsequence, two keys at "
                    << plan::orderString(tc.chain, perm);
            });
        EXPECT_EQ(orders, factorial(static_cast<int>(
                              tc.chain.reorderableAxes().size())));
        EXPECT_EQ(byKey.size(), bySubsequences.size()) << tc.chain.name();
        EXPECT_GT(byKey.size(), 1U) << tc.chain.name();
        EXPECT_LT(static_cast<std::int64_t>(byKey.size()), orders)
            << tc.chain.name();
    }
}

/**
 * The three full-size chains of bench/planner_scaling keep the search
 * statistics BENCH_planner.json records for them, in both prune modes
 * (solved / enumerated / filtered / symmetry-pruned).
 */
TEST(PlannerScaling, BenchChainsKeepTheirSearchStats)
{
    ir::GemmChainConfig g2;
    g2.name = "chain2-gemm";
    g2.m = g2.n = g2.k = g2.l = 256;
    ir::GemmChain3Config g3;
    g3.name = "chain3-gemm";
    g3.batch = 2;
    g3.m = g3.n = g3.k = g3.l = 256;
    g3.p = 64;
    ir::GemmChain3Config g4 = g3;
    g4.name = "chain4-attention";
    g4.epilogue = ir::Epilogue::Softmax;
    g4.softmaxScale = 1.0f / std::sqrt(static_cast<float>(g4.k));

    struct Expected
    {
        std::int64_t solved, enumerated, filtered, symmetryPruned;
    };
    const auto check = [](const ir::Chain &chain,
                          const solver::TileConstraints &constraints,
                          const Expected &none, const Expected &symmetry) {
        plan::PlannerOptions options;
        options.memCapacityBytes = hw::kPlanningBudgetBytes;
        options.constraints = constraints;
        for (const analysis::PruneMode mode :
             {analysis::PruneMode::None, analysis::PruneMode::Symmetry}) {
            options.prune = mode;
            const analysis::SearchStats s =
                plan::planChain(chain, options).search;
            const Expected &e =
                mode == analysis::PruneMode::None ? none : symmetry;
            const std::string what =
                chain.name() + " " + analysis::pruneModeName(mode);
            EXPECT_EQ(s.solved, e.solved) << what;
            EXPECT_EQ(s.enumerated, e.enumerated) << what;
            EXPECT_EQ(s.filtered, e.filtered) << what;
            EXPECT_EQ(s.symmetryPruned, e.symmetryPruned) << what;
            EXPECT_FALSE(s.truncated) << what;
        }
    };
    const ir::Chain chain2 = ir::makeGemmChain(g2);
    check(chain2, exec::cpuChainConstraints(chain2, testKernel()),
          {4, 24, 20, 0}, {2, 24, 16, 6});
    const ir::Chain chain3 = ir::makeGemmChain3(g3);
    check(chain3, exec::gemmChain3Constraints(chain3, testKernel()),
          {36, 720, 684, 0}, {2, 720, 70, 648});
    const ir::Chain chain4 = ir::makeGemmChain3(g4);
    check(chain4, exec::gemmChain3Constraints(chain4, testKernel()),
          {120, 720, 600, 0}, {2, 720, 16, 702});
}

TEST(SearchReplay, CleanOnFixtureChains)
{
    // replaySearch runs the OE01 checks: class members solve like
    // their representatives, and the exact argmin is preserved.
    Rng rng(11);
    for (const bool chain3 : {false, true}) {
        const ir::Chain chain = chain3 ? randomGemmChain3(rng, true)
                                       : randomGemmChain(rng, false);
        const plan::PlannerOptions options = sweepOptions(chain, chain3);
        const verify::SearchReplay replay =
            verify::replaySearch(chain, options);
        EXPECT_FALSE(replay.report.hasErrors())
            << replay.report.render();
        expectSamePlan(replay.pruned, replay.exhaustive, "replay");
    }
}

TEST(PlanCache, RejectsTamperedSearchLineAndReplans)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 64;
    cfg.n = 32;
    cfg.k = 16;
    cfg.l = 48;
    cfg.name = "search-tamper";
    const ir::Chain chain = ir::makeGemmChain(cfg);
    plan::PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;

    const fs::path dir =
        fs::path(::testing::TempDir()) / "chimera-search-cache-tamper";
    fs::remove_all(dir);
    {
        plan::PlanCache cache(dir.string());
        cache.store(chain, options, plan::planChain(chain, options));
    }
    fs::path entry;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".plan") {
            entry = e.path();
        }
    }
    ASSERT_FALSE(entry.empty());
    // An entry in the older format that still stored search stats: the
    // line is now an unknown key, so the entry is unreadable.
    {
        std::ofstream out(entry, std::ios::app);
        out << "search: mode=dominance enumerated=24 truncated=0"
               " filtered=16 symmetry=6 dominance=0 beam=0 solved=2 gap=0"
               " digest=deadbeefdeadbeef\n";
    }

    plan::PlanCache reopened(dir.string());
    EXPECT_FALSE(reopened.lookup(chain, options).has_value());
    EXPECT_EQ(reopened.stats().corruptEntries, 1);

    // The deployment path: a fresh planChain through the poisoned cache
    // silently replans and re-stores a decisions-only entry.
    options.cache = &reopened;
    const plan::ExecutionPlan replanned = plan::planChain(chain, options);
    EXPECT_GT(replanned.candidatesExamined, 0);
    EXPECT_GT(replanned.search.solved, 0);
    plan::PlanCache healed(dir.string());
    options.cache = &healed;
    const plan::ExecutionPlan hit = plan::planChain(chain, options);
    EXPECT_EQ(healed.stats().diskHits, 1);
    EXPECT_EQ(hit.search.solved, 0); // provenance of no search
    expectSamePlan(hit, replanned, "healed entry");
}

TEST(PlanCache, ExactModesShareFingerprints)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 1;
    cfg.m = 64;
    cfg.n = 64;
    cfg.k = 32;
    cfg.l = 48;
    cfg.name = "search-fingerprint";
    const ir::Chain chain = ir::makeGemmChain(cfg);
    plan::PlannerOptions options;
    options.memCapacityBytes = 48.0 * 1024;
    plan::PlanCache cache(""); // memory-only
    options.cache = &cache;

    options.prune = analysis::PruneMode::Symmetry;
    const std::string fingerprint = plan::planFingerprint(chain, options);
    const plan::ExecutionPlan stored = plan::planChain(chain, options);
    EXPECT_GT(stored.candidatesExamined, 0);

    // The mode is excluded from the fingerprint: an exhaustive lookup
    // reuses the symmetry-planned entry (they are provably the same
    // plan).
    options.prune = analysis::PruneMode::None;
    EXPECT_EQ(plan::planFingerprint(chain, options), fingerprint);
    const plan::ExecutionPlan sharedHit = plan::planChain(chain, options);
    EXPECT_EQ(sharedHit.candidatesExamined, 0);
    expectSamePlan(sharedHit, stored, "exact-mode cache share");
}

} // namespace
} // namespace chimera
