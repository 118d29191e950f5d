/**
 * @file
 * Tests for the order-equivalence analyzer and the pruned search:
 * symmetry pruning must be bitwise-indistinguishable from exhaustive
 * enumeration (the property sweep runs randomized chains at 1/2/8
 * planner threads), its candidate accounting must close, the OE01
 * replay must come back clean, a cache entry carrying a retired
 * `search:` line must be replanned, and the two modes must share
 * fingerprints.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/order_equivalence.hpp"
#include "exec/constraints.hpp"
#include "exec/gemm_chain3_exec.hpp"
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
