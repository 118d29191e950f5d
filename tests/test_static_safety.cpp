/**
 * @file
 * Tests for the symbolic plan-safety analyzer (SB01-SB04), the
 * certificate lifecycle (planner attach, re-derived on every cache
 * load, never serialized), the plan cache's replanning of entries that
 * still carry a `safety:` line, and the serve gate's certified-only
 * policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dependence.hpp"
#include "analysis/static_safety.hpp"
#include "ir/builders.hpp"
#include "plan/plan_cache.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "serve/planner_gate.hpp"
#include "support/error.hpp"
#include "verify/plan_verifier.hpp"
#include "verify/safety_verifier.hpp"

namespace chimera {
namespace {

namespace fs = std::filesystem;

ir::Chain
chainUnderTest()
{
    ir::GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 64;
    cfg.n = 32;
    cfg.k = 16;
    cfg.l = 48;
    cfg.name = "safety-test";
    return ir::makeGemmChain(cfg);
}

plan::PlannerOptions
optionsUnderTest()
{
    plan::PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    return options;
}

/** Analyzer inputs derived from a plan (the planner's own call shape). */
analysis::SafetyAnalysis
analyzePlan(const ir::Chain &chain, const plan::ExecutionPlan &plan,
            const analysis::ShapeDomain &domain,
            double capacityBytes = 32.0 * 1024)
{
    analysis::SafetyOptions so;
    so.memCapacityBytes = capacityBytes;
    return analysis::analyzeSafety(
        chain, plan.tiles, plan::effectiveConcurrency(chain, plan),
        std::max(1, plan.plannedThreads), domain, so);
}

TEST(SymRange, MultiplicationOverflowSaturatesAndFlags)
{
    const analysis::SymRange big =
        analysis::SymRange::point(std::int64_t{1} << 62);
    const analysis::SymRange four = analysis::SymRange::point(4);
    const analysis::SymRange product = analysis::mulRanges(big, four);
    EXPECT_TRUE(product.overflow);
    const analysis::SymRange sum = analysis::addRanges(
        analysis::SymRange::point(std::numeric_limits<std::int64_t>::max()),
        analysis::SymRange::point(1));
    EXPECT_TRUE(sum.overflow);
    const analysis::SymRange fine = analysis::mulRanges(
        analysis::SymRange::point(1 << 20), analysis::SymRange::point(64));
    EXPECT_FALSE(fine.overflow);
    EXPECT_EQ(fine.lo, (std::int64_t{1} << 20) * 64);
}

TEST(ShapeDomain, ConcreteSummaryAndWidening)
{
    const ir::Chain chain = chainUnderTest();
    analysis::ShapeDomain domain = analysis::ShapeDomain::concrete(chain);
    EXPECT_TRUE(domain.isConcrete(chain));
    EXPECT_EQ(domain.summary(chain), "concrete");

    domain = analysis::parseShapeDomain(chain, "b:1..4096", "test");
    EXPECT_FALSE(domain.isConcrete(chain));
    EXPECT_EQ(domain.summary(chain), "b:1..4096");

    // Widening must keep the chain's own extent admissible.
    EXPECT_THROW(analysis::parseShapeDomain(chain, "m:1..8", "test"), Error);
    EXPECT_THROW(
        analysis::parseShapeDomain(chain, "nonexistent:1..128", "test"),
        Error);
}

TEST(ShapeDomain, ParseRoundTripsAndRejectsMalformed)
{
    const ir::Chain chain = chainUnderTest();
    const analysis::ShapeDomain parsed =
        analysis::parseShapeDomain(chain, "m:1..64,b:1..4096", "test");
    EXPECT_EQ(parsed.summary(chain), "b:1..4096,m:1..64");
    EXPECT_EQ(analysis::parseShapeDomain(chain, parsed.summary(chain),
                                         "test")
                  .summary(chain),
              parsed.summary(chain));

    EXPECT_EQ(analysis::parseShapeDomain(chain, "concrete", "test")
                  .summary(chain),
              "concrete");
    EXPECT_THROW(analysis::parseShapeDomain(chain, "zz:1..4", "test"),
                 Error);
    EXPECT_THROW(analysis::parseShapeDomain(chain, "b:nonsense", "test"),
                 Error);
    // Domain must contain the concrete extent (b = 4 here).
    EXPECT_THROW(analysis::parseShapeDomain(chain, "b:1..2", "test"),
                 Error);
}

TEST(StaticSafety, PlannerCertifiesItsOwnPlans)
{
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    ASSERT_TRUE(plan.safety.certified);
    EXPECT_EQ(plan.safety.domain, "concrete");
    EXPECT_EQ(plan.safety.rules, "sb01,sb02,sb03,sb04");

    // The certified plan is clean under the legality verifier.
    verify::PlanVerifyOptions vo =
        verify::planVerifyOptions(optionsUnderTest());
    const verify::Report report =
        verify::verifyExecutionPlan(chain, plan, vo);
    EXPECT_FALSE(report.hasErrors()) << report.render();
}

TEST(StaticSafety, CertificateSurvivesSerializationRoundTrip)
{
    // The document stores no certificate; a disk hit re-derives the
    // one the planner attached.
    const ir::Chain chain = chainUnderTest();
    const plan::PlannerOptions options = optionsUnderTest();
    const plan::ExecutionPlan plan = plan::planChain(chain, options);
    ASSERT_TRUE(plan.safety.certified);
    const fs::path dir = fs::path(::testing::TempDir()) /
                         "chimera-safety-cache-roundtrip";
    fs::remove_all(dir);
    plan::PlanCache(dir.string()).store(chain, options, plan);

    plan::PlanCache reopened(dir.string());
    const std::optional<plan::ExecutionPlan> loaded =
        reopened.lookup(chain, options);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(reopened.stats().diskHits, 1);
    EXPECT_TRUE(loaded->safety.certified);
    EXPECT_EQ(loaded->safety.domain, plan.safety.domain);
    EXPECT_EQ(loaded->safety.rules, plan.safety.rules);
}

TEST(StaticSafety, UncertifiedPlanSerializesWithoutSafetyLine)
{
    // Certified or not, a document carries decisions only.
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    ASSERT_TRUE(plan.safety.certified);
    plan::ExecutionPlan uncertified = plan;
    uncertified.safety = analysis::SafetyCertificate{};
    const std::string text = plan::serializePlan(chain, uncertified);
    EXPECT_EQ(text.find("safety:"), std::string::npos);
    EXPECT_EQ(text, plan::serializePlan(chain, plan));
}

TEST(StaticSafety, Sb01FiresWhenTileExceedsDomainMinimum)
{
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    // m tiles > 1 now escape small shapes.
    const analysis::ShapeDomain domain =
        analysis::parseShapeDomain(chain, "m:1..128", "test");
    const analysis::SafetyAnalysis sa = analyzePlan(chain, plan, domain);
    ASSERT_FALSE(sa.certificate.certified);
    EXPECT_TRUE(std::any_of(sa.violations.begin(), sa.violations.end(),
                            [](const analysis::SafetyViolation &v) {
                                return v.rule == analysis::SafetyRule::SB01;
                            }))
        << sa.renderViolations();
}

TEST(StaticSafety, Sb02FiresWhenBudgetShrinksBelowLiveWindow)
{
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    const analysis::SafetyAnalysis sa =
        analyzePlan(chain, plan, analysis::ShapeDomain::concrete(chain),
                    /*capacityBytes=*/1024.0);
    ASSERT_FALSE(sa.certificate.certified);
    EXPECT_TRUE(std::any_of(sa.violations.begin(), sa.violations.end(),
                            [](const analysis::SafetyViolation &v) {
                                return v.rule == analysis::SafetyRule::SB02;
                            }))
        << sa.renderViolations();
}

TEST(StaticSafety, Sb03FiresWhenOffsetsOverflowInt64)
{
    ir::GemmChainConfig cfg;
    cfg.batch = 1;
    cfg.m = 4300000000;
    cfg.n = 4300000000;
    cfg.k = 64;
    cfg.l = 64;
    cfg.name = "overflow-test";
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const std::vector<std::int64_t> tiles(
        static_cast<std::size_t>(chain.numAxes()), 64);
    analysis::SafetyOptions so;
    const analysis::SafetyAnalysis sa = analysis::analyzeSafety(
        chain, tiles, analysis::analyzeConcurrency(chain, tiles).kinds(), 1,
        analysis::ShapeDomain::concrete(chain), so);
    ASSERT_FALSE(sa.certificate.certified);
    EXPECT_TRUE(std::any_of(sa.violations.begin(), sa.violations.end(),
                            [](const analysis::SafetyViolation &v) {
                                return v.rule == analysis::SafetyRule::SB03;
                            }))
        << sa.renderViolations();
}

TEST(StaticSafety, Sb04FiresOnMisdeclaredParallelReduction)
{
    const ir::Chain chain = chainUnderTest();
    const plan::ExecutionPlan plan =
        plan::planChain(chain, optionsUnderTest());
    std::vector<analysis::AxisConcurrency> kinds =
        plan::effectiveConcurrency(chain, plan);
    const ir::AxisId l = ir::axisIdByName(chain, "l");
    kinds[static_cast<std::size_t>(l)] =
        analysis::AxisConcurrency::Parallel; // l reduces into E: a lie
    analysis::SafetyOptions so;
    so.memCapacityBytes = 32.0 * 1024;
    const analysis::SafetyAnalysis sa = analysis::analyzeSafety(
        chain, plan.tiles, kinds, 1, analysis::ShapeDomain::concrete(chain),
        so);
    ASSERT_FALSE(sa.certificate.certified);
    EXPECT_TRUE(std::any_of(sa.violations.begin(), sa.violations.end(),
                            [](const analysis::SafetyViolation &v) {
                                return v.rule == analysis::SafetyRule::SB04;
                            }))
        << sa.renderViolations();
}

TEST(StaticSafety, WidenedBatchDomainCertifiesBatchOneTiles)
{
    // The serve batcher's derived plans pin the b tile at 1; such a
    // plan certifies over b in [1, 4096] — one certificate for the
    // whole batch family.
    const ir::Chain chain = chainUnderTest();
    plan::PlannerOptions po = optionsUnderTest();
    po.constraints.fixed[ir::axisIdByName(chain, "b")] = 1;
    const plan::ExecutionPlan plan = plan::planChain(chain, po);
    const analysis::SafetyAnalysis sa = analyzePlan(
        chain, plan, analysis::parseShapeDomain(chain, "b:1..4096", "test"));
    ASSERT_TRUE(sa.certificate.certified) << sa.renderViolations();
    EXPECT_EQ(sa.certificate.domain, "b:1..4096");
}

TEST(StaticSafety, PlanCacheRejectsTamperedCertificateEntry)
{
    const ir::Chain chain = chainUnderTest();
    plan::PlannerOptions options = optionsUnderTest();
    const fs::path dir = fs::path(::testing::TempDir()) /
                         "chimera-safety-cache-tamper";
    fs::remove_all(dir);
    {
        plan::PlanCache cache(dir.string());
        cache.store(chain, options,
                    plan::planChain(chain, options));
    }
    // An entry from the older format that still stored a certificate:
    // the `safety:` line is an unknown key, so the entry is unreadable
    // and nothing it claims can be served.
    fs::path entry;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".plan") {
            entry = e.path();
        }
    }
    ASSERT_FALSE(entry.empty());
    {
        std::ofstream out(entry, std::ios::app);
        out << "safety: domain=concrete rules=sb01,sb02,sb03,sb04"
               " digest=0123456789abcdef\n";
    }

    plan::PlanCache reopened(dir.string());
    EXPECT_FALSE(reopened.lookup(chain, options).has_value());
    EXPECT_EQ(reopened.stats().corruptEntries, 1);

    // Replanning heals the entry; the reload carries a fresh certificate.
    options.cache = &reopened;
    EXPECT_GT(plan::planChain(chain, options).candidatesExamined, 0);
    plan::PlanCache healed(dir.string());
    options.cache = &healed;
    const plan::ExecutionPlan loaded = plan::planChain(chain, options);
    EXPECT_EQ(healed.stats().diskHits, 1);
    EXPECT_TRUE(loaded.safety.certified);
}

TEST(StaticSafety, PlannerGateServesOnlyCertifiedPlans)
{
    serve::PlannerGateOptions options;
    options.cacheDir = "-"; // memory-only
    serve::PlannerGate gate(options);
    ir::GemmChainConfig cfg;
    cfg.batch = 1;
    cfg.m = 64;
    cfg.n = 64;
    cfg.k = 64;
    cfg.l = 64;
    const plan::ExecutionPlan plan = gate.canonicalPlan(cfg);
    EXPECT_TRUE(plan.safety.certified);
    EXPECT_GE(gate.stats().certifiedPlans, 1);

    const plan::ExecutionPlan batched = gate.batchedPlan(cfg, 8);
    EXPECT_TRUE(batched.safety.certified);
    EXPECT_GE(gate.stats().certifiedPlans, 2);
}

TEST(StaticSafety, VerifierChecksRequestedDomainOnUncertifiedPlan)
{
    const ir::Chain chain = chainUnderTest();
    const plan::PlannerOptions po = optionsUnderTest();
    plan::ExecutionPlan plan = plan::planChain(chain, po);
    plan.safety = analysis::SafetyCertificate{}; // a hand-assembled plan

    verify::SafetyVerifyOptions so;
    so.memCapacityBytes = po.memCapacityBytes;
    analysis::SafetyAnalysis analysis;
    const verify::Report report =
        verify::verifyPlanSafety(chain, plan, so, &analysis);
    EXPECT_FALSE(report.hasErrors()) << report.render();
    EXPECT_TRUE(analysis.certificate.certified);

    so.domainSpec = "zz:1..4"; // unknown axis: caller defect, throws
    EXPECT_THROW((void)verify::verifyPlanSafety(chain, plan, so), Error);
}

} // namespace
} // namespace chimera
