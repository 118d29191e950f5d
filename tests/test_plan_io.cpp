/**
 * @file
 * Tests for plan serialization: round trips of the decisions with every
 * derived fact recomputed on load, validation against the binding
 * chain, v1 compatibility, and rejection of malformed, truncated,
 * duplicated or retired-format documents — always as chimera::Error,
 * never as a raw std:: exception.
 */

#include <gtest/gtest.h>

#include "analysis/dependence.hpp"
#include "ir/builders.hpp"
#include "model/data_movement.hpp"
#include "plan/plan_io.hpp"
#include "support/error.hpp"

namespace chimera::plan {
namespace {

ir::Chain
chainUnderTest()
{
    ir::GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 64;
    cfg.n = 32;
    cfg.k = 16;
    cfg.l = 48;
    cfg.name = "io-test";
    return ir::makeGemmChain(cfg);
}

ExecutionPlan
planUnderTest(const ir::Chain &chain)
{
    PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    return planChain(chain, options);
}

/** Serialized document with the "tiles:" line's value replaced. */
std::string
documentWithTiles(const ir::Chain &chain, const std::string &tilesValue)
{
    std::string text = serializePlan(chain, planUnderTest(chain));
    const std::size_t pos = text.find("tiles:");
    const std::size_t eol = text.find('\n', pos);
    text.replace(pos, eol - pos, "tiles: " + tilesValue);
    return text;
}

TEST(PlanIo, RoundTripPreservesScheduleExactly)
{
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    const std::string text = serializePlan(chain, plan);
    const ExecutionPlan restored = deserializePlan(chain, text);
    EXPECT_EQ(restored.perm, plan.perm);
    EXPECT_EQ(restored.tiles, plan.tiles);
    EXPECT_DOUBLE_EQ(restored.predictedVolumeBytes,
                     plan.predictedVolumeBytes);
    EXPECT_EQ(restored.memUsageBytes, plan.memUsageBytes);
}

TEST(PlanIo, DocumentIsHumanReadable)
{
    const ir::Chain chain = chainUnderTest();
    const std::string text = serializePlan(chain, planUnderTest(chain));
    EXPECT_NE(text.find("chimera-plan v2"), std::string::npos);
    EXPECT_NE(text.find("order:"), std::string::npos);
    EXPECT_NE(text.find("tiles:"), std::string::npos);
    EXPECT_NE(text.find("io-test"), std::string::npos);
}

TEST(PlanIo, ReadsV1Documents)
{
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    // Rebuild the plan as a seed-era v1 document (no fingerprint key,
    // no volume/mem lines — both were always recomputed).
    std::string v1 = "chimera-plan v1\nchain: io-test\norder: " +
                     orderString(chain, plan.perm) + "\ntiles:";
    for (int a = 0; a < chain.numAxes(); ++a) {
        v1 += " " + chain.axes()[static_cast<std::size_t>(a)].name + "=" +
              std::to_string(plan.tiles[static_cast<std::size_t>(a)]);
    }
    v1 += "\n";
    const ExecutionPlan restored = deserializePlan(chain, v1);
    EXPECT_EQ(restored.perm, plan.perm);
    EXPECT_EQ(restored.tiles, plan.tiles);
    EXPECT_DOUBLE_EQ(restored.predictedVolumeBytes,
                     plan.predictedVolumeBytes);
}

TEST(PlanIo, FingerprintRoundTripAndMismatch)
{
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    const std::string text = serializePlan(chain, plan, "deadbeef01234567");
    EXPECT_NE(text.find("fingerprint: deadbeef01234567"),
              std::string::npos);
    // Matching expectation parses; a different or absent fingerprint
    // must throw so the cache replans instead of trusting the entry.
    EXPECT_NO_THROW(deserializePlan(chain, text, "deadbeef01234567"));
    EXPECT_THROW(deserializePlan(chain, text, "0000000000000000"), Error);
    const std::string noFp = serializePlan(chain, plan);
    EXPECT_THROW(deserializePlan(chain, noFp, "deadbeef01234567"), Error);
    // Without an expectation, any embedded fingerprint is accepted.
    EXPECT_NO_THROW(deserializePlan(chain, text));
}

TEST(PlanIo, StalePredictionsAreRecomputed)
{
    // The document stores no predictions, so none can go stale: the
    // loader derives them from the decisions, for a hand-written
    // document as much as for a planned one.
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    EXPECT_EQ(serializePlan(chain, plan).find("bytes"), std::string::npos);
    const ExecutionPlan restored =
        deserializePlan(chain, documentWithTiles(chain, "b=1 m=8 n=8 "
                                                        "k=8 l=8"));
    const model::DataMovement dm =
        model::computeDataMovement(chain, restored.perm, restored.tiles);
    EXPECT_DOUBLE_EQ(restored.predictedVolumeBytes, dm.volumeBytes);
    EXPECT_EQ(restored.memUsageBytes, dm.memUsageBytes);
    EXPECT_NE(restored.memUsageBytes, plan.memUsageBytes);
}

TEST(PlanIo, RejectsWrongHeader)
{
    const ir::Chain chain = chainUnderTest();
    EXPECT_THROW(deserializePlan(chain, "not-a-plan\norder: m"), Error);
    EXPECT_THROW(deserializePlan(chain, "chimera-plan v3\norder: m"),
                 Error);
    EXPECT_THROW(deserializePlan(chain, ""), Error);
}

TEST(PlanIo, RejectsTruncatedDocuments)
{
    const ir::Chain chain = chainUnderTest();
    // Header only, then order without tiles, then a cut-off tile token.
    EXPECT_THROW(deserializePlan(chain, "chimera-plan v2\n"), Error);
    EXPECT_THROW(deserializePlan(chain, "chimera-plan v2\norder: "
                                        "b,m,l,k,n\n"),
                 Error);
    EXPECT_THROW(
        deserializePlan(chain,
                        "chimera-plan v2\ntiles: b=1 m=8 n=8 k=8 l=8\n"),
        Error);
    EXPECT_THROW(deserializePlan(
                     chain, "chimera-plan v2\norder: b,m,l,k,n\ntiles: m="),
                 Error);
}

TEST(PlanIo, RejectsMalformedNumericsAsChimeraError)
{
    const ir::Chain chain = chainUnderTest();
    // Each of these once escaped as std::invalid_argument from stoll, or
    // was silently truncated ("m=64abc" -> 64). All must throw Error.
    EXPECT_THROW(deserializePlan(chain, documentWithTiles(chain, "m=")),
                 Error);
    EXPECT_THROW(deserializePlan(chain, documentWithTiles(chain, "m=x")),
                 Error);
    EXPECT_THROW(
        deserializePlan(chain, documentWithTiles(chain, "m=64abc")),
        Error);
    EXPECT_THROW(deserializePlan(
                     chain, documentWithTiles(
                                chain, "m=99999999999999999999999999")),
                 Error);

    const std::string text = serializePlan(chain, planUnderTest(chain));
    EXPECT_THROW(deserializePlan(chain, text + "threads: abc\n"), Error);
    EXPECT_THROW(deserializePlan(chain, text + "threads: 4abc\n"), Error);
}

TEST(PlanIo, MalformedNumericErrorsNameTheLine)
{
    const ir::Chain chain = chainUnderTest();
    try {
        deserializePlan(chain, documentWithTiles(chain, "m=64abc"));
        FAIL() << "expected chimera::Error";
    } catch (const Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line"), std::string::npos) << what;
        EXPECT_NE(what.find("64abc"), std::string::npos) << what;
    }
}

TEST(PlanIo, RejectsDuplicateTileTokens)
{
    const ir::Chain chain = chainUnderTest();
    EXPECT_THROW(deserializePlan(chain, documentWithTiles(
                                            chain, "b=1 m=8 m=8 n=8 "
                                                   "k=8 l=8")),
                 Error);
}

TEST(PlanIo, RejectsDuplicateKeys)
{
    const ir::Chain chain = chainUnderTest();
    std::string text = serializePlan(chain, planUnderTest(chain));
    text += "order: b,m,l,k,n\n";
    EXPECT_THROW(deserializePlan(chain, text), Error);
}

TEST(PlanIo, RejectsForeignAxes)
{
    const ir::Chain chain = chainUnderTest();
    EXPECT_THROW(deserializePlan(chain,
                                 "chimera-plan v2\norder: x,y\ntiles: "
                                 "x=1 y=1\n"),
                 Error);
    EXPECT_THROW(
        deserializePlan(chain, documentWithTiles(chain, "q=4")),
        Error);
}

TEST(PlanIo, RejectsOutOfRangeTiles)
{
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    std::string text = serializePlan(chain, plan);
    const std::size_t pos = text.find("m=");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 4, "m=9999");
    EXPECT_THROW(deserializePlan(chain, text), Error);
}

TEST(PlanIo, RejectsUnknownKeys)
{
    // The retired derived-fact lines are unknown keys too: a cache entry
    // written in the older format fails to load and gets replanned.
    const ir::Chain chain = chainUnderTest();
    const std::string text = serializePlan(chain, planUnderTest(chain));
    for (const char *line :
         {"mystery: 1",
          "concurrency: b=parallel m=parallel n=parallel k=reduction "
          "l=reduction",
          "safety: domain=concrete rules=sb01,sb02,sb03,sb04 "
          "digest=0123456789abcdef",
          "search: mode=symmetry enumerated=120 truncated=0 filtered=10 "
          "symmetry=100 dominance=0 beam=0 solved=10 gap=0 "
          "digest=0123456789abcdef",
          "volume-bytes: 6291456", "mem-bytes: 393216", "grain: m=2"}) {
        try {
            (void)deserializePlan(chain, text + line + "\n");
            ADD_FAILURE() << "accepted: " << line;
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find("unknown plan key"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(PlanIo, RejectsKeylessLines)
{
    const ir::Chain chain = chainUnderTest();
    std::string text = serializePlan(chain, planUnderTest(chain));
    text += "no colon here\n";
    EXPECT_THROW(deserializePlan(chain, text), Error);
}

TEST(PlanIo, ConcurrencyTableRoundTrips)
{
    // The table is derived, not stored: the loader recomputes the
    // planner's table from the document's tiles.
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    const std::string text = serializePlan(chain, plan);
    EXPECT_EQ(text.find("concurrency:"), std::string::npos);
    const ExecutionPlan restored = deserializePlan(chain, text);
    ASSERT_EQ(static_cast<int>(plan.concurrency.size()), chain.numAxes());
    EXPECT_EQ(restored.concurrency, plan.concurrency);
}

TEST(PlanIo, MissingConcurrencyFallsBackToFreshAnalysis)
{
    // A hand-written document gets the dependence analysis of its own
    // tiles (every v1 document and every cache entry loads this way).
    const ir::Chain chain = chainUnderTest();
    const std::vector<std::int64_t> tiles = {1, 8, 8, 8, 8};
    const ExecutionPlan restored = deserializePlan(
        chain, documentWithTiles(chain, "b=1 m=8 n=8 k=8 l=8"));
    ASSERT_EQ(restored.tiles, tiles);
    EXPECT_EQ(restored.concurrency,
              analysis::analyzeConcurrency(chain, tiles).kinds());
}

TEST(PlanIo, SerialPlanDocumentOmitsChunkingLines)
{
    // Backward compatibility: a serial plan's document must stay
    // byte-identical to the pre-thread-aware format.
    const ir::Chain chain = chainUnderTest();
    const std::string text = serializePlan(chain, planUnderTest(chain));
    EXPECT_EQ(text.find("threads:"), std::string::npos);
}

TEST(PlanIo, RoundTripPreservesChunking)
{
    const ir::Chain chain = chainUnderTest();
    ExecutionPlan plan = planUnderTest(chain);
    plan.plannedThreads = 8;

    const std::string text = serializePlan(chain, plan);
    EXPECT_NE(text.find("threads: 8"), std::string::npos);

    const ExecutionPlan restored = deserializePlan(chain, text);
    EXPECT_EQ(restored.plannedThreads, 8);
    EXPECT_EQ(restored.perm, plan.perm);
    EXPECT_EQ(restored.tiles, plan.tiles);
}

TEST(PlanIo, RejectsMalformedChunking)
{
    const ir::Chain chain = chainUnderTest();
    const ExecutionPlan plan = planUnderTest(chain);
    const std::string base = serializePlan(chain, plan);

    // Non-positive thread count.
    EXPECT_THROW(deserializePlan(chain, base + "threads: 0\n"), Error);
    EXPECT_THROW(deserializePlan(chain, base + "threads: -4\n"), Error);
}

} // namespace
} // namespace chimera::plan
