/**
 * @file
 * Unit tests for src/support: math utilities, RNG, aligned allocation,
 * error macros, tables, and string helpers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "support/aligned.hpp"
#include "support/cpu_features.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace chimera {
namespace {

TEST(MathUtil, CeilDivBasics)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(1, 1), 1);
    EXPECT_EQ(ceilDiv(0, 5), 0);
    EXPECT_EQ(ceilDiv(1000000007LL, 2), 500000004LL);
}

TEST(MathUtil, RoundUp)
{
    EXPECT_EQ(roundUp(7, 8), 8);
    EXPECT_EQ(roundUp(8, 8), 8);
    EXPECT_EQ(roundUp(9, 8), 16);
}

TEST(MathUtil, ClampI64)
{
    EXPECT_EQ(clampI64(5, 1, 10), 5);
    EXPECT_EQ(clampI64(-5, 1, 10), 1);
    EXPECT_EQ(clampI64(50, 1, 10), 10);
}

TEST(MathUtil, DivisorsOfTwelve)
{
    const std::vector<std::int64_t> expected = {1, 2, 3, 4, 6, 12};
    EXPECT_EQ(divisorsOf(12), expected);
}

TEST(MathUtil, DivisorsOfPrime)
{
    const std::vector<std::int64_t> expected = {1, 13};
    EXPECT_EQ(divisorsOf(13), expected);
}

TEST(MathUtil, DivisorsRejectsNonPositive)
{
    EXPECT_THROW(divisorsOf(0), Error);
    EXPECT_THROW(divisorsOf(-4), Error);
}

TEST(MathUtil, TileCandidatesSortedUniqueBounded)
{
    const auto cands = tileCandidates(48);
    EXPECT_FALSE(cands.empty());
    EXPECT_EQ(cands.front(), 1);
    EXPECT_EQ(cands.back(), 48);
    for (std::size_t i = 1; i < cands.size(); ++i) {
        EXPECT_LT(cands[i - 1], cands[i]);
        EXPECT_LE(cands[i], 48);
        EXPECT_GE(cands[i], 1);
    }
}

TEST(MathUtil, TileCandidatesContainDivisorsAndPowersOfTwo)
{
    const auto cands = tileCandidates(24);
    const std::set<std::int64_t> s(cands.begin(), cands.end());
    for (std::int64_t d : {1, 2, 3, 4, 6, 8, 12, 16, 24}) {
        EXPECT_TRUE(s.count(d)) << "missing candidate " << d;
    }
}

TEST(MathUtil, Factorial)
{
    EXPECT_EQ(factorial(0), 1);
    EXPECT_EQ(factorial(4), 24);
    EXPECT_EQ(factorial(6), 720);
    EXPECT_THROW(factorial(25), Error);
}

TEST(MathUtil, AllPermutationsCountsAndUniqueness)
{
    const auto perms = allPermutations(4);
    EXPECT_EQ(perms.size(), 24u);
    std::set<std::vector<int>> unique(perms.begin(), perms.end());
    EXPECT_EQ(unique.size(), 24u);
    for (const auto &p : perms) {
        std::set<int> axes(p.begin(), p.end());
        EXPECT_EQ(axes.size(), 4u);
    }
}

TEST(MathUtil, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geometricMean({8.0}), 8.0);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
    EXPECT_THROW(geometricMean({1.0, -2.0}), Error);
}

TEST(MathUtil, RSquaredPerfectFit)
{
    EXPECT_DOUBLE_EQ(rSquared({1, 2, 3}, {1, 2, 3}), 1.0);
}

TEST(MathUtil, RSquaredWorseThanMean)
{
    // Predicting far off yields a low (possibly negative) R^2.
    EXPECT_LT(rSquared({10, 20, 30}, {3, 2, 1}), 0.0);
}

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const float f = rng.uniform(-2.0f, 3.0f);
        EXPECT_GE(f, -2.0f);
        EXPECT_LT(f, 3.0f);
    }
}

TEST(Rng, BelowBound)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
}

TEST(Aligned, PointerAlignment)
{
    auto buf = allocateAligned<float>(33);
    ASSERT_NE(buf.get(), nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.get()) %
                  kBufferAlignment,
              0u);
}

TEST(Aligned, ZeroElementsStillValid)
{
    auto buf = allocateAligned<double>(0);
    EXPECT_NE(buf.get(), nullptr);
}

TEST(ErrorMacros, CheckThrowsWithContext)
{
    try {
        CHIMERA_CHECK(1 == 2, "one is not two");
        FAIL() << "expected Error";
    } catch (const Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("one is not two"), std::string::npos);
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
    }
}

TEST(ErrorMacros, CheckPassesSilently)
{
    EXPECT_NO_THROW(CHIMERA_CHECK(true, "never shown"));
}

TEST(CpuFeatures, TierIsConsistentWithLanes)
{
    const SimdTier tier = detectSimdTier();
    EXPECT_GE(simdLanes(tier), 1);
    EXPECT_FALSE(simdTierName(tier).empty());
    if (tier == SimdTier::Avx512) {
        EXPECT_EQ(simdLanes(tier), 16);
    }
}

TEST(Table, RendersAlignedColumns)
{
    AsciiTable table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22222"});
    const std::string out = table.render();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22222"), std::string::npos);
    // header + rule + 2 rows
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, RowArityChecked)
{
    AsciiTable table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), Error);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(AsciiTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(AsciiTable::num(2.0, 0), "2");
}

TEST(Str, JoinStrings)
{
    EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(joinStrings({}, ", "), "");
    EXPECT_EQ(joinStrings({"x"}, "-"), "x");
}

TEST(Str, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KiB");
    EXPECT_EQ(formatBytes(3.5 * 1024 * 1024), "3.50 MiB");
}

TEST(Str, FormatVector)
{
    EXPECT_EQ(formatVector({1, 2, 3}), "(1, 2, 3)");
    EXPECT_EQ(formatVector({}), "()");
}

TEST(Str, ParseIntStrictRejectsWhatAtoiAccepts)
{
    EXPECT_EQ(parseIntStrict("42", "test"), 42);
    EXPECT_EQ(parseIntStrict("-7", "test"), -7);
    // atoi reads each of these as a number instead of failing.
    for (const char *bad : {"", "abc", "8x", "2147483648", "-2147483649"}) {
        EXPECT_THROW((void)parseIntStrict(bad, "test"), Error) << bad;
    }
    EXPECT_EQ(parseInt64Strict("2147483648", "test"), 2147483648LL);
}

TEST(Timer, MeasuresElapsedTime)
{
    WallTimer t;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) {
        sink = sink + static_cast<double>(i);
    }
    EXPECT_GE(t.seconds(), 0.0);
    EXPECT_GE(t.microseconds(), t.seconds());
}

TEST(Timer, BestOfSecondsRunsAllRepeats)
{
    int calls = 0;
    const double best = bestOfSeconds([&] { ++calls; }, 3, 2);
    EXPECT_EQ(calls, 5);
    EXPECT_GE(best, 0.0);
}

} // namespace
} // namespace chimera
