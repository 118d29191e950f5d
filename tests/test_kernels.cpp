/**
 * @file
 * Unit tests for the replaceable micro kernels: registry behaviour,
 * parameter selection (§V-B), packing, block matmul correctness for
 * every registered implementation, and the softmax exp row routine.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/block_matmul.hpp"
#include "kernels/exp_row.hpp"
#include "kernels/kernel_params.hpp"
#include "kernels/micro_kernel.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tensor/reference.hpp"
#include "tensor/tensor.hpp"

namespace chimera::kernels {
namespace {

TEST(KernelParams, CascadeLakeChoiceMatchesPaper)
{
    // 32 ZMM registers -> (MI, NI, MII) = (6, 4, 2), 30 registers used.
    const CpuKernelParams params = selectCpuKernelParams(32);
    EXPECT_EQ(params.mi, 6);
    EXPECT_EQ(params.ni, 4);
    EXPECT_EQ(params.mii, 2);
    EXPECT_EQ(params.registersUsed, 30);
    EXPECT_NEAR(params.arithmeticIntensity, 2.4, 1e-9);
}

TEST(KernelParams, Avx2Choice)
{
    // 16 YMM registers -> (6, 2, 2): the classic 6x16 fp32 AVX2 tile.
    const CpuKernelParams params = selectCpuKernelParams(16);
    EXPECT_EQ(params.mi, 6);
    EXPECT_EQ(params.ni, 2);
    EXPECT_EQ(params.mii, 2);
    EXPECT_LE(params.registersUsed, 16);
}

TEST(KernelParams, AiFormula)
{
    // AI = MI*NI*KI / (KI*(MI+NI) + 2*MI*NI).
    EXPECT_DOUBLE_EQ(kernelArithmeticIntensity(6, 4, 24),
                     6.0 * 4 * 24 / (24.0 * 10 + 2 * 24));
    EXPECT_THROW(kernelArithmeticIntensity(0, 4, 24), Error);
}

TEST(KernelParams, BudgetAlwaysRespected)
{
    for (int regs : {8, 12, 16, 24, 32, 64}) {
        const CpuKernelParams params = selectCpuKernelParams(regs);
        EXPECT_LE(params.registersUsed, regs) << "regs " << regs;
        EXPECT_EQ(params.mi % params.mii, 0);
        EXPECT_GE(params.mii, 2);
    }
}

TEST(Registry, ScalarAlwaysPresent)
{
    const MicroKernelRegistry &registry = MicroKernelRegistry::instance();
    const MicroKernel &scalar = registry.select(SimdTier::Scalar);
    EXPECT_EQ(scalar.tier, SimdTier::Scalar);
    EXPECT_EQ(scalar.mr, kScalarMr);
    EXPECT_EQ(scalar.nr, kScalarNr);
}

TEST(Registry, SelectPicksWidestAvailable)
{
    const MicroKernelRegistry &registry = MicroKernelRegistry::instance();
    const MicroKernel &best = registry.select(SimdTier::Avx512);
    // On this build host AVX-512 is compiled in.
    for (const MicroKernel &kernel : registry.kernels()) {
        EXPECT_LE(static_cast<int>(kernel.tier),
                  static_cast<int>(best.tier));
    }
}

TEST(Registry, ByNameLookup)
{
    const MicroKernelRegistry &registry = MicroKernelRegistry::instance();
    EXPECT_EQ(registry.byName("scalar_6x16").mr, 6);
    EXPECT_THROW(registry.byName("nope"), Error);
}

TEST(Registry, AddRejectsMalformed)
{
    MicroKernelRegistry registry;
    MicroKernel noRows = registry.byName("scalar_6x16");
    noRows.mr = 0;
    EXPECT_THROW(registry.add(noRows), Error);
    MicroKernel noStrided = registry.byName("scalar_6x16");
    noStrided.strided = nullptr;
    EXPECT_THROW(registry.add(noStrided), Error);
}

TEST(Packing, APanelTransposesAndPads)
{
    // A is 2 rows x 3 cols; pack into mr=4 panels of kc=3.
    const float a[6] = {1, 2, 3, 4, 5, 6};
    float dst[12];
    packAPanel(a, 3, 2, 3, 4, dst);
    // dst[k*mr + m] = a[m*lda + k]
    EXPECT_FLOAT_EQ(dst[0], 1.0f); // k0 m0
    EXPECT_FLOAT_EQ(dst[1], 4.0f); // k0 m1
    EXPECT_FLOAT_EQ(dst[2], 0.0f); // pad
    EXPECT_FLOAT_EQ(dst[4], 2.0f); // k1 m0
    EXPECT_FLOAT_EQ(dst[5], 5.0f); // k1 m1
    EXPECT_FLOAT_EQ(dst[8], 3.0f); // k2 m0
}

TEST(Packing, BPanelCopiesAndPads)
{
    const float b[6] = {1, 2, 3, 4, 5, 6}; // 2 rows x 3 cols, ldb=3
    float dst[8];
    packBPanel(b, 3, 2, 3, 4, dst);
    EXPECT_FLOAT_EQ(dst[0], 1.0f);
    EXPECT_FLOAT_EQ(dst[2], 3.0f);
    EXPECT_FLOAT_EQ(dst[3], 0.0f); // pad
    EXPECT_FLOAT_EQ(dst[4], 4.0f);
    EXPECT_FLOAT_EQ(dst[7], 0.0f);
}

/** Parameterized over every registered micro kernel. */
class MicroKernelCorrectness
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MicroKernelCorrectness, ExactTileMatchesReference)
{
    const MicroKernel &kernel =
        MicroKernelRegistry::instance().byName(GetParam());
    const int kc = 37;
    Tensor a({kernel.mr, kc});
    Tensor b({kc, kernel.nr});
    Tensor c({kernel.mr, kernel.nr});
    Tensor expected({kernel.mr, kernel.nr});
    Rng rng(99);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(c, rng);
    expected = c;

    // Reference: expected += a * b.
    Tensor prod({kernel.mr, kernel.nr});
    ref::gemm(a, b, prod);
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        expected[i] += prod[i];
    }

    std::vector<float> aPack(static_cast<std::size_t>(kc) *
                             static_cast<std::size_t>(kernel.mr));
    std::vector<float> bPack(static_cast<std::size_t>(kc) *
                             static_cast<std::size_t>(kernel.nr));
    packAPanel(a.data(), kc, kernel.mr, kc, kernel.mr, aPack.data());
    packBPanel(b.data(), kernel.nr, kc, kernel.nr, kernel.nr, bPack.data());
    kernel.fn(aPack.data(), bPack.data(), c.data(), kernel.nr, kc);

    EXPECT_TRUE(allClose(c, expected, 1e-4f, 1e-4f))
        << "kernel " << kernel.name
        << " maxdiff=" << maxAbsDiff(c, expected);
}

TEST_P(MicroKernelCorrectness, KcOneWorks)
{
    const MicroKernel &kernel =
        MicroKernelRegistry::instance().byName(GetParam());
    Tensor a({kernel.mr, 1});
    Tensor b({1, kernel.nr});
    Tensor c({kernel.mr, kernel.nr});
    fillPattern(a);
    fillPattern(b);
    c.zero();
    Tensor expected({kernel.mr, kernel.nr});
    ref::gemm(a, b, expected);

    std::vector<float> aPack(static_cast<std::size_t>(kernel.mr));
    std::vector<float> bPack(static_cast<std::size_t>(kernel.nr));
    packAPanel(a.data(), 1, kernel.mr, 1, kernel.mr, aPack.data());
    packBPanel(b.data(), kernel.nr, 1, kernel.nr, kernel.nr, bPack.data());
    kernel.fn(aPack.data(), bPack.data(), c.data(), kernel.nr, 1);
    EXPECT_TRUE(allClose(c, expected, 1e-5f, 1e-6f));
}

TEST_P(MicroKernelCorrectness, StridedEntryMatchesPackedEntry)
{
    // The same tile two ways: the strided entry on raw A rows (lda != kc)
    // and the packed entry on packAPanel output. Both must write the same
    // bits into a C with an odd row stride.
    const MicroKernel &kernel =
        MicroKernelRegistry::instance().byName(GetParam());
    const int kc = 37;
    const std::int64_t lda = kc + 5;
    const std::int64_t ldc = kernel.nr + 3;
    Rng rng(41);
    std::vector<float> a(static_cast<std::size_t>(kernel.mr * lda));
    std::vector<float> bPack(static_cast<std::size_t>(kc * kernel.nr));
    std::vector<float> cStrided(static_cast<std::size_t>(kernel.mr * ldc));
    for (std::vector<float> *buffer : {&a, &bPack, &cStrided}) {
        for (float &v : *buffer) {
            v = rng.uniform(-1.0f, 1.0f);
        }
    }
    std::vector<float> cPacked = cStrided;

    kernel.strided(a.data(), lda, 1, bPack.data(), cStrided.data(), ldc, kc);

    std::vector<float> aPack(static_cast<std::size_t>(kc * kernel.mr));
    packAPanel(a.data(), lda, kernel.mr, kc, kernel.mr, aPack.data());
    kernel.fn(aPack.data(), bPack.data(), cPacked.data(), ldc, kc);

    EXPECT_EQ(std::memcmp(cStrided.data(), cPacked.data(),
                          cStrided.size() * sizeof(float)),
              0)
        << "kernel " << kernel.name;
}

std::vector<std::string>
registeredKernelNames()
{
    std::vector<std::string> names;
    for (const MicroKernel &kernel :
         MicroKernelRegistry::instance().kernels()) {
        names.push_back(kernel.name);
    }
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, MicroKernelCorrectness,
                         ::testing::ValuesIn(registeredKernelNames()));

/** Block matmul across odd shapes, every kernel. */
class BlockMatmulCorrectness
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::tuple<int, int, int>>>
{
};

TEST_P(BlockMatmulCorrectness, MatchesReference)
{
    const MicroKernel &kernel = MicroKernelRegistry::instance().byName(
        std::get<0>(GetParam()));
    const auto [m, n, k] = std::get<1>(GetParam());

    Tensor a({m, k});
    Tensor b({k, n});
    Tensor c({m, n});
    Tensor expected({m, n});
    Rng rng(7);
    fillUniform(a, rng);
    fillUniform(b, rng);
    c.zero();
    ref::gemm(a, b, expected);

    Workspace workspace;
    blockMatmul(kernel, a.data(), k, b.data(), n, c.data(), n, m, n, k,
                workspace);
    EXPECT_TRUE(allClose(c, expected, 1e-4f, 1e-4f))
        << "kernel " << kernel.name << " shape " << m << "x" << n << "x"
        << k << " maxdiff " << maxAbsDiff(c, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockMatmulCorrectness,
    ::testing::Combine(::testing::ValuesIn(registeredKernelNames()),
                       ::testing::Values(std::make_tuple(1, 1, 1),
                                         std::make_tuple(6, 64, 16),
                                         std::make_tuple(7, 65, 3),
                                         std::make_tuple(13, 17, 19),
                                         std::make_tuple(48, 96, 32),
                                         std::make_tuple(5, 200, 1),
                                         std::make_tuple(64, 64, 64))));

TEST(BlockMatmul, AccumulatesIntoExistingC)
{
    const MicroKernel &kernel =
        MicroKernelRegistry::instance().select(detectSimdTier());
    Tensor a({8, 4});
    Tensor b({4, 8});
    Tensor c({8, 8});
    Rng rng(3);
    fillUniform(a, rng);
    fillUniform(b, rng);
    c.fill(2.0f);

    Tensor expected({8, 8});
    ref::gemm(a, b, expected);
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        expected[i] += 2.0f;
    }
    Workspace workspace;
    blockMatmul(kernel, a.data(), 4, b.data(), 8, c.data(), 8, 8, 8, 4,
                workspace);
    EXPECT_TRUE(allClose(c, expected, 1e-4f, 1e-4f));
}

TEST(BlockMatmul, StridedViews)
{
    // Operate on the top-left 5x6x7 sub-blocks of larger tensors.
    const MicroKernel &kernel =
        MicroKernelRegistry::instance().select(detectSimdTier());
    Tensor a({10, 20});
    Tensor b({20, 30});
    Tensor c({10, 30});
    Rng rng(5);
    fillUniform(a, rng);
    fillUniform(b, rng);
    c.zero();

    Workspace workspace;
    blockMatmul(kernel, a.data(), 20, b.data(), 30, c.data(), 30, 5, 6, 7,
                workspace);

    for (int i = 0; i < 5; ++i) {
        for (int j = 0; j < 6; ++j) {
            float acc = 0.0f;
            for (int p = 0; p < 7; ++p) {
                acc += a.at({i, p}) * b.at({p, j});
            }
            EXPECT_NEAR(c.at({i, j}), acc, 1e-4f);
        }
    }
    // Outside the sub-block C stays zero.
    EXPECT_FLOAT_EQ(c.at({6, 0}), 0.0f);
    EXPECT_FLOAT_EQ(c.at({0, 7}), 0.0f);
}

TEST(NaiveBlockMatmul, MatchesReference)
{
    Tensor a({9, 11});
    Tensor b({11, 13});
    Tensor c({9, 13});
    Tensor expected({9, 13});
    Rng rng(13);
    fillUniform(a, rng);
    fillUniform(b, rng);
    c.zero();
    ref::gemm(a, b, expected);
    naiveBlockMatmul(a.data(), 11, b.data(), 13, c.data(), 13, 9, 13, 11);
    EXPECT_TRUE(allClose(c, expected, 1e-4f, 1e-4f));
}

/** |got - exact| in units of the float ulp at @p exact (normal range). */
double
ulpError(float got, double exact)
{
    int exponent = 0;
    std::frexp(exact, &exponent);
    return std::fabs(static_cast<double>(got) - exact) /
           std::ldexp(1.0, exponent - 24);
}

std::uint32_t
bitsOf(float v)
{
    return std::bit_cast<std::uint32_t>(v);
}

TEST(ExpRowSum, WithinUlpBoundOfDoubleExp)
{
    constexpr std::int64_t kPoints = 1 << 20;
    std::vector<float> xs(static_cast<std::size_t>(kPoints));
    for (std::int64_t i = 0; i < kPoints; ++i) {
        xs[static_cast<std::size_t>(i)] =
            -80.0f + 160.0f * static_cast<float>(i) /
                         static_cast<float>(kPoints - 1);
    }
    std::vector<float> ys = xs;
    expRowSum(ys.data(), kPoints, 1.0f);
    double worst = 0.0;
    float worstX = 0.0f;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double err =
            ulpError(ys[i], std::exp(static_cast<double>(xs[i])));
        if (err > worst) {
            worst = err;
            worstX = xs[i];
        }
    }
    EXPECT_LE(worst, 1.25) << "worst at x = " << worstX;
}

TEST(ExpRowSum, RowsOfLength1To33)
{
    Rng rng(17);
    const float scale = 0.37f;
    for (int n = 1; n <= 33; ++n) {
        std::vector<float> row(static_cast<std::size_t>(n) + 3);
        for (float &v : row) {
            v = rng.uniform(-10.0f, 10.0f);
        }
        const std::vector<float> in = row;
        const float sum = expRowSum(row.data(), n, scale);
        double expectedSum = 0.0;
        for (int j = 0; j < n; ++j) {
            const double exact =
                std::exp(static_cast<double>(scale * in[j]));
            EXPECT_LE(ulpError(row[j], exact), 1.25) << "n " << n;
            expectedSum += row[j];
        }
        EXPECT_NEAR(sum, expectedSum, 1e-6 * expectedSum) << "n " << n;
        for (std::size_t j = static_cast<std::size_t>(n); j < row.size();
             ++j) {
            EXPECT_EQ(bitsOf(row[j]), bitsOf(in[j])) << "n " << n;
        }
    }
}

TEST(ExpRowSum, ValidPrefixOnly)
{
    // A prefix call writes the full-row call's bits on the prefix, sums
    // only the prefix, and leaves the rest of the row alone.
    constexpr int kLength = 40;
    Rng rng(23);
    std::vector<float> in(kLength);
    for (float &v : in) {
        v = rng.uniform(-6.0f, 6.0f);
    }
    std::vector<float> full = in;
    expRowSum(full.data(), kLength, 0.5f);
    for (int valid = 0; valid <= kLength; ++valid) {
        std::vector<float> row = in;
        const float sum = expRowSum(row.data(), valid, 0.5f);
        double expectedSum = 0.0;
        for (int j = 0; j < kLength; ++j) {
            const float want = j < valid ? full[static_cast<std::size_t>(j)]
                                         : in[static_cast<std::size_t>(j)];
            EXPECT_EQ(bitsOf(row[static_cast<std::size_t>(j)]),
                      bitsOf(want))
                << "valid " << valid << " j " << j;
            if (j < valid) {
                expectedSum += want;
            }
        }
        EXPECT_NEAR(sum, expectedSum, 1e-6 * expectedSum + 1e-30)
            << "valid " << valid;
    }
    EXPECT_EQ(expRowSum(nullptr, 0, 1.0f), 0.0f);
}

TEST(ExpRowSum, BitsIndependentOfOffsetAndAlignment)
{
    constexpr int kLength = 37; // two full 16-lane blocks and a tail
    Rng rng(29);
    std::vector<float> in(kLength);
    for (float &v : in) {
        v = rng.uniform(-20.0f, 20.0f);
    }
    std::vector<float> reference = in;
    const float referenceSum = expRowSum(reference.data(), kLength, 0.125f);
    std::vector<float> buffer(kLength + 64);
    for (int offset = 0; offset < 64; ++offset) {
        float *row = buffer.data() + offset;
        std::copy(in.begin(), in.end(), row);
        const float sum = expRowSum(row, kLength, 0.125f);
        EXPECT_EQ(bitsOf(sum), bitsOf(referenceSum)) << "offset " << offset;
        EXPECT_EQ(std::memcmp(row, reference.data(), kLength * sizeof(float)),
                  0)
            << "offset " << offset;
    }
    // One value at every position, full blocks and tail alike.
    std::vector<float> same(kLength, 1.7f);
    expRowSum(same.data(), kLength, 1.0f);
    for (float v : same) {
        EXPECT_EQ(bitsOf(v), bitsOf(same[0]));
    }
}

TEST(ExpRowSum, SpecialValuesFollowStdExp)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float maxFloat = std::numeric_limits<float>::max();
    const float lastFinite = 88.72283172607421875f;
    const std::vector<float> xs = {
        inf,        -inf,
        maxFloat,   -maxFloat,
        1e30f,      -1e30f,
        89.0f,      std::nextafter(lastFinite, inf),
        lastFinite, -104.0f,
        -200.0f,    0.0f,
        -0.0f,      1.0f};
    for (float x : xs) {
        float y = x;
        expRowSum(&y, 1, 1.0f);
        EXPECT_EQ(bitsOf(y), bitsOf(std::exp(x))) << "x = " << x;
    }
    std::vector<float> withNan = {0.0f, std::nanf(""), 1.0f};
    EXPECT_TRUE(std::isnan(expRowSum(withNan.data(), 3, 1.0f)));
    EXPECT_TRUE(std::isnan(withNan[1]));
    EXPECT_EQ(bitsOf(withNan[0]), bitsOf(1.0f));
    std::vector<float> withInf = {0.0f, inf};
    EXPECT_EQ(expRowSum(withInf.data(), 2, 1.0f), inf);
}

TEST(SoftmaxRows, MatchesReferenceAndMasksToZero)
{
    // The unfused proxy's row softmax: max subtraction, then expRowSum;
    // -inf entries (causal mask) come out exactly 0.
    Tensor t({5, 21});
    Rng rng(31);
    fillUniform(t, rng);
    for (std::int64_t r = 0; r < 5; ++r) {
        for (std::int64_t j = r + 10; j < 21; ++j) {
            t.at({r, j}) = -std::numeric_limits<float>::infinity();
        }
    }
    Tensor expected = t;
    ref::softmaxLastDim(expected);
    softmaxRows(t.data(), 5, 21);
    EXPECT_TRUE(allClose(t, expected, 1e-6f, 1e-6f))
        << "maxdiff " << maxAbsDiff(t, expected);
    for (std::int64_t r = 0; r < 5; ++r) {
        for (std::int64_t j = r + 10; j < 21; ++j) {
            EXPECT_EQ(t.at({r, j}), 0.0f);
        }
    }
}

} // namespace
} // namespace chimera::kernels
