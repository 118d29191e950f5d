#include "kernels/exp_row.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace chimera::kernels {

namespace {

/** Partial sums: element j always adds into lane j % kLanes. */
constexpr int kLanes = 16;

/**
 * |x| is clamped to 104 on its bit pattern: exp(104) overflows the float
 * range and exp(-104) is below half the smallest subnormal, so both ends
 * keep their std::exp value (+inf and 0). Integer compares, unlike float
 * ones under -ftrapping-math, leave the loop branch-free for GCC's
 * vectorizer on every x86-64 level.
 */
constexpr auto kClampBits = std::bit_cast<std::int32_t>(104.0f);
constexpr auto kInfBits =
    std::bit_cast<std::int32_t>(std::numeric_limits<float>::infinity());
constexpr std::uint32_t kSignBit = 0x80000000u;

constexpr float kLog2e = 1.44269504088896341f;

/** ln 2 split so that n * kLn2Hi is exact for |n| <= 150. */
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;

/** 1.5 * 2^23: adding it rounds |x| < 2^22 to an integer in place. */
constexpr float kRoundShifter = 12582912.0f;

/** The float 2^n for a normal exponent n, built in its exponent bits. */
inline float
pow2(std::int32_t n)
{
    return std::bit_cast<float>(static_cast<std::uint32_t>(n + 127) << 23);
}

/**
 * exp(x) in float arithmetic: x = n ln2 + r with |r| <= ln2 / 2, exp(r)
 * by the Cephes expf polynomial, then 2^n built in the exponent bits.
 * No float is ever converted to an integer, and the integer steps work
 * on bit patterns with defined wrap-around, so NaN and inf inputs cannot
 * reach undefined behaviour: a NaN skips the clamp and flows through the
 * polynomial into the result, while +-inf clamp to +-104.
 */
inline float
expApprox(float x)
{
    const auto bits = std::bit_cast<std::uint32_t>(x);
    const auto mag = static_cast<std::int32_t>(bits & ~kSignBit);
    const bool clamp = (mag > kClampBits) & (mag <= kInfBits);
    const float xc = std::bit_cast<float>(
        clamp ? (bits & kSignBit) | static_cast<std::uint32_t>(kClampBits)
              : bits);

    // n = round(xc * log2 e), read from the shifter sum's mantissa.
    const float shifted = xc * kLog2e + kRoundShifter;
    const float n = shifted - kRoundShifter;
    const auto ni = static_cast<std::int32_t>(
        std::bit_cast<std::uint32_t>(shifted) -
        std::bit_cast<std::uint32_t>(kRoundShifter));

    float r = xc - n * kLn2Hi;
    r = r - n * kLn2Lo;
    float p = 1.9875691500e-4f;
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    const float y = p * (r * r) + r + 1.0f;

    // 2^n as two normal factors (|n| <= 150): y * 2^n1 is exact, and the
    // second product rounds once, into the subnormals or to inf.
    const std::int32_t n1 = ni >> 1;
    return y * pow2(n1) * pow2(ni - n1);
}

/**
 * One block: block[l] = exp(scale * block[l]), and lanes[l] += block[l]
 * for l < count. Full blocks run it in place and the tail on a
 * zero-padded copy; either way an element's bits depend on its value
 * alone, never on its position or the row's alignment.
 */
inline void
expBlock(float *block, float scale, int count, float (&lanes)[kLanes])
{
    for (int l = 0; l < kLanes; ++l) {
        const float v = expApprox(scale * block[l]);
        block[l] = v;
        lanes[l] += l < count ? v : 0.0f;
    }
}

} // namespace

float
expRowSum(float *row, std::int64_t valid, float scale)
{
    float lanes[kLanes] = {};
    std::int64_t j = 0;
    for (; j + kLanes <= valid; j += kLanes) {
        expBlock(row + j, scale, kLanes, lanes);
    }
    if (j < valid) {
        const auto rest = static_cast<int>(valid - j);
        const std::size_t bytes = static_cast<std::size_t>(rest) *
                                  sizeof(float);
        float tail[kLanes] = {};
        std::memcpy(tail, row + j, bytes);
        expBlock(tail, scale, rest, lanes);
        std::memcpy(row + j, tail, bytes);
    }
    for (int width = kLanes / 2; width >= 1; width /= 2) {
        for (int l = 0; l < width; ++l) {
            lanes[l] += lanes[l + width];
        }
    }
    return lanes[0];
}

void
softmaxRows(float *data, std::int64_t rows, std::int64_t cols)
{
    for (std::int64_t r = 0; r < rows; ++r) {
        float *row = data + r * cols;
        const float maxVal = *std::max_element(row, row + cols);
        for (std::int64_t j = 0; j < cols; ++j) {
            row[j] -= maxVal;
        }
        const float inv = 1.0f / expRowSum(row, cols, 1.0f);
        for (std::int64_t j = 0; j < cols; ++j) {
            row[j] *= inv;
        }
    }
}

} // namespace chimera::kernels
