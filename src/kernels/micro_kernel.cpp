#include "kernels/micro_kernel.hpp"

#include <algorithm>

#include "support/error.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace chimera::kernels {

void
scalarMicroKernel(const float *a, std::int64_t rsA, std::int64_t csA,
                  const float *bPack, float *c, std::int64_t ldc, int kc)
{
    float acc[kScalarMr][kScalarNr];
    for (int m = 0; m < kScalarMr; ++m) {
        for (int n = 0; n < kScalarNr; ++n) {
            acc[m][n] = c[m * ldc + n];
        }
    }
    for (int k = 0; k < kc; ++k) {
        const float *ak = a + static_cast<std::int64_t>(k) * csA;
        const float *b = bPack + static_cast<std::int64_t>(k) * kScalarNr;
        for (int m = 0; m < kScalarMr; ++m) {
            const float am = ak[m * rsA];
            for (int n = 0; n < kScalarNr; ++n) {
                acc[m][n] += am * b[n];
            }
        }
    }
    for (int m = 0; m < kScalarMr; ++m) {
        for (int n = 0; n < kScalarNr; ++n) {
            c[m * ldc + n] = acc[m][n];
        }
    }
}

#if defined(__AVX2__)

namespace {

/**
 * AVX2 FMA kernel: MI=6, NI=2 x 8 lanes (the (6,2,2) solution of §V-B's
 * optimization for 16 YMM registers). Structure follows Algorithm 2:
 * load B vectors, broadcast A in MII groups, emit the FMA block.
 */
void
avx2MicroKernel(const float *a, std::int64_t rsA, std::int64_t csA,
                const float *bPack, float *c, std::int64_t ldc, int kc)
{
    constexpr int kMr = 6;
    constexpr int kNr = 16;
    __m256 acc[kMr][2];
    for (int m = 0; m < kMr; ++m) {
        acc[m][0] = _mm256_loadu_ps(c + m * ldc);
        acc[m][1] = _mm256_loadu_ps(c + m * ldc + 8);
    }
    for (int k = 0; k < kc; ++k) {
        const float *ak = a + static_cast<std::int64_t>(k) * csA;
        const float *b = bPack + static_cast<std::int64_t>(k) * kNr;
        const __m256 b0 = _mm256_loadu_ps(b);
        const __m256 b1 = _mm256_loadu_ps(b + 8);
        for (int mo = 0; mo < kMr; mo += 2) {
            const __m256 a0 = _mm256_broadcast_ss(ak + mo * rsA);
            const __m256 a1 = _mm256_broadcast_ss(ak + (mo + 1) * rsA);
            acc[mo][0] = _mm256_fmadd_ps(a0, b0, acc[mo][0]);
            acc[mo][1] = _mm256_fmadd_ps(a0, b1, acc[mo][1]);
            acc[mo + 1][0] = _mm256_fmadd_ps(a1, b0, acc[mo + 1][0]);
            acc[mo + 1][1] = _mm256_fmadd_ps(a1, b1, acc[mo + 1][1]);
        }
    }
    for (int m = 0; m < kMr; ++m) {
        _mm256_storeu_ps(c + m * ldc, acc[m][0]);
        _mm256_storeu_ps(c + m * ldc + 8, acc[m][1]);
    }
}

} // namespace

#endif // __AVX2__

#if defined(__AVX512F__)

namespace {

/**
 * AVX-512 kernel per Algorithm 2 with the paper's CascadeLake choice
 * (MI, NI, MII) = (6, 4, 2): 24 ZMM accumulators, 4 B vectors, 2
 * in-flight A broadcasts — 30 of 32 registers.
 */
void
avx512MicroKernel(const float *a, std::int64_t rsA, std::int64_t csA,
                  const float *bPack, float *c, std::int64_t ldc, int kc)
{
    constexpr int kMi = 6;
    constexpr int kNi = 4;
    constexpr int kMii = 2;
    constexpr int kNr = kNi * 16;
    __m512 acc[kMi][kNi];
    for (int m = 0; m < kMi; ++m) {
        for (int n = 0; n < kNi; ++n) {
            acc[m][n] = _mm512_loadu_ps(c + m * ldc + n * 16);
        }
    }
    for (int k = 0; k < kc; ++k) {
        const float *ak = a + static_cast<std::int64_t>(k) * csA;
        const float *b = bPack + static_cast<std::int64_t>(k) * kNr;
        __m512 bv[kNi];
        for (int n = 0; n < kNi; ++n) {
            bv[n] = _mm512_loadu_ps(b + n * 16);
        }
        for (int mo = 0; mo < kMi; mo += kMii) {
            const __m512 a0 = _mm512_set1_ps(ak[mo * rsA]);
            const __m512 a1 = _mm512_set1_ps(ak[(mo + 1) * rsA]);
            for (int n = 0; n < kNi; ++n) {
                acc[mo][n] = _mm512_fmadd_ps(a0, bv[n], acc[mo][n]);
            }
            for (int n = 0; n < kNi; ++n) {
                acc[mo + 1][n] = _mm512_fmadd_ps(a1, bv[n], acc[mo + 1][n]);
            }
        }
    }
    for (int m = 0; m < kMi; ++m) {
        for (int n = 0; n < kNi; ++n) {
            _mm512_storeu_ps(c + m * ldc + n * 16, acc[m][n]);
        }
    }
}

/**
 * Alternative AVX-512 register tile (MI, NI, MII) = (12, 2, 2): 24
 * accumulators over a taller, narrower tile (28 of 32 registers,
 * asymptotic AI 24/14 = 1.71 vs 2.4 for 6x4). Registered alongside the
 * default to exercise the paper's premise that multiple low-level
 * implementations coexist under one replaceable micro kernel; benches
 * can pin it by name to study the tile-shape trade-off.
 */
void
avx512TallMicroKernel(const float *a, std::int64_t rsA, std::int64_t csA,
                      const float *bPack, float *c, std::int64_t ldc,
                      int kc)
{
    constexpr int kMi = 12;
    constexpr int kNi = 2;
    constexpr int kNr = kNi * 16;
    __m512 acc[kMi][kNi];
    for (int m = 0; m < kMi; ++m) {
        for (int n = 0; n < kNi; ++n) {
            acc[m][n] = _mm512_loadu_ps(c + m * ldc + n * 16);
        }
    }
    for (int k = 0; k < kc; ++k) {
        const float *ak = a + static_cast<std::int64_t>(k) * csA;
        const float *b = bPack + static_cast<std::int64_t>(k) * kNr;
        const __m512 b0 = _mm512_loadu_ps(b);
        const __m512 b1 = _mm512_loadu_ps(b + 16);
        for (int mo = 0; mo < kMi; mo += 2) {
            const __m512 a0 = _mm512_set1_ps(ak[mo * rsA]);
            const __m512 a1 = _mm512_set1_ps(ak[(mo + 1) * rsA]);
            acc[mo][0] = _mm512_fmadd_ps(a0, b0, acc[mo][0]);
            acc[mo][1] = _mm512_fmadd_ps(a0, b1, acc[mo][1]);
            acc[mo + 1][0] = _mm512_fmadd_ps(a1, b0, acc[mo + 1][0]);
            acc[mo + 1][1] = _mm512_fmadd_ps(a1, b1, acc[mo + 1][1]);
        }
    }
    for (int m = 0; m < kMi; ++m) {
        for (int n = 0; n < kNi; ++n) {
            _mm512_storeu_ps(c + m * ldc + n * 16, acc[m][n]);
        }
    }
}

} // namespace

#endif // __AVX512F__

namespace {

/** The packed entry of strided kernel @p Strided: A strides (1, Mr). */
template <MicroKernelStridedFn Strided, int Mr>
void
packedEntry(const float *aPack, const float *bPack, float *c,
            std::int64_t ldc, int kc)
{
    Strided(aPack, 1, Mr, bPack, c, ldc, kc);
}

/** Registration record of strided kernel @p Strided and its packed entry. */
template <MicroKernelStridedFn Strided, int Mr, int Nr>
MicroKernel
registration(const char *name, SimdTier tier)
{
    return MicroKernel{name, tier, Mr, Nr, &packedEntry<Strided, Mr>,
                       Strided};
}

} // namespace

MicroKernelRegistry::MicroKernelRegistry()
{
    add(registration<&scalarMicroKernel, kScalarMr, kScalarNr>(
        "scalar_6x16", SimdTier::Scalar));
#if defined(__AVX2__)
    add(registration<&avx2MicroKernel, 6, 16>("avx2_6x16",
                                              SimdTier::Avx2Fma));
#endif
#if defined(__AVX512F__)
    add(registration<&avx512MicroKernel, 6, 64>("avx512_6x64",
                                                SimdTier::Avx512));
    add(registration<&avx512TallMicroKernel, 12, 32>("avx512_12x32",
                                                     SimdTier::Avx512));
#endif
}

const MicroKernelRegistry &
MicroKernelRegistry::instance()
{
    static const MicroKernelRegistry registry;
    return registry;
}

void
MicroKernelRegistry::add(const MicroKernel &kernel)
{
    CHIMERA_CHECK(kernel.fn != nullptr && kernel.strided != nullptr &&
                      kernel.mr > 0 && kernel.nr > 0,
                  "malformed micro kernel registration");
    kernels_.push_back(kernel);
}

const MicroKernel &
MicroKernelRegistry::select(SimdTier maxTier) const
{
    const MicroKernel *best = nullptr;
    for (const MicroKernel &kernel : kernels_) {
        if (static_cast<int>(kernel.tier) > static_cast<int>(maxTier)) {
            continue;
        }
        if (best == nullptr ||
            static_cast<int>(kernel.tier) > static_cast<int>(best->tier)) {
            best = &kernel;
        }
    }
    CHIMERA_ASSERT(best != nullptr, "scalar kernel must always register");
    return *best;
}

const MicroKernel &
MicroKernelRegistry::byName(const std::string &name) const
{
    for (const MicroKernel &kernel : kernels_) {
        if (kernel.name == name) {
            return kernel;
        }
    }
    throw Error("unknown micro kernel: " + name);
}

} // namespace chimera::kernels
