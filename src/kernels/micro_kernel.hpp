#pragma once

/**
 * @file
 * Replaceable micro kernels (§V-A).
 *
 * A replaceable micro kernel is the abstraction of one computation
 * block's innermost matrix-multiply: semantically a naive loop nest
 *     C[m, n] += sum_k A[m, k] * B[k, n]
 * for an MR x NR register tile, with B packed and A read through
 * strides. Hardware-specific implementations (scalar, AVX2 FMA, AVX-512
 * per Algorithm 2) are *registered* under this abstraction and the
 * widest implementation supported by the running CPU is selected at
 * plan execution time — the CPU instance of the paper's per-backend
 * kernel substitution.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "support/cpu_features.hpp"

namespace chimera::kernels {

/**
 * Computes C[MR x NR] += A * Bpack over kc steps.
 *
 * @param a     A panel base; element (m, k) at a[m*rsA + k*csA]. A
 *              row-major block read in place has strides (lda, 1); a
 *              packAPanel panel has strides (1, MR).
 * @param rsA   Row stride of A in elements.
 * @param csA   Reduction-axis stride of A in elements.
 * @param bPack Packed B panel, layout bPack[k*NR + n].
 * @param c     Output tile base pointer; element (m, n) at c[m*ldc + n].
 * @param ldc   Row stride of C in elements.
 * @param kc    Reduction depth (KI in Algorithm 2), >= 1.
 */
using MicroKernelStridedFn = void (*)(const float *a, std::int64_t rsA,
                                      std::int64_t csA, const float *bPack,
                                      float *c, std::int64_t ldc, int kc);

/**
 * The packed entry: C[MR x NR] += Apack^T * Bpack with the A panel in
 * packAPanel layout aPack[k*MR + m].
 */
using MicroKernelFn = void (*)(const float *aPack, const float *bPack,
                               float *c, std::int64_t ldc, int kc);

/** One registered low-level implementation. */
struct MicroKernel
{
    std::string name;
    SimdTier tier = SimdTier::Scalar;

    /** Register tile rows (MI of Algorithm 2). */
    int mr = 0;

    /** Register tile columns in elements (NI * vector lanes). */
    int nr = 0;

    /** Packed entry: the strided body called with strides (1, mr). */
    MicroKernelFn fn = nullptr;

    /** Strided entry, the one body blockMatmul calls. */
    MicroKernelStridedFn strided = nullptr;
};

/**
 * Registry mapping the replaceable micro kernel to its registered
 * implementations, mirroring Figure 4's per-device registration.
 */
class MicroKernelRegistry
{
  public:
    /** The process-wide registry with all built-ins registered. */
    static const MicroKernelRegistry &instance();

    /** Registry with only built-ins up to the compiled ISA. */
    MicroKernelRegistry();

    /** Registers an additional implementation. */
    void add(const MicroKernel &kernel);

    /** All registered implementations. */
    const std::vector<MicroKernel> &kernels() const { return kernels_; }

    /**
     * Selects the widest implementation whose tier does not exceed
     * @p maxTier. The scalar kernel is always available.
     */
    const MicroKernel &select(SimdTier maxTier) const;

    /** Selects by exact name; throws Error when absent. */
    const MicroKernel &byName(const std::string &name) const;

  private:
    std::vector<MicroKernel> kernels_;
};

/** The portable reference implementation (also the high-level spec). */
void scalarMicroKernel(const float *a, std::int64_t rsA, std::int64_t csA,
                       const float *bPack, float *c, std::int64_t ldc,
                       int kc);

/** Scalar kernel register-tile shape. */
inline constexpr int kScalarMr = 6;
inline constexpr int kScalarNr = 16;

} // namespace chimera::kernels
