#pragma once

/**
 * @file
 * Block-level matrix multiply built on the replaceable micro kernel:
 * packs B panels, reads A in place and walks MR x NR register tiles.
 * This is the computation performed inside one inter-block computation
 * block; the executors (src/exec) call it once per block in the planned
 * order.
 */

#include <cstdint>

#include "kernels/micro_kernel.hpp"
#include "support/aligned.hpp"

namespace chimera::kernels {

/** Reusable packing/scratch buffers; grows monotonically. */
class Workspace
{
  public:
    /** Returns a buffer of at least @p elems floats for a partial A panel. */
    float *ensureA(std::size_t elems);

    /** Returns a buffer of at least @p elems floats for packed B. */
    float *ensureB(std::size_t elems);

    /** Returns a zeroable scratch of at least @p elems floats. */
    float *ensureScratch(std::size_t elems);

  private:
    AlignedBuffer<float> a_;
    AlignedBuffer<float> b_;
    AlignedBuffer<float> scratch_;
    std::size_t aCap_ = 0;
    std::size_t bCap_ = 0;
    std::size_t scratchCap_ = 0;
};

/**
 * Packs one A panel: dst[k*mr + m] = a[m*lda + k], zero-padded when
 * @p rows < @p mr.
 */
void packAPanel(const float *a, std::int64_t lda, int rows, std::int64_t kc,
                int mr, float *dst);

/**
 * Packs one B panel: dst[k*nr + n] = b[k*ldb + n], zero-padded when
 * @p cols < @p nr.
 */
void packBPanel(const float *b, std::int64_t ldb, std::int64_t kc, int cols,
                int nr, float *dst);

/**
 * C[m x n] += A[m x k] * B[k x n] on strided buffers using @p kernel.
 * B is packed; A is read in place except a final partial row panel,
 * which is packed. Edge tiles are computed into a zeroed scratch and
 * accumulated back.
 */
void blockMatmul(const MicroKernel &kernel, const float *a, std::int64_t lda,
                 const float *b, std::int64_t ldb, float *c, std::int64_t ldc,
                 std::int64_t m, std::int64_t n, std::int64_t k,
                 Workspace &workspace);

/**
 * Reference block matmul without packing or SIMD: the ablation study's
 * "micro kernel disabled" configuration (Figure 10, version without M).
 */
void naiveBlockMatmul(const float *a, std::int64_t lda, const float *b,
                      std::int64_t ldb, float *c, std::int64_t ldc,
                      std::int64_t m, std::int64_t n, std::int64_t k);

} // namespace chimera::kernels
