#pragma once

/**
 * @file
 * Vectorized exponential over one softmax row.
 *
 * Once the compute-intensive GEMMs are fused, the softmax epilogue's
 * exp is the largest remaining cost of an attention-style chain
 * (FusionStitching's observation), so the fused executors and the
 * unfused proxy share one row routine here instead of calling std::exp
 * per element. It is portable C++ that GCC vectorizes at -O3: a
 * Cody-Waite range reduction, the Cephes expf polynomial, exponent-bit
 * scaling, and fixed 16-lane partial sums. The reference oracles
 * (tensor/reference) keep std::exp.
 */

#include <cstdint>

namespace chimera::kernels {

/**
 * Sets row[j] = exp(scale * row[j]) for j < @p valid and returns the sum
 * of the new values; row[valid..] is not touched.
 *
 * Accuracy is within 1.25 ulp of double-precision exp on [-80, 80].
 * Special values follow std::exp: +inf above the float overflow
 * threshold, 0 at and below -104, NaN for NaN. The output and sum bits
 * depend only on the row's values, @p valid and @p scale, never on the
 * row's address or alignment, so every worker's region buffer produces
 * the same bits.
 */
float expRowSum(float *row, std::int64_t valid, float scale);

/**
 * Row softmax over the last axis of a [rows x cols] buffer, exp through
 * expRowSum after subtracting each row's max: the unfused proxy's
 * softmax, so fused and unfused chains differ in fusion only.
 */
void softmaxRows(float *data, std::int64_t rows, std::int64_t cols);

} // namespace chimera::kernels
