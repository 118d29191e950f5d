#include "kernels/block_matmul.hpp"

#include <algorithm>
#include <cstring>

#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace chimera::kernels {

namespace {

float *
ensureCapacity(AlignedBuffer<float> &buffer, std::size_t &capacity,
               std::size_t elems)
{
    if (elems > capacity) {
        buffer = allocateAligned<float>(elems);
        capacity = elems;
    }
    return buffer.get();
}

} // namespace

float *
Workspace::ensureA(std::size_t elems)
{
    return ensureCapacity(a_, aCap_, elems);
}

float *
Workspace::ensureB(std::size_t elems)
{
    return ensureCapacity(b_, bCap_, elems);
}

float *
Workspace::ensureScratch(std::size_t elems)
{
    return ensureCapacity(scratch_, scratchCap_, elems);
}

void
packAPanel(const float *a, std::int64_t lda, int rows, std::int64_t kc,
           int mr, float *dst)
{
    CHIMERA_ASSERT(rows >= 1 && rows <= mr, "bad A panel rows");
    for (std::int64_t k = 0; k < kc; ++k) {
        float *out = dst + k * mr;
        for (int m = 0; m < rows; ++m) {
            out[m] = a[static_cast<std::int64_t>(m) * lda + k];
        }
        for (int m = rows; m < mr; ++m) {
            out[m] = 0.0f;
        }
    }
}

void
packBPanel(const float *b, std::int64_t ldb, std::int64_t kc, int cols,
           int nr, float *dst)
{
    CHIMERA_ASSERT(cols >= 1 && cols <= nr, "bad B panel cols");
    for (std::int64_t k = 0; k < kc; ++k) {
        float *out = dst + k * nr;
        const float *src = b + k * ldb;
        std::memcpy(out, src, static_cast<std::size_t>(cols) *
                                  sizeof(float));
        for (int n = cols; n < nr; ++n) {
            out[n] = 0.0f;
        }
    }
}

void
blockMatmul(const MicroKernel &kernel, const float *a, std::int64_t lda,
            const float *b, std::int64_t ldb, float *c, std::int64_t ldc,
            std::int64_t m, std::int64_t n, std::int64_t k,
            Workspace &workspace)
{
    CHIMERA_ASSERT(m >= 1 && n >= 1 && k >= 1, "empty block");
    const int mr = kernel.mr;
    const int nr = kernel.nr;
    const std::int64_t mPanels = ceilDiv(m, mr);
    const std::int64_t nPanels = ceilDiv(n, nr);

    // Pack all B panels once: bPack[panel][k][nr]. Every A row panel
    // reuses them, and read in place at a large ldb (G2's is 512 floats)
    // a panel's k rows would fold onto a handful of L1 sets.
    const std::size_t bPanelElems =
        static_cast<std::size_t>(k) * static_cast<std::size_t>(nr);
    float *bPack = workspace.ensureB(bPanelElems *
                                     static_cast<std::size_t>(nPanels));
    for (std::int64_t np = 0; np < nPanels; ++np) {
        const std::int64_t col0 = np * nr;
        const int cols = static_cast<int>(std::min<std::int64_t>(
            nr, n - col0));
        packBPanel(b + col0, ldb, k, cols, nr,
                   bPack + static_cast<std::size_t>(np) * bPanelElems);
    }

    float *scratch = workspace.ensureScratch(
        static_cast<std::size_t>(mr) * static_cast<std::size_t>(nr));

    for (std::int64_t mp = 0; mp < mPanels; ++mp) {
        const std::int64_t row0 = mp * mr;
        const int rows = static_cast<int>(std::min<std::int64_t>(
            mr, m - row0));
        // A is read in place through (lda, 1); only a final partial row
        // panel is packed, zero-padded to mr rows, so the kernel never
        // reads past the block. The FMA operands and their order are the
        // same either way.
        const float *aPanel = a + row0 * lda;
        std::int64_t rsA = lda;
        std::int64_t csA = 1;
        if (rows < mr) {
            float *aPack = workspace.ensureA(static_cast<std::size_t>(k) *
                                             static_cast<std::size_t>(mr));
            packAPanel(aPanel, lda, rows, k, mr, aPack);
            aPanel = aPack;
            rsA = 1;
            csA = mr;
        }
        for (std::int64_t np = 0; np < nPanels; ++np) {
            const std::int64_t col0 = np * nr;
            const int cols = static_cast<int>(std::min<std::int64_t>(
                nr, n - col0));
            float *cTile = c + row0 * ldc + col0;
            const float *bPanel =
                bPack + static_cast<std::size_t>(np) * bPanelElems;
            // Edge tiles accumulate into a zeroed scratch tile first.
            const bool edge = rows < mr || cols < nr;
            if (edge) {
                std::memset(scratch, 0,
                            static_cast<std::size_t>(mr) *
                                static_cast<std::size_t>(nr) *
                                sizeof(float));
            }
            kernel.strided(aPanel, rsA, csA, bPanel, edge ? scratch : cTile,
                           edge ? nr : ldc, static_cast<int>(k));
            if (edge) {
                for (int r = 0; r < rows; ++r) {
                    const float *src = scratch + r * nr;
                    float *dst = cTile + static_cast<std::int64_t>(r) * ldc;
                    for (int col = 0; col < cols; ++col) {
                        dst[col] += src[col];
                    }
                }
            }
        }
    }
}

void
naiveBlockMatmul(const float *a, std::int64_t lda, const float *b,
                 std::int64_t ldb, float *c, std::int64_t ldc,
                 std::int64_t m, std::int64_t n, std::int64_t k)
{
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t p = 0; p < k; ++p) {
            const float av = a[i * lda + p];
            const float *brow = b + p * ldb;
            float *crow = c + i * ldc;
            for (std::int64_t j = 0; j < n; ++j) {
                crow[j] += av * brow[j];
            }
        }
    }
}

} // namespace chimera::kernels
