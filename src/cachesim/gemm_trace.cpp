#include "cachesim/gemm_trace.hpp"

#include <algorithm>

#include "exec/region_walk.hpp"
#include "ir/builders.hpp"
#include "support/mathutil.hpp"

namespace chimera::cachesim {

using exec::GemmTiles;
using ir::GemmChainConfig;

namespace {

constexpr std::int64_t kElem = 4; ///< fp32 bytes

/** Base addresses of the chain's tensors in the simulated space. */
struct AddressMap
{
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t cGlobal = 0;
    std::int64_t d = 0;
    std::int64_t e = 0;
    std::int64_t cScratch = 0;
};

AddressMap
layoutTensors(const GemmChainConfig &cfg)
{
    auto align = [](std::int64_t v) { return roundUp(v, 4096); };
    AddressMap map;
    std::int64_t cursor = 0;
    map.a = cursor;
    cursor = align(cursor + cfg.batch * cfg.m * cfg.k * kElem);
    map.b = cursor;
    cursor = align(cursor + cfg.batch * cfg.k * cfg.l * kElem);
    map.cGlobal = cursor;
    cursor = align(cursor + cfg.batch * cfg.m * cfg.l * kElem);
    map.d = cursor;
    cursor = align(cursor + cfg.batch * cfg.l * cfg.n * kElem);
    map.e = cursor;
    cursor = align(cursor + cfg.batch * cfg.m * cfg.n * kElem);
    map.cScratch = cursor;
    return map;
}

/** Touches a [rows x cols] sub-block of a row-major matrix. */
void
touchBlock(CacheHierarchy &caches, std::int64_t base, std::int64_t ld,
           std::int64_t row0, std::int64_t col0, std::int64_t rows,
           std::int64_t cols)
{
    for (std::int64_t r = 0; r < rows; ++r) {
        caches.access(base + ((row0 + r) * ld + col0) * kElem,
                      cols * kElem);
    }
}

} // namespace

TraceResult
collectTrace(const CacheHierarchy &caches)
{
    TraceResult result;
    for (int d = 0; d < caches.numLevels(); ++d) {
        result.trafficIntoLevelBytes.push_back(
            caches.trafficIntoLevelBytes(d));
        result.hitRates.push_back(caches.stats(d).hitRate());
    }
    result.dramBytes = caches.dramTrafficBytes();
    return result;
}

TraceResult
traceFusedGemmChain(const GemmChainConfig &config,
                    const plan::ExecutionPlan &plan,
                    const std::vector<CacheConfig> &levels,
                    const TraceOptions &options)
{
    const ir::Chain chain = ir::makeGemmChain(config);
    const exec::RegionWalk walk(chain, plan);
    CacheHierarchy caches(levels);
    const AddressMap map = layoutTensors(config);
    auto axis = [&](const char *name) { return ir::axisIdByName(chain, name); };
    const ir::AxisId bAx = config.batch > 1 ? axis("b") : -1;
    const ir::AxisId mAx = axis("m");
    const ir::AxisId lAx = axis("l");
    const std::int64_t tn = plan.tiles[static_cast<std::size_t>(axis("n"))];
    const std::int64_t tk = plan.tiles[static_cast<std::size_t>(axis("k"))];
    const std::int64_t bigM = config.m;
    const std::int64_t bigN = config.n;
    const std::int64_t bigK = config.k;
    const std::int64_t bigL = config.l;

    // The executor's region walk, serially; per region, the touches of
    // the fused body's block calls.
    walk.forEachRegion([&](const exec::Region &r) {
        const std::int64_t b0 = r.start(bAx), bb = r.size(bAx);
        const std::int64_t m0 = r.start(mAx), mm = r.size(mAx);
        const std::int64_t l0 = r.start(lAx), ll = r.size(lAx);
        auto touchC = [&](std::int64_t bi) {
            if (options.reuseIntermediate) {
                touchBlock(caches, map.cScratch, ll, bi * mm, 0, mm, ll);
            } else {
                touchBlock(caches, map.cGlobal, bigL,
                           (b0 + bi) * bigM + m0, l0, mm, ll);
            }
        };
        for (std::int64_t k0 = 0; k0 < bigK; k0 += tk) {
            const std::int64_t kk = std::min<std::int64_t>(tk, bigK - k0);
            for (std::int64_t bi = 0; bi < bb; ++bi) {
                touchBlock(caches, map.a, bigK, (b0 + bi) * bigM + m0, k0,
                           mm, kk);
                touchBlock(caches, map.b, bigL, (b0 + bi) * bigK + k0, l0,
                           kk, ll);
                touchC(bi);
            }
        }
        for (std::int64_t n0 = 0; n0 < bigN; n0 += tn) {
            const std::int64_t nn = std::min<std::int64_t>(tn, bigN - n0);
            for (std::int64_t bi = 0; bi < bb; ++bi) {
                touchC(bi);
                touchBlock(caches, map.d, bigN, (b0 + bi) * bigL + l0, n0,
                           ll, nn);
                touchBlock(caches, map.e, bigN, (b0 + bi) * bigM + m0, n0,
                           mm, nn);
            }
        }
    });
    return collectTrace(caches);
}

TraceResult
traceUnfusedGemmChain(const GemmChainConfig &config, const GemmTiles &tiles1,
                      const GemmTiles &tiles2,
                      const std::vector<CacheConfig> &levels)
{
    CacheHierarchy caches(levels);
    const AddressMap map = layoutTensors(config);

    // GEMM1: C = A x B over the full tensors, m-k-n(l) blocking as in
    // runTiledBatchGemm.
    auto traceGemm = [&](std::int64_t aBase, std::int64_t bBase,
                         std::int64_t cBase, std::int64_t m, std::int64_t n,
                         std::int64_t k, const GemmTiles &tiles) {
        for (std::int64_t bi = 0; bi < config.batch; ++bi) {
            for (std::int64_t m0 = 0; m0 < m; m0 += tiles.tm) {
                const std::int64_t mm =
                    std::min<std::int64_t>(tiles.tm, m - m0);
                for (std::int64_t k0 = 0; k0 < k; k0 += tiles.tk) {
                    const std::int64_t kk =
                        std::min<std::int64_t>(tiles.tk, k - k0);
                    for (std::int64_t n0 = 0; n0 < n; n0 += tiles.tn) {
                        const std::int64_t nn =
                            std::min<std::int64_t>(tiles.tn, n - n0);
                        touchBlock(caches, aBase, k, bi * m + m0, k0, mm,
                                   kk);
                        touchBlock(caches, bBase, n, bi * k + k0, n0, kk,
                                   nn);
                        touchBlock(caches, cBase, n, bi * m + m0, n0, mm,
                                   nn);
                    }
                }
            }
        }
    };

    traceGemm(map.a, map.b, map.cGlobal, config.m, config.l, config.k,
              tiles1);
    traceGemm(map.cGlobal, map.d, map.e, config.m, config.n, config.l,
              tiles2);
    return collectTrace(caches);
}

} // namespace chimera::cachesim
