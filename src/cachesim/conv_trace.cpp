#include "cachesim/conv_trace.hpp"

#include <algorithm>

#include "exec/region_walk.hpp"
#include "support/mathutil.hpp"
#include "tensor/reference.hpp"

namespace chimera::cachesim {

using ir::ConvChainConfig;

namespace {

constexpr std::int64_t kElem = 4;

/** Simulated base addresses for the chain's tensors. */
struct ConvAddressMap
{
    std::int64_t input = 0;
    std::int64_t w1 = 0;
    std::int64_t tGlobal = 0;
    std::int64_t w2 = 0;
    std::int64_t output = 0;
    std::int64_t tScratch = 0;
};

ConvAddressMap
layout(const ConvChainConfig &cfg)
{
    auto align = [](std::int64_t v) { return roundUp(v, 4096); };
    ConvAddressMap map;
    std::int64_t cursor = 0;
    map.input = cursor;
    cursor = align(cursor + cfg.batch * cfg.ic * cfg.h * cfg.w * kElem);
    map.w1 = cursor;
    cursor = align(cursor + cfg.oc1 * cfg.ic * cfg.k1 * cfg.k1 * kElem);
    map.tGlobal = cursor;
    cursor = align(cursor + cfg.batch * cfg.oc1 * cfg.oh1() * cfg.ow1() *
                                kElem);
    map.w2 = cursor;
    cursor = align(cursor + cfg.oc2 * cfg.oc1 * cfg.k2 * cfg.k2 * kElem);
    map.output = cursor;
    cursor = align(cursor + cfg.batch * cfg.oc2 * cfg.oh2() * cfg.ow2() *
                                kElem);
    map.tScratch = cursor;
    return map;
}

/** Touches the input rows feeding mid rows [trLo, trHi) x [tcLo, tcHi). */
void
touchInputRegion(CacheHierarchy &caches, const ConvChainConfig &cfg,
                 std::int64_t inputBase, std::int64_t batchIdx,
                 std::int64_t icLo, std::int64_t icCnt, std::int64_t trLo,
                 std::int64_t trHi, std::int64_t tcLo, std::int64_t tcHi)
{
    const int pad1 = cfg.effectivePad1();
    const std::int64_t rowLo =
        clampI64(trLo * cfg.stride1 - pad1, 0, cfg.h);
    const std::int64_t rowHi = clampI64(
        (trHi - 1) * cfg.stride1 + cfg.k1 - pad1, 0, cfg.h);
    const std::int64_t colLo =
        clampI64(tcLo * cfg.stride1 - pad1, 0, cfg.w);
    const std::int64_t colHi = clampI64(
        (tcHi - 1) * cfg.stride1 + cfg.k1 - pad1, 0, cfg.w);
    if (rowHi <= rowLo || colHi <= colLo) {
        return;
    }
    for (std::int64_t ic = icLo; ic < icLo + icCnt; ++ic) {
        for (std::int64_t row = rowLo; row < rowHi; ++row) {
            caches.access(inputBase +
                              (((batchIdx * cfg.ic + ic) * cfg.h + row) *
                                   cfg.w +
                               colLo) *
                                  kElem,
                          (colHi - colLo) * kElem);
        }
    }
}

} // namespace

TraceResult
traceFusedConvChain(const ConvChainConfig &config,
                    const plan::ExecutionPlan &plan,
                    const std::vector<CacheConfig> &levels)
{
    const ir::Chain chain = ir::makeConvChain(config);
    const exec::RegionWalk walk(chain, plan);
    CacheHierarchy caches(levels);
    const ConvAddressMap map = layout(config);
    auto axis = [&](const char *name) { return ir::axisIdByName(chain, name); };
    const ir::AxisId bAx = config.batch > 1 ? axis("b") : -1;
    const ir::AxisId oc1Ax = axis("oc1");
    const ir::AxisId ohAx = axis("oh");
    const ir::AxisId owAx = axis("ow");
    const std::int64_t toc2 =
        plan.tiles[static_cast<std::size_t>(axis("oc2"))];
    const std::int64_t tic = plan.tiles[static_cast<std::size_t>(axis("ic"))];
    const std::int64_t w1Ld = config.ic * config.k1 * config.k1;
    const std::int64_t w2Ld = config.oc1 * config.k2 * config.k2;
    const int st2 = config.stride2;
    const int k2 = config.k2;
    const int pad2 = config.effectivePad2();

    // The executor's region walk, serially; per region, the IO slabs
    // the fused body reads and writes.
    walk.forEachRegion([&](const exec::Region &r) {
        const std::int64_t b0 = r.start(bAx), bb = r.size(bAx);
        const std::int64_t c0 = r.start(oc1Ax), cc = r.size(oc1Ax);
        const std::int64_t h0 = r.start(ohAx), hh = r.size(ohAx);
        const std::int64_t w0 = r.start(owAx), ww = r.size(owAx);

        const std::int64_t midH = st2 * (hh - 1) + k2;
        const std::int64_t midW = st2 * (ww - 1) + k2;
        const std::int64_t trLo = h0 * st2 - pad2;
        const std::int64_t tcLo = w0 * st2 - pad2;
        const std::int64_t trLoV = std::max<std::int64_t>(0, trLo);
        const std::int64_t trHiV =
            std::min<std::int64_t>(config.oh1(), trLo + midH);
        const std::int64_t tcLoV = std::max<std::int64_t>(0, tcLo);
        const std::int64_t tcHiV =
            std::min<std::int64_t>(config.ow1(), tcLo + midW);

        // conv1 inputs: I slab per ic block + W1 slice.
        for (std::int64_t bi = 0; bi < bb; ++bi) {
            for (std::int64_t ic0 = 0; ic0 < config.ic; ic0 += tic) {
                const std::int64_t icc =
                    std::min<std::int64_t>(tic, config.ic - ic0);
                touchInputRegion(caches, config, map.input, b0 + bi, ic0,
                                 icc, trLoV, trHiV, tcLoV, tcHiV);
                for (std::int64_t oc = 0; oc < cc; ++oc) {
                    caches.access(map.w1 +
                                      ((c0 + oc) * w1Ld +
                                       ic0 * config.k1 * config.k1) *
                                          kElem,
                                  icc * config.k1 * config.k1 * kElem);
                }
            }
            // Intermediate region: on-chip scratch (reused addresses).
            for (std::int64_t i = 0; i < cc * midH; ++i) {
                caches.access(map.tScratch + i * midW * kElem,
                              midW * kElem);
            }
        }

        // conv2: region re-read + W2 slices + output rows (RMW).
        for (std::int64_t bi = 0; bi < bb; ++bi) {
            for (std::int64_t oc0 = 0; oc0 < config.oc2; oc0 += toc2) {
                const std::int64_t occ =
                    std::min<std::int64_t>(toc2, config.oc2 - oc0);
                for (std::int64_t i = 0; i < cc * midH; ++i) {
                    caches.access(map.tScratch + i * midW * kElem,
                                  midW * kElem);
                }
                for (std::int64_t oc = 0; oc < occ; ++oc) {
                    caches.access(map.w2 + ((oc0 + oc) * w2Ld +
                                            c0 * k2 * k2) *
                                               kElem,
                                  cc * k2 * k2 * kElem);
                }
                for (std::int64_t oc = 0; oc < occ; ++oc) {
                    for (std::int64_t rr = 0; rr < hh; ++rr) {
                        caches.access(
                            map.output +
                                ((((b0 + bi) * config.oc2 + oc0 + oc) *
                                      config.oh2() +
                                  h0 + rr) *
                                     config.ow2() +
                                 w0) *
                                    kElem,
                            ww * kElem);
                    }
                }
            }
        }
    });
    return collectTrace(caches);
}

TraceResult
traceUnfusedConvChain(const ConvChainConfig &config,
                      const exec::ConvTiles &tiles1,
                      const exec::ConvTiles &tiles2,
                      const std::vector<CacheConfig> &levels)
{
    CacheHierarchy caches(levels);
    const ConvAddressMap map = layout(config);

    // One pass per convolution, row-by-row as runTiledConv2d does.
    auto traceConv = [&](std::int64_t inBase, std::int64_t wBase,
                         std::int64_t outBase, std::int64_t ic,
                         std::int64_t h, std::int64_t w, std::int64_t oc,
                         int kernel, int stride, int pad,
                         const exec::ConvTiles &tiles) {
        const std::int64_t oh = ref::convOutDim(h, kernel, stride, pad);
        const std::int64_t ow = ref::convOutDim(w, kernel, stride, pad);
        const std::int64_t wLd = ic * kernel * kernel;
        for (std::int64_t bi = 0; bi < config.batch; ++bi) {
            for (std::int64_t r = 0; r < oh; ++r) {
                for (std::int64_t ic0 = 0; ic0 < ic; ic0 += tiles.tic) {
                    const std::int64_t icc =
                        std::min<std::int64_t>(tiles.tic, ic - ic0);
                    // Input rows feeding output row r.
                    const std::int64_t rowLo =
                        clampI64(r * stride - pad, 0, h);
                    const std::int64_t rowHi = clampI64(
                        r * stride + kernel - pad, 0, h);
                    for (std::int64_t c = ic0; c < ic0 + icc; ++c) {
                        for (std::int64_t row = rowLo; row < rowHi;
                             ++row) {
                            caches.access(
                                inBase + (((bi * ic + c) * h + row) * w) *
                                             kElem,
                                w * kElem);
                        }
                    }
                    for (std::int64_t oc0 = 0; oc0 < oc;
                         oc0 += tiles.toc) {
                        const std::int64_t occ = std::min<std::int64_t>(
                            tiles.toc, oc - oc0);
                        for (std::int64_t o = oc0; o < oc0 + occ; ++o) {
                            caches.access(
                                wBase + (o * wLd +
                                         ic0 * kernel * kernel) *
                                            kElem,
                                icc * kernel * kernel * kElem);
                            caches.access(
                                outBase +
                                    (((bi * oc + o) * oh + r) * ow) *
                                        kElem,
                                ow * kElem);
                        }
                    }
                }
            }
        }
    };

    traceConv(map.input, map.w1, map.tGlobal, config.ic, config.h,
              config.w, config.oc1, config.k1, config.stride1,
              config.effectivePad1(), tiles1);
    traceConv(map.tGlobal, map.w2, map.output, config.oc1, config.oh1(),
              config.ow1(), config.oc2, config.k2, config.stride2,
              config.effectivePad2(), tiles2);
    return collectTrace(caches);
}

} // namespace chimera::cachesim
