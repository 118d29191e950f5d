#include "exec/conv_chain_exec.hpp"

#include <algorithm>
#include <cstring>

#include "exec/gemm_chain_exec.hpp"
#include "exec/region_walk.hpp"
#include "support/error.hpp"
#include "tensor/reference.hpp"

namespace chimera::exec {

using ir::ConvChainConfig;
using ir::Epilogue;

namespace {

/**
 * Packs one im2col patch row: for output columns [col0, col0+cols) of
 * output row @p outRow, gathers the (channels x kh x kw) receptive
 * fields from a [C, H, W] source with implicit zero padding.
 *
 * dst layout: dst[(c*kh + i)*kw + j][x] with row stride @p cols.
 */
void
packPatchRow(const float *src, std::int64_t chanStride, std::int64_t h,
             std::int64_t w, std::int64_t chan0, std::int64_t chans,
             std::int64_t outRow, std::int64_t col0, std::int64_t cols,
             int kernel, int stride, int pad, float *dst)
{
    for (std::int64_t c = 0; c < chans; ++c) {
        const float *chanBase = src + (chan0 + c) * chanStride;
        for (int ki = 0; ki < kernel; ++ki) {
            const std::int64_t row = outRow * stride + ki - pad;
            for (int kj = 0; kj < kernel; ++kj) {
                float *out =
                    dst + ((c * kernel + ki) * kernel + kj) * cols;
                if (row < 0 || row >= h) {
                    std::memset(out, 0,
                                static_cast<std::size_t>(cols) *
                                    sizeof(float));
                    continue;
                }
                const float *rowBase = chanBase + row * w;
                for (std::int64_t x = 0; x < cols; ++x) {
                    const std::int64_t col =
                        (col0 + x) * stride + kj - pad;
                    out[x] = (col >= 0 && col < w) ? rowBase[col] : 0.0f;
                }
            }
        }
    }
}

void
checkShape(const Tensor &t, const std::vector<std::int64_t> &expected,
           const char *what)
{
    CHIMERA_CHECK(t.shape() == expected,
                  std::string("unexpected shape for ") + what + ": got " +
                      t.shapeString());
}

} // namespace

std::vector<std::int64_t>
convChainShapeI(const ConvChainConfig &c)
{
    return {c.batch, c.ic, c.h, c.w};
}

std::vector<std::int64_t>
convChainShapeW1(const ConvChainConfig &c)
{
    return {c.oc1, c.ic, c.k1, c.k1};
}

std::vector<std::int64_t>
convChainShapeW2(const ConvChainConfig &c)
{
    return {c.oc2, c.oc1, c.k2, c.k2};
}

std::vector<std::int64_t>
convChainShapeT(const ConvChainConfig &c)
{
    return {c.batch, c.oc1, c.oh1(), c.ow1()};
}

std::vector<std::int64_t>
convChainShapeO(const ConvChainConfig &c)
{
    return {c.batch, c.oc2, c.oh2(), c.ow2()};
}

void
runFusedConvChain(const ConvChainConfig &config,
                  const plan::ExecutionPlan &plan,
                  const ComputeEngine &engine, const Tensor &input,
                  const Tensor &w1, const Tensor &w2, Tensor &output,
                  const ExecOptions &options)
{
    checkShape(input, convChainShapeI(config), "I");
    checkShape(w1, convChainShapeW1(config), "W1");
    checkShape(w2, convChainShapeW2(config), "W2");
    checkShape(output, convChainShapeO(config), "O");

    const ir::Chain chain = ir::makeConvChain(config);
    // Region loops b/oc1/oh/ow; oc1, conv2's reduction, runs serially.
    const RegionWalk walk(chain, plan);
    auto axis = [&](const char *name) { return ir::axisIdByName(chain, name); };
    const ir::AxisId bAx = config.batch > 1 ? axis("b") : -1;
    const ir::AxisId ohAx = axis("oh");
    const ir::AxisId owAx = axis("ow");
    const ir::AxisId oc1Ax = axis("oc1");
    auto tileOf = [&](ir::AxisId a) {
        return plan.tiles[static_cast<std::size_t>(a)];
    };
    const std::int64_t toc2 = tileOf(axis("oc2"));
    const std::int64_t tic = tileOf(axis("ic"));

    const std::int64_t oh1 = config.oh1();
    const std::int64_t ow1 = config.ow1();
    const std::int64_t oh2 = config.oh2();
    const std::int64_t ow2 = config.ow2();
    const int k1 = config.k1;
    const int k2 = config.k2;
    const int st1 = config.stride1;
    const int st2 = config.stride2;
    const int pad1 = config.effectivePad1();
    const int pad2 = config.effectivePad2();

    // Per-worker on-chip intermediate region (T's block footprint; the
    // kernel axes always run whole) and im2col patch buffers.
    std::vector<std::int64_t> tiles = plan.tiles;
    for (ir::AxisId a : chain.pinnedAxes()) {
        tiles[static_cast<std::size_t>(a)] =
            chain.axes()[static_cast<std::size_t>(a)].extent;
    }
    const std::int64_t midWMax = st2 * (tileOf(owAx) - 1) + k2;
    const int workers = execWorkerCount(execPool(options));
    std::vector<AlignedBuffer<float>> tRegions, patch1s, patch2s;
    for (int w = 0; w < workers; ++w) {
        tRegions.push_back(allocateAligned<float>(static_cast<std::size_t>(
            chain.tensors()[static_cast<std::size_t>(
                chain.ops()[0].outputTensorId)].footprintElems(tiles))));
        patch1s.push_back(allocateAligned<float>(
            static_cast<std::size_t>(tic * k1 * k1 * midWMax)));
        patch2s.push_back(allocateAligned<float>(static_cast<std::size_t>(
            tileOf(oc1Ax) * k2 * k2 * tileOf(owAx))));
    }

    output.zero();

    const std::int64_t w1Ld = config.ic * k1 * k1;
    const std::int64_t w2Ld = config.oc1 * k2 * k2;
    const std::int64_t inChanStride = config.h * config.w;
    const std::int64_t inBatchStride = config.ic * inChanStride;
    const std::int64_t outChanStride = oh2 * ow2;
    const std::int64_t outBatchStride = config.oc2 * outChanStride;

    walk.run(options, "exec.conv_chain", [&](const Region &region,
                                            int worker) {
        float *tRegion = tRegions[static_cast<std::size_t>(worker)].get();
        float *patch1 = patch1s[static_cast<std::size_t>(worker)].get();
        float *patch2 = patch2s[static_cast<std::size_t>(worker)].get();
        const std::int64_t b0 = region.start(bAx), bb = region.size(bAx);
        const std::int64_t h0 = region.start(ohAx), hh = region.size(ohAx);
        const std::int64_t w0 = region.start(owAx), ww = region.size(owAx);
        const std::int64_t c0 = region.start(oc1Ax);
        const std::int64_t cc = region.size(oc1Ax);

        // Halo-inflated intermediate slice covered by this region.
        const std::int64_t midH = st2 * (hh - 1) + k2;
        const std::int64_t midW = st2 * (ww - 1) + k2;
        const std::int64_t tRowLo = h0 * st2 - pad2;
        const std::int64_t tColLo = w0 * st2 - pad2;
        const std::int64_t ldRow = midW;
        const std::int64_t ldChan = midH * midW;
        const std::int64_t ldBatch = cc * ldChan;
        std::memset(tRegion, 0,
                    static_cast<std::size_t>(bb * ldBatch) * sizeof(float));

        // conv1: fill the valid part of the region via implicit GEMM.
        for (std::int64_t bi = 0; bi < bb; ++bi) {
            const float *inBase =
                input.data() + (b0 + bi) * inBatchStride;
            for (std::int64_t r = 0; r < midH; ++r) {
                const std::int64_t tRow = tRowLo + r;
                if (tRow < 0 || tRow >= oh1) {
                    continue; // conv2 zero padding stays zero
                }
                const std::int64_t colLoValid = std::max<std::int64_t>(
                    0, -tColLo);
                const std::int64_t colHiValid = std::min<std::int64_t>(
                    midW, ow1 - tColLo);
                if (colHiValid <= colLoValid) {
                    continue;
                }
                const std::int64_t cols = colHiValid - colLoValid;
                float *cBase = tRegion + bi * ldBatch + r * ldRow +
                               colLoValid;
                for (std::int64_t ic0 = 0; ic0 < config.ic; ic0 += tic) {
                    const std::int64_t icc =
                        std::min<std::int64_t>(tic, config.ic - ic0);
                    packPatchRow(inBase, inChanStride, config.h, config.w,
                                 ic0, icc, tRow, tColLo + colLoValid, cols,
                                 k1, st1, pad1, patch1);
                    engine.matmul(w1.data() + c0 * w1Ld + ic0 * k1 * k1,
                                  w1Ld, patch1, cols, cBase, ldChan,
                                  cc, cols, icc * k1 * k1);
                }
            }
        }

        // Fused epilogue on the on-chip region (relu(0) == 0, so the
        // zero-padded border stays consistent with reference padding).
        if (config.epilogue == Epilogue::Relu) {
            for (std::int64_t i = 0; i < bb * ldBatch; ++i) {
                tRegion[i] = std::max(tRegion[i], 0.0f);
            }
        }

        // conv2: consume the region for every oc2 block.
        for (std::int64_t bi = 0; bi < bb; ++bi) {
            for (std::int64_t rr = 0; rr < hh; ++rr) {
                // Patch over the region buffer: padding is materialized,
                // so pad = 0 and coordinates are region-local.
                packPatchRow(tRegion + bi * ldBatch, ldChan, midH,
                             midW, 0, cc, rr, 0, ww, k2, st2, 0,
                             patch2);
                for (std::int64_t oc0 = 0; oc0 < config.oc2; oc0 += toc2) {
                    const std::int64_t occ =
                        std::min<std::int64_t>(toc2, config.oc2 - oc0);
                    float *oBase = output.data() +
                                   (b0 + bi) * outBatchStride +
                                   oc0 * outChanStride + (h0 + rr) * ow2 +
                                   w0;
                    engine.matmul(w2.data() + oc0 * w2Ld + c0 * k2 * k2,
                                  w2Ld, patch2, ww, oBase,
                                  outChanStride, occ, ww, cc * k2 * k2);
                }
            }
        }
    });
}

void
runTiledConv2d(const ComputeEngine &engine, const Tensor &input,
               const Tensor &weight, Tensor &output, int stride, int pad,
               const ConvTiles &tiles, const ExecOptions &options)
{
    CHIMERA_CHECK(input.rank() == 4 && weight.rank() == 4 &&
                      output.rank() == 4,
                  "conv2d expects rank-4 tensors");
    const std::int64_t batch = input.shape()[0];
    const std::int64_t ic = input.shape()[1];
    const std::int64_t h = input.shape()[2];
    const std::int64_t w = input.shape()[3];
    const std::int64_t oc = weight.shape()[0];
    const int kernel = static_cast<int>(weight.shape()[2]);
    const std::int64_t oh = ref::convOutDim(h, kernel, stride, pad);
    const std::int64_t ow = ref::convOutDim(w, kernel, stride, pad);
    CHIMERA_CHECK(weight.shape()[1] == ic, "conv channel mismatch");
    checkShape(output, {batch, oc, oh, ow}, "conv output");

    output.zero();
    const std::int64_t wLd = ic * kernel * kernel;

    analysis::RaceChecker *race =
        beginRacePhase(options, output.numel(), "tiled conv2d");

    // Each (batch, output-row) pair writes a disjoint output row slice;
    // the ic reduction stays serial ascending inside it, so the output
    // is bitwise-identical at every thread count.
    const int workers = execWorkerCount(execPool(options));
    std::vector<AlignedBuffer<float>> patches;
    for (int i = 0; i < workers; ++i) {
        patches.push_back(allocateAligned<float>(static_cast<std::size_t>(
            std::min(tiles.tic, ic) * kernel * kernel * ow)));
    }

    dispatchChunks(options, "exec.tiled_conv", batch * oh,
                   [&](std::int64_t task, int worker) {
        const std::int64_t bi = task / oh;
        const std::int64_t r = task % oh;
        const float *inBase = input.data() + bi * ic * h * w;
        float *outBase = output.data() + bi * oc * oh * ow;
        float *patch = patches[static_cast<std::size_t>(worker)].get();
        if (race != nullptr) {
            for (std::int64_t oc0 = 0; oc0 < oc; ++oc0) {
                const std::int64_t at =
                    bi * oc * oh * ow + oc0 * oh * ow + r * ow;
                race->claimRange(task, at, at + ow);
            }
        }
        for (std::int64_t ic0 = 0; ic0 < ic; ic0 += tiles.tic) {
            const std::int64_t icc =
                std::min<std::int64_t>(tiles.tic, ic - ic0);
            packPatchRow(inBase, h * w, h, w, ic0, icc, r, 0, ow,
                         kernel, stride, pad, patch);
            for (std::int64_t oc0 = 0; oc0 < oc; oc0 += tiles.toc) {
                const std::int64_t occ =
                    std::min<std::int64_t>(tiles.toc, oc - oc0);
                engine.matmul(
                    weight.data() + oc0 * wLd + ic0 * kernel * kernel,
                    wLd, patch, ow,
                    outBase + oc0 * oh * ow + r * ow, oh * ow, occ, ow,
                    icc * kernel * kernel);
            }
        }
    });
}

void
runUnfusedConvChain(const ConvChainConfig &config,
                    const ComputeEngine &engine, const Tensor &input,
                    const Tensor &w1, const Tensor &w2, Tensor &scratchT,
                    Tensor &output, const ConvTiles &tiles1,
                    const ConvTiles &tiles2, const ExecOptions &options)
{
    checkShape(scratchT, convChainShapeT(config), "T scratch");
    // A race checker passed here is sized to the final output; the first
    // conv writes the differently-shaped scratch, so it runs unchecked.
    ExecOptions firstOptions = options;
    firstOptions.raceCheck = nullptr;
    runTiledConv2d(engine, input, w1, scratchT, config.stride1,
                   config.effectivePad1(), tiles1, firstOptions);
    runUnfusedEpilogue(scratchT, config.epilogue, SoftmaxParams{}, options);
    runTiledConv2d(engine, scratchT, w2, output, config.stride2,
                   config.effectivePad2(), tiles2, options);
}

void
referenceConvChain(const ConvChainConfig &config, const Tensor &input,
                   const Tensor &w1, const Tensor &w2, Tensor &output)
{
    Tensor t(convChainShapeT(config));
    ref::conv2d(input, w1, t, config.stride1, config.effectivePad1());
    if (config.epilogue == Epilogue::Relu) {
        ref::reluInPlace(t);
    }
    ref::conv2d(t, w2, output, config.stride2, config.effectivePad2());
}

} // namespace chimera::exec
