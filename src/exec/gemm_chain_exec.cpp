#include "exec/gemm_chain_exec.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "exec/region_walk.hpp"
#include "ir/builders.hpp"
#include "kernels/exp_row.hpp"
#include "support/aligned.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "tensor/reference.hpp"

namespace chimera::exec {

using ir::AxisId;
using ir::Epilogue;
using ir::GemmChainConfig;

namespace {

void
checkShape(const Tensor &t, const std::vector<std::int64_t> &expected,
           const char *what)
{
    CHIMERA_CHECK(t.shape() == expected,
                  std::string("unexpected shape for ") + what + ": got " +
                      t.shapeString());
}

/** Element stride of @p axis in a row-major tensor (0 when unused). */
std::int64_t
strideOf(const ir::TensorDecl &tensor, AxisId axis,
         const std::vector<std::int64_t> &extents)
{
    std::int64_t stride = 1;
    for (auto dim = tensor.dims.rbegin(); dim != tensor.dims.rend(); ++dim) {
        CHIMERA_CHECK(dim->terms.size() == 1 && dim->terms[0].coeff == 1,
                      "GEMM operand dims must index one axis each");
        if (dim->terms[0].axis == axis) {
            return stride;
        }
        stride *= extents[static_cast<std::size_t>(dim->terms[0].axis)];
    }
    return 0;
}

/**
 * Z[rows, cols] += X[rows, red] * Y[red, cols]. X is a chain input or
 * the on-chip output of op `producer`; Y is a chain input; Z is on chip
 * unless it is the chain output (z != nullptr).
 */
struct GemmOp
{
    AxisId batch = -1, rows = -1, cols = -1, red = -1;
    int producer = -1;
    const float *x = nullptr;
    std::int64_t xBatch = 0, xLd = 0;
    const float *y = nullptr;
    std::int64_t yBatch = 0, yLd = 0;
    float *z = nullptr;
    std::int64_t zBatch = 0, zLd = 0;
};

/** Reads op @p decl's axis roles and operands off its access maps. */
GemmOp
gemmOp(const ir::Chain &chain, const ir::OpDecl &decl,
       const std::vector<std::int64_t> &extents,
       const std::vector<const Tensor *> &operands, Tensor &output)
{
    CHIMERA_CHECK(decl.kind == ir::OpKind::Gemm && decl.tensorIds.size() == 3,
                  "the fused GEMM body runs GEMM ops only");
    auto tensor = [&](int i) -> const ir::TensorDecl & {
        return chain.tensors()[static_cast<std::size_t>(decl.tensorIds[i])];
    };
    auto input = [&](int i) {
        return operands[static_cast<std::size_t>(decl.tensorIds[i])]->data();
    };
    const ir::TensorDecl &x = tensor(0);
    const ir::TensorDecl &y = tensor(1);
    const ir::TensorDecl &z = tensor(2);
    GemmOp op;
    for (AxisId a : decl.loops) {
        const bool inX = x.usesAxis(a);
        const bool inY = y.usesAxis(a);
        const bool inZ = z.usesAxis(a);
        AxisId *role = inX && inY && inZ ? &op.batch
                       : inX && inZ      ? &op.rows
                       : inY && inZ      ? &op.cols
                       : inX && inY      ? &op.red
                                         : nullptr;
        CHIMERA_CHECK(role != nullptr && *role < 0,
                      "each GEMM axis must be one of batch, rows, cols or "
                      "reduction");
        *role = a;
    }
    CHIMERA_CHECK(op.rows >= 0 && op.cols >= 0 && op.red >= 0,
                  "GEMM op lacks a row, column or reduction axis");
    if (x.kind == ir::TensorKind::Intermediate) {
        for (std::size_t p = 0; p < chain.ops().size(); ++p) {
            if (chain.ops()[p].outputTensorId == decl.tensorIds[0]) {
                op.producer = static_cast<int>(p);
            }
        }
    } else {
        op.x = input(0);
        op.xBatch = strideOf(x, op.batch, extents);
        op.xLd = strideOf(x, op.rows, extents);
    }
    op.y = input(1);
    op.yBatch = strideOf(y, op.batch, extents);
    op.yLd = strideOf(y, op.red, extents);
    if (z.kind == ir::TensorKind::Output) {
        op.z = output.data();
        op.zBatch = strideOf(z, op.batch, extents);
        op.zLd = strideOf(z, op.rows, extents);
    }
    CHIMERA_CHECK((op.x == nullptr || strideOf(x, op.red, extents) == 1) &&
                      strideOf(y, op.cols, extents) == 1 &&
                      (op.z == nullptr || strideOf(z, op.cols, extents) == 1),
                  "GEMM operands must be row-major");
    return op;
}

/** The per-region block body of a fused GEMM chain. */
class GemmChainBody
{
  public:
    GemmChainBody(const ir::Chain &chain, const plan::ExecutionPlan &plan,
                  const RegionWalk &walk, const ComputeEngine &engine,
                  const std::vector<const Tensor *> &operands,
                  Tensor &output, const SoftmaxParams &softmax, int workers)
        : engine_(engine), tiles_(plan.tiles),
          epilogue_(chain.intermediateEpilogue()), softmax_(softmax)
    {
        const std::vector<std::int64_t> extents = chain.fullExtents();
        for (const ir::OpDecl &decl : chain.ops()) {
            ops_.push_back(gemmOp(chain, decl, extents, operands, output));
            CHIMERA_CHECK((ops_.back().z != nullptr) ==
                              (ops_.size() == chain.ops().size()),
                          "only the last GEMM may write the chain output");
        }
        auto whole = [&](AxisId a) {
            return tiles_[static_cast<std::size_t>(a)] ==
                   extents[static_cast<std::size_t>(a)];
        };
        // The last op streams its output columns from an intermediate
        // produced once per region: a reduction axis it walks inside
        // the region must fit one tile.
        CHIMERA_CHECK(walk.isRegionLoop(ops_.back().red) ||
                          whole(ops_.back().red),
                      "the fused 3-chain executor requires T_P = P");
        const GemmOp &first = ops_.front();
        if (epilogue_ == ir::Epilogue::Softmax) {
            deferred_ = walk.isRegionLoop(first.cols);
            CHIMERA_CHECK(deferred_ || whole(first.cols),
                          "the fused attention chain requires T_L = L (full"
                          " scores row on chip for the softmax)");
        }
        if (deferred_) {
            // One sum per output row (b, m).
            rowsExtent_ = extents[static_cast<std::size_t>(first.rows)];
            rowSum_.assign(
                static_cast<std::size_t>(output.numel() / ops_.back().zLd),
                0.0f);
        }
        // Per-worker on-chip buffers, one per intermediate, sized by its
        // block footprint.
        buffers_.assign(static_cast<std::size_t>(workers) * ops_.size(),
                        nullptr);
        for (std::size_t w = 0; w < static_cast<std::size_t>(workers); ++w) {
            for (std::size_t i = 0; i + 1 < ops_.size(); ++i) {
                const ir::TensorDecl &z = chain.tensors()[static_cast<
                    std::size_t>(chain.ops()[i].outputTensorId)];
                scratch_.push_back(allocateAligned<float>(
                    static_cast<std::size_t>(z.footprintElems(tiles_))));
                buffers_[w * ops_.size() + i] = scratch_.back().get();
            }
        }
    }

    /** Runs the chain over one region on @p worker's buffers. */
    void visit(const Region &region, int worker)
    {
        float *const *buffers =
            &buffers_[static_cast<std::size_t>(worker) * ops_.size()];
        const std::size_t last = ops_.size() - 1;
        const GemmOp &op = ops_[last];
        forEachBlock(op.red, region, [&](std::int64_t r0, std::int64_t rr) {
            if (op.producer >= 0) {
                produce(static_cast<std::size_t>(op.producer), region,
                        buffers, r0, rr);
            }
            forEachBlock(op.cols, region,
                         [&](std::int64_t c0, std::int64_t cc) {
                             fold(last, region, buffers, r0, rr, c0, cc);
                         });
        });
    }

    /** Deferred softmax division over the finished output rows. */
    void normalize(const std::string &chainName, Tensor &output,
                   const ExecOptions &options) const
    {
        if (!deferred_) {
            return;
        }
        analysis::RaceChecker *race = beginRacePhase(
            options, output.numel(), chainName + " softmax normalize");
        const std::int64_t cols = ops_.back().zLd;
        dispatchRows(options, "exec.softmax_norm",
                     static_cast<std::int64_t>(rowSum_.size()),
                     [&](std::int64_t begin, std::int64_t end) {
            for (std::int64_t row = begin; row < end; ++row) {
                if (race != nullptr) {
                    race->claimRange(row, row * cols, (row + 1) * cols);
                }
                const float inv =
                    1.0f / rowSum_[static_cast<std::size_t>(row)];
                float *p = output.data() + row * cols;
                for (std::int64_t j = 0; j < cols; ++j) {
                    p[j] *= inv;
                }
            }
        });
    }

  private:
    /** Calls fn(start, size) per tile of @p axis inside the region. */
    template <typename Fn>
    void forEachBlock(AxisId axis, const Region &region, Fn &&fn) const
    {
        const std::int64_t tile = tiles_[static_cast<std::size_t>(axis)];
        const std::int64_t end = region.start(axis) + region.size(axis);
        for (std::int64_t s = region.start(axis); s < end; s += tile) {
            fn(s, std::min(tile, end - s));
        }
    }

    /** Produces op @p i's output on chip for columns [c0, c0 + cc). */
    void produce(std::size_t i, const Region &region, float *const *buffers,
                 std::int64_t c0, std::int64_t cc)
    {
        const GemmOp &op = ops_[i];
        std::memset(buffers[i], 0,
                    static_cast<std::size_t>(region.size(op.batch) *
                                             region.size(op.rows) * cc) *
                        sizeof(float));
        forEachBlock(op.red, region, [&](std::int64_t r0, std::int64_t rr) {
            if (op.producer >= 0) {
                produce(static_cast<std::size_t>(op.producer), region,
                        buffers, r0, rr);
            }
            fold(i, region, buffers, r0, rr, c0, cc);
        });
        if (i == 0) {
            epilogue(buffers[0], region, c0, cc);
        }
    }

    /** Folds reduction block [r0, r0 + rr) of op @p i into its output. */
    void fold(std::size_t i, const Region &region, float *const *buffers,
              std::int64_t r0, std::int64_t rr, std::int64_t c0,
              std::int64_t cc) const
    {
        const GemmOp &op = ops_[i];
        const std::int64_t m0 = region.start(op.rows);
        const std::int64_t mm = region.size(op.rows);
        for (std::int64_t bi = 0; bi < region.size(op.batch); ++bi) {
            const std::int64_t b = region.start(op.batch) + bi;
            const float *x = op.x != nullptr
                                 ? op.x + b * op.xBatch + m0 * op.xLd + r0
                                 : buffers[op.producer] + bi * mm * rr;
            float *z = op.z != nullptr
                           ? op.z + b * op.zBatch + m0 * op.zLd + c0
                           : buffers[i] + bi * mm * cc;
            engine_.matmul(x, op.x != nullptr ? op.xLd : rr,
                           op.y + b * op.yBatch + r0 * op.yLd + c0, op.yLd,
                           z, op.z != nullptr ? op.zLd : cc, mm, cc, rr);
        }
    }

    /** The chain epilogue on the first intermediate's block. */
    void epilogue(float *block, const Region &region, std::int64_t c0,
                  std::int64_t cc)
    {
        const GemmOp &op = ops_[0];
        const std::int64_t bb = region.size(op.batch);
        const std::int64_t mm = region.size(op.rows);
        if (epilogue_ == ir::Epilogue::Relu) {
            for (std::int64_t i = 0; i < bb * mm * cc; ++i) {
                block[i] = std::max(block[i], 0.0f);
            }
            return;
        }
        if (epilogue_ != ir::Epilogue::Softmax) {
            return;
        }
        // exp and the row sum on chip; a causal mask zeroes the scores
        // past the diagonal (global column c0+j beyond global row m0+r),
        // so a deferred division stays exact.
        const std::int64_t b0 = region.start(op.batch);
        const std::int64_t m0 = region.start(op.rows);
        for (std::int64_t bi = 0; bi < bb; ++bi) {
            for (std::int64_t r = 0; r < mm; ++r) {
                float *row = block + (bi * mm + r) * cc;
                const std::int64_t valid =
                    softmax_.causal
                        ? std::clamp<std::int64_t>(m0 + r - c0 + 1, 0, cc)
                        : cc;
                const float sum =
                    kernels::expRowSum(row, valid, softmax_.scale);
                if (deferred_) {
                    rowSum_[static_cast<std::size_t>(
                        (b0 + bi) * rowsExtent_ + m0 + r)] += sum;
                } else {
                    const float inv = 1.0f / sum;
                    for (std::int64_t j = 0; j < valid; ++j) {
                        row[j] *= inv;
                    }
                }
                std::fill(row + valid, row + cc, 0.0f);
            }
        }
    }

    const ComputeEngine &engine_;
    std::vector<std::int64_t> tiles_;
    std::vector<GemmOp> ops_;
    ir::Epilogue epilogue_;
    SoftmaxParams softmax_;

    /** The softmax axis is a region loop: row sums now, division later. */
    bool deferred_ = false;
    std::int64_t rowsExtent_ = 1;
    std::vector<float> rowSum_;

    std::vector<AlignedBuffer<float>> scratch_;
    std::vector<float *> buffers_; ///< [worker * ops + op]
};

} // namespace

std::vector<std::int64_t>
gemmChainShapeA(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.m, c.k}
                       : std::vector<std::int64_t>{c.m, c.k};
}

std::vector<std::int64_t>
gemmChainShapeB(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.k, c.l}
                       : std::vector<std::int64_t>{c.k, c.l};
}

std::vector<std::int64_t>
gemmChainShapeD(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.l, c.n}
                       : std::vector<std::int64_t>{c.l, c.n};
}

std::vector<std::int64_t>
gemmChainShapeE(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.m, c.n}
                       : std::vector<std::int64_t>{c.m, c.n};
}

std::vector<std::int64_t>
gemmChainShapeC(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.m, c.l}
                       : std::vector<std::int64_t>{c.m, c.l};
}


void
runFusedGemms(const ir::Chain &chain, const plan::ExecutionPlan &plan,
              const ComputeEngine &engine,
              const std::vector<const Tensor *> &operands, Tensor &output,
              const SoftmaxParams &softmax, const ExecOptions &options,
              const char *span)
{
    const RegionWalk walk(chain, plan);
    GemmChainBody body(chain, plan, walk, engine, operands, output, softmax,
                       execWorkerCount(execPool(options)));
    output.zero();
    walk.run(options, span, [&](const Region &region, int worker) {
        body.visit(region, worker);
    });
    body.normalize(chain.name(), output, options);
}

void
runFusedGemmChain(const GemmChainConfig &config,
                  const plan::ExecutionPlan &plan,
                  const ComputeEngine &engine, const Tensor &a,
                  const Tensor &b, const Tensor &d, Tensor &e,
                  const ExecOptions &options)
{
    checkShape(a, gemmChainShapeA(config), "A");
    checkShape(b, gemmChainShapeB(config), "B");
    checkShape(d, gemmChainShapeD(config), "D");
    checkShape(e, gemmChainShapeE(config), "E");
    // Operands by makeGemmChain's tensor ids: A, B, C, D, E.
    runFusedGemms(ir::makeGemmChain(config), plan, engine,
                  {&a, &b, nullptr, &d, nullptr}, e,
                  SoftmaxParams{config.softmaxScale, config.causalMask},
                  options, "exec.gemm_chain");
}

void
runTiledBatchGemm(const ComputeEngine &engine, const Tensor &a,
                  const Tensor &b, Tensor &c, const GemmTiles &tiles,
                  const ExecOptions &options)
{
    const bool batched = a.rank() == 3;
    CHIMERA_CHECK(a.rank() == b.rank() && a.rank() == c.rank() &&
                      (a.rank() == 2 || a.rank() == 3),
                  "tiled GEMM expects rank 2 or 3 tensors");
    const std::int64_t batch = batched ? a.shape()[0] : 1;
    const std::int64_t m = a.shape()[batched ? 1 : 0];
    const std::int64_t k = a.shape()[batched ? 2 : 1];
    const std::int64_t n = b.shape()[batched ? 2 : 1];
    CHIMERA_CHECK(b.shape()[batched ? 1 : 0] == k &&
                      c.shape()[batched ? 1 : 0] == m &&
                      c.shape()[batched ? 2 : 1] == n,
                  "tiled GEMM shape mismatch");

    c.zero();
    analysis::RaceChecker *race =
        beginRacePhase(options, c.numel(), "tiled batch gemm");
    // (batch, m-tile) blocks own disjoint C rows; the k loop accumulates
    // and stays serial ascending inside each block (bitwise-reproducible
    // across thread counts).
    const std::int64_t mTiles = ceilDiv(m, tiles.tm);
    dispatchChunks(options, "exec.tiled_gemm", batch * mTiles,
                   [&](std::int64_t task, int) {
        const std::int64_t bi = task / mTiles;
        const std::int64_t m0 = (task % mTiles) * tiles.tm;
        const float *aBase = a.data() + bi * m * k;
        const float *bBase = b.data() + bi * k * n;
        float *cBase = c.data() + bi * m * n;
        const std::int64_t mm = std::min<std::int64_t>(tiles.tm, m - m0);
        if (race != nullptr) {
            race->claimRange(task, bi * m * n + m0 * n,
                             bi * m * n + (m0 + mm) * n);
        }
        for (std::int64_t k0 = 0; k0 < k; k0 += tiles.tk) {
            const std::int64_t kk =
                std::min<std::int64_t>(tiles.tk, k - k0);
            for (std::int64_t n0 = 0; n0 < n; n0 += tiles.tn) {
                const std::int64_t nn =
                    std::min<std::int64_t>(tiles.tn, n - n0);
                engine.matmul(aBase + m0 * k + k0, k,
                              bBase + k0 * n + n0, n,
                              cBase + m0 * n + n0, n, mm, nn, kk);
            }
        }
    });
}

void
runUnfusedEpilogue(Tensor &t, ir::Epilogue epilogue,
                   const SoftmaxParams &softmax, const ExecOptions &options)
{
    if (epilogue == Epilogue::None) {
        return;
    }
    const std::int64_t cols = t.shape().back();
    const std::int64_t matrixRows =
        t.rank() >= 2 ? t.shape()[static_cast<std::size_t>(t.rank() - 2)]
                      : 1;
    dispatchRows(options, "exec.epilogue", t.numel() / cols,
                 [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r) {
            float *row = t.data() + r * cols;
            if (epilogue == Epilogue::Relu) {
                for (std::int64_t j = 0; j < cols; ++j) {
                    row[j] = row[j] > 0.0f ? row[j] : 0.0f;
                }
                continue;
            }
            for (std::int64_t j = 0; j < cols; ++j) {
                row[j] *= softmax.scale;
            }
            if (softmax.causal) {
                std::fill(row + std::min(r % matrixRows + 1, cols),
                          row + cols,
                          -std::numeric_limits<float>::infinity());
            }
            kernels::softmaxRows(row, 1, cols);
        }
    });
}

void
runUnfusedGemmChain(const GemmChainConfig &config,
                    const ComputeEngine &engine, const Tensor &a,
                    const Tensor &b, const Tensor &d, Tensor &scratchC,
                    Tensor &e, const GemmTiles &tiles1,
                    const GemmTiles &tiles2, const ExecOptions &options)
{
    checkShape(scratchC, gemmChainShapeC(config), "C scratch");
    // A race checker passed here is sized to the final E output; the
    // first GEMM writes the differently-shaped scratch, so it runs
    // unchecked.
    ExecOptions firstOptions = options;
    firstOptions.raceCheck = nullptr;
    runTiledBatchGemm(engine, a, b, scratchC, tiles1, firstOptions);
    runUnfusedEpilogue(scratchC, config.epilogue,
                       SoftmaxParams{config.softmaxScale, config.causalMask},
                       options);
    runTiledBatchGemm(engine, scratchC, d, e, tiles2, options);
}

void
referenceGemmChain(const GemmChainConfig &config, const Tensor &a,
                   const Tensor &b, const Tensor &d, Tensor &e)
{
    Tensor c(gemmChainShapeC(config));
    if (config.batch > 1) {
        ref::batchGemm(a, b, c);
    } else {
        ref::gemm(a, b, c);
    }
    if (config.epilogue == Epilogue::Relu) {
        ref::reluInPlace(c);
    } else if (config.epilogue == Epilogue::Softmax) {
        float *p = c.data();
        for (std::int64_t i = 0; i < c.numel(); ++i) {
            p[i] *= config.softmaxScale;
        }
        if (config.causalMask) {
            // Scores past the diagonal drop out of the softmax.
            for (std::int64_t row = 0; row < config.batch * config.m;
                 ++row) {
                std::fill(p + row * config.l + row % config.m + 1,
                          p + (row + 1) * config.l,
                          -std::numeric_limits<float>::infinity());
            }
        }
        ref::softmaxLastDim(c);
    }
    if (config.batch > 1) {
        ref::batchGemm(c, d, e);
    } else {
        ref::gemm(c, d, e);
    }
}

} // namespace chimera::exec
