#include "exec/gemm_chain3_exec.hpp"

#include "exec/constraints.hpp"
#include "support/error.hpp"
#include "tensor/reference.hpp"

namespace chimera::exec {

using ir::Epilogue;
using ir::GemmChain3Config;

namespace {

std::vector<std::int64_t>
shapeOf(const GemmChain3Config &c, std::int64_t rows, std::int64_t cols)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, rows, cols}
                       : std::vector<std::int64_t>{rows, cols};
}

} // namespace

std::vector<std::int64_t>
gemmChain3ShapeA(const GemmChain3Config &c)
{
    return shapeOf(c, c.m, c.k);
}

std::vector<std::int64_t>
gemmChain3ShapeB(const GemmChain3Config &c)
{
    return shapeOf(c, c.k, c.l);
}

std::vector<std::int64_t>
gemmChain3ShapeD(const GemmChain3Config &c)
{
    return shapeOf(c, c.l, c.p);
}

std::vector<std::int64_t>
gemmChain3ShapeF(const GemmChain3Config &c)
{
    return shapeOf(c, c.p, c.n);
}

std::vector<std::int64_t>
gemmChain3ShapeE(const GemmChain3Config &c)
{
    return shapeOf(c, c.m, c.n);
}

solver::TileConstraints
gemmChain3Constraints(const ir::Chain &chain,
                      const kernels::MicroKernel &kernel)
{
    solver::TileConstraints constraints =
        cpuChainConstraints(chain, kernel);
    const ir::AxisId p = ir::axisIdByName(chain, "p");
    constraints.minTile.erase(p);
    constraints.multipleOf.erase(p);
    constraints.fixed[p] =
        chain.axes()[static_cast<std::size_t>(p)].extent;
    // Softmax (the fused 4-op attention pattern) normalizes C1 rows
    // over l, so the executor keeps a full scores row on chip: the
    // softmax completes on the region before GEMM2 consumes it, with
    // no deferred division or cross-block row sums.
    if (chain.intermediateEpilogue() == Epilogue::Softmax) {
        const ir::AxisId l = ir::axisIdByName(chain, "l");
        constraints.minTile.erase(l);
        constraints.multipleOf.erase(l);
        constraints.fixed[l] =
            chain.axes()[static_cast<std::size_t>(l)].extent;
    }
    return constraints;
}

void
runFusedGemmChain3(const GemmChain3Config &config,
                   const plan::ExecutionPlan &plan,
                   const ComputeEngine &engine, const Tensor &a,
                   const Tensor &b, const Tensor &d, const Tensor &f,
                   Tensor &e, const ExecOptions &options)
{
    CHIMERA_CHECK(a.shape() == gemmChain3ShapeA(config) &&
                      b.shape() == gemmChain3ShapeB(config) &&
                      d.shape() == gemmChain3ShapeD(config) &&
                      f.shape() == gemmChain3ShapeF(config) &&
                      e.shape() == gemmChain3ShapeE(config),
                  "three-GEMM chain tensor shape mismatch");
    // Operands by makeGemmChain3's tensor ids: A, B, C1, D, C2, F, E.
    runFusedGemms(ir::makeGemmChain3(config), plan, engine,
                  {&a, &b, nullptr, &d, nullptr, &f, nullptr}, e,
                  SoftmaxParams{config.softmaxScale, false}, options,
                  "exec.chain3");
}

void
runUnfusedGemmChain3(const GemmChain3Config &config,
                     const ComputeEngine &engine, const Tensor &a,
                     const Tensor &b, const Tensor &d, const Tensor &f,
                     Tensor &scratchC1, Tensor &scratchC2, Tensor &e,
                     const GemmTiles &tiles, const ExecOptions &options)
{
    CHIMERA_CHECK(scratchC1.shape() == shapeOf(config, config.m, config.l),
                  "C1 scratch shape mismatch");
    CHIMERA_CHECK(scratchC2.shape() == shapeOf(config, config.m, config.p),
                  "C2 scratch shape mismatch");
    // A race checker passed here is sized to the final E output; the
    // scratch-writing GEMMs run unchecked.
    ExecOptions scratchOptions = options;
    scratchOptions.raceCheck = nullptr;
    runTiledBatchGemm(engine, a, b, scratchC1, tiles, scratchOptions);
    runUnfusedEpilogue(scratchC1, config.epilogue,
                       SoftmaxParams{config.softmaxScale, false}, options);
    runTiledBatchGemm(engine, scratchC1, d, scratchC2, tiles,
                      scratchOptions);
    runTiledBatchGemm(engine, scratchC2, f, e, tiles, options);
}

void
referenceGemmChain3(const GemmChain3Config &config, const Tensor &a,
                    const Tensor &b, const Tensor &d, const Tensor &f,
                    Tensor &e)
{
    Tensor c1(shapeOf(config, config.m, config.l));
    Tensor c2(shapeOf(config, config.m, config.p));
    auto mm = [&](const Tensor &x, const Tensor &y, Tensor &z) {
        if (config.batch > 1) {
            ref::batchGemm(x, y, z);
        } else {
            ref::gemm(x, y, z);
        }
    };
    mm(a, b, c1);
    if (config.epilogue == Epilogue::Relu) {
        ref::reluInPlace(c1);
    } else if (config.epilogue == Epilogue::Softmax) {
        float *p = c1.data();
        for (std::int64_t i = 0; i < c1.numel(); ++i) {
            p[i] *= config.softmaxScale;
        }
        ref::softmaxLastDim(c1);
    }
    mm(c1, d, c2);
    mm(c2, f, e);
}

} // namespace chimera::exec
