#pragma once

/**
 * @file
 * Executor for three-GEMM chains: E = ((A x B) x D) x F — the paper's
 * "more compute-intensive operators" generalization of §IV-B.
 *
 * Both intermediates stay on chip: C1 as a (T_M x T_L) tile and C2 as a
 * (T_M x P) panel (the planner pins T_P = P so the middle output can be
 * fully accumulated before the third GEMM consumes it). Per (b, m)
 * region: for each l block, GEMM1 accumulates C1 over k, the epilogue
 * applies, and GEMM2 folds C1 into the C2 panel; after the l loop,
 * GEMM3 streams F and writes E.
 *
 * With the softmax epilogue the chain is the fused 4-op attention
 * pattern QK^T -> softmax -> .V -> proj. Softmax normalizes a full
 * score row, so the constraints additionally pin T_L = L: the single l
 * iteration materializes the whole row on chip, the softmax completes
 * (scale, exp, divide by the row sum) before GEMM2 consumes it, and no
 * cross-block rescaling is ever needed.
 */

#include "exec/compute_engine.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "ir/builders.hpp"
#include "plan/planner.hpp"
#include "tensor/tensor.hpp"

namespace chimera::exec {

/** Expected tensor shapes (batch dim only when batch > 1). */
std::vector<std::int64_t> gemmChain3ShapeA(const ir::GemmChain3Config &c);
std::vector<std::int64_t> gemmChain3ShapeB(const ir::GemmChain3Config &c);
std::vector<std::int64_t> gemmChain3ShapeD(const ir::GemmChain3Config &c);
std::vector<std::int64_t> gemmChain3ShapeF(const ir::GemmChain3Config &c);
std::vector<std::int64_t> gemmChain3ShapeE(const ir::GemmChain3Config &c);

/**
 * Tile constraints for planning a three-GEMM chain: the middle free
 * axis p is pinned to its extent (panel residency), plus the usual
 * CPU micro-kernel constraints on m/n/k/l.
 */
solver::TileConstraints
gemmChain3Constraints(const ir::Chain &chain,
                      const kernels::MicroKernel &kernel);

/**
 * Runs the fused chain under @p plan (plan must pin T_P = P).
 *
 * An adapter over the fused GEMM body (runFusedGemms). Under a sound
 * concurrency table the (b, m) regions run in parallel, each with its
 * own C1/C2 buffers and E rows, bitwise-identical at every thread count.
 */
void runFusedGemmChain3(const ir::GemmChain3Config &config,
                        const plan::ExecutionPlan &plan,
                        const ComputeEngine &engine, const Tensor &a,
                        const Tensor &b, const Tensor &d, const Tensor &f,
                        Tensor &e, const ExecOptions &options = {});

/** Unfused baseline: three tiled batch GEMMs with DRAM intermediates. */
void runUnfusedGemmChain3(const ir::GemmChain3Config &config,
                          const ComputeEngine &engine, const Tensor &a,
                          const Tensor &b, const Tensor &d,
                          const Tensor &f, Tensor &scratchC1,
                          Tensor &scratchC2, Tensor &e,
                          const GemmTiles &tiles,
                          const ExecOptions &options = {});

/** Naive oracle for the whole chain. */
void referenceGemmChain3(const ir::GemmChain3Config &config,
                         const Tensor &a, const Tensor &b, const Tensor &d,
                         const Tensor &f, Tensor &e);

} // namespace chimera::exec
