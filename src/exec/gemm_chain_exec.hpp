#pragma once

/**
 * @file
 * Executors for batch GEMM chains (Figure 1a).
 *
 * The fused executor is an adapter over runFusedGemms, the block body
 * every fused GEMM chain shares: regions of the intermediate C are
 * produced on chip by GEMM1, transformed by the fused epilogue, and
 * consumed by GEMM2 before the buffer is reused — the contract the
 * analytical model assumes.
 *
 * The unfused executor is the library-style baseline: GEMM1 to DRAM,
 * epilogue pass, GEMM2 from DRAM — same micro kernel, no cross-operator
 * locality.
 */

#include "exec/compute_engine.hpp"
#include "exec/exec_options.hpp"
#include "ir/builders.hpp"
#include "plan/planner.hpp"
#include "tensor/tensor.hpp"

namespace chimera::exec {

/** Softmax parameters the IR does not carry. */
struct SoftmaxParams
{
    float scale = 1.0f;

    /** Score (row r, column c) counts only when c <= r. */
    bool causal = false;
};

/**
 * The fused block body for GEMM chains of any length, run on the
 * region walk (exec/region_walk.hpp); the chain executors are adapters
 * over it.
 *
 * Each op Z[rows, cols] += X[rows, red] * Y[red, cols] reads its axis
 * roles off its operands' access maps: batch in X, Y and Z; rows in X
 * and Z; cols in Y and Z; reduction in X and Y. Per region, an op
 * produces its output on chip for the current blocks: for each block
 * of its reduction axis it first produces the intermediate it reads,
 * then folds that block in. The last op streams its output-column
 * blocks into the chain output. A region loop contributes its region
 * block and any other axis all its tiles, so the GEMM chain produces C
 * once per (b, m, l) region and streams n, while the three-GEMM chain
 * produces its C2 panel once per (b, m) region, walking l inside it.
 *
 * The chain's epilogue applies to the first intermediate. Softmax runs
 * exp and the row sum on chip; when the softmax axis is a region loop
 * the division is deferred to a final pass over the output (§VI-B),
 * otherwise the full row is on chip and is normalized there.
 *
 * @param operands Global tensors by chain tensor id: every chain input;
 *                 null for intermediates and the output.
 * @param output   The chain output (overwritten).
 * @param span     Name of the dispatch span.
 */
void runFusedGemms(const ir::Chain &chain, const plan::ExecutionPlan &plan,
                   const ComputeEngine &engine,
                   const std::vector<const Tensor *> &operands,
                   Tensor &output, const SoftmaxParams &softmax,
                   const ExecOptions &options, const char *span);

/**
 * Runs the fused chain E = epilogue(A x B) x D under @p plan.
 *
 * The plan's concurrency table picks the region loops split across
 * @p options threads (exec/region_walk.hpp): under a sound table the
 * b/m blocks run in parallel and the accumulating l loop serially
 * inside each task, so the output is bitwise-identical at every thread
 * count.
 *
 * @param config  Chain shapes and epilogue.
 * @param plan    Planner output for the chain built by makeGemmChain.
 * @param engine  Block compute engine.
 * @param a       [batch?, M, K] input (batch dim only when batch > 1).
 * @param b       [batch?, K, L] input.
 * @param d       [batch?, L, N] input.
 * @param e       [batch?, M, N] output (overwritten).
 * @param options Threading knobs (default: CHIMERA_THREADS/hardware).
 */
void runFusedGemmChain(const ir::GemmChainConfig &config,
                       const plan::ExecutionPlan &plan,
                       const ComputeEngine &engine, const Tensor &a,
                       const Tensor &b, const Tensor &d, Tensor &e,
                       const ExecOptions &options = {});

/** Per-GEMM cache tiles for the unfused baseline. */
struct GemmTiles
{
    std::int64_t tm = 64;
    std::int64_t tn = 64;
    std::int64_t tk = 64;
};

/**
 * Tiled batch GEMM c = a x b (c overwritten), the building block of the
 * unfused baseline. Loops blocks in m-k-n order with the given tiles;
 * the independent (batch, m-tile) blocks are split across threads.
 */
void runTiledBatchGemm(const ComputeEngine &engine, const Tensor &a,
                       const Tensor &b, Tensor &c, const GemmTiles &tiles,
                       const ExecOptions &options = {});

/**
 * The unfused proxies' epilogue on a DRAM intermediate, row-parallel
 * (span `exec.epilogue`): ReLU, or the scaled, optionally causal softmax
 * over the last axis. Rows are independent: same bits at every count.
 */
void runUnfusedEpilogue(Tensor &t, ir::Epilogue epilogue,
                        const SoftmaxParams &softmax,
                        const ExecOptions &options);

/**
 * Unfused chain: GEMM1 -> DRAM intermediate -> epilogue -> GEMM2.
 *
 * @param scratchC [batch?, M, L] DRAM intermediate (overwritten).
 */
void runUnfusedGemmChain(const ir::GemmChainConfig &config,
                         const ComputeEngine &engine, const Tensor &a,
                         const Tensor &b, const Tensor &d, Tensor &scratchC,
                         Tensor &e, const GemmTiles &tiles1,
                         const GemmTiles &tiles2,
                         const ExecOptions &options = {});

/** Expected tensor shapes for a chain config (batch dim iff batch>1). */
std::vector<std::int64_t> gemmChainShapeA(const ir::GemmChainConfig &c);
std::vector<std::int64_t> gemmChainShapeB(const ir::GemmChainConfig &c);
std::vector<std::int64_t> gemmChainShapeD(const ir::GemmChainConfig &c);
std::vector<std::int64_t> gemmChainShapeE(const ir::GemmChainConfig &c);
std::vector<std::int64_t> gemmChainShapeC(const ir::GemmChainConfig &c);

/**
 * Reference result for the whole chain via the naive oracle (used by
 * tests and benches to validate both executors).
 */
void referenceGemmChain(const ir::GemmChainConfig &config, const Tensor &a,
                        const Tensor &b, const Tensor &d, Tensor &e);

} // namespace chimera::exec
