#pragma once

/**
 * @file
 * Block-level memory traces of the convolution-chain executors for the
 * cache simulator — the conv counterpart of gemm_trace.hpp. The fused
 * walker visits runFusedConvChain's regions in its walk order and
 * touches the IO slabs each region reads/writes (halo'd input rows,
 * weight slices, output rows), with the intermediate living in a
 * reused on-chip scratch; the unfused walker spills the full
 * intermediate tensor through memory.
 */

#include "cachesim/cache.hpp"
#include "cachesim/gemm_trace.hpp"
#include "exec/conv_chain_exec.hpp"
#include "ir/builders.hpp"
#include "plan/planner.hpp"

namespace chimera::cachesim {

/** Replays the fused conv-chain executor's region walk. */
TraceResult traceFusedConvChain(const ir::ConvChainConfig &config,
                                const plan::ExecutionPlan &plan,
                                const std::vector<CacheConfig> &levels);

/**
 * Replays the unfused path: conv1 over the full tensors (channel
 * blocking per @p tiles), the intermediate written to and re-read from
 * its DRAM-sized buffer, then conv2.
 */
TraceResult traceUnfusedConvChain(const ir::ConvChainConfig &config,
                                  const exec::ConvTiles &tiles1,
                                  const exec::ConvTiles &tiles2,
                                  const std::vector<CacheConfig> &levels);

} // namespace chimera::cachesim
