#pragma once

/**
 * @file
 * Block-level memory traces of the GEMM-chain executors, replayed
 * against the cache simulator: the measurement side of the Figure 8
 * experiments. The fused trace visits the regions the executor's
 * region walk (exec/region_walk.hpp) visits, in the order a serial run
 * does; the tile touches inside a region are a model of the fused
 * body's block calls, not a record of them. The LRU hierarchy decides
 * what actually moves between levels.
 */

#include "cachesim/cache.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "ir/builders.hpp"
#include "plan/planner.hpp"

namespace chimera::cachesim {

/** Trace generation knobs. */
struct TraceOptions
{
    /**
     * When false, the intermediate C is addressed in its full DRAM-sized
     * tensor instead of the reused on-chip scratch region (Figure 8f's
     * "no intermediate reuse" configuration).
     */
    bool reuseIntermediate = true;
};

/** Measured per-level traffic of one traced execution. */
struct TraceResult
{
    /** Traffic into each level in bytes (misses * line), innermost first. */
    std::vector<double> trafficIntoLevelBytes;

    /** Hit rate per level. */
    std::vector<double> hitRates;

    /** Bytes fetched from DRAM. */
    double dramBytes = 0.0;
};

/** The per-level traffic and hit rates @p caches recorded. */
TraceResult collectTrace(const CacheHierarchy &caches);

/**
 * Replays the fused executor's block touch sequence for @p plan.
 */
TraceResult traceFusedGemmChain(const ir::GemmChainConfig &config,
                                const plan::ExecutionPlan &plan,
                                const std::vector<CacheConfig> &levels,
                                const TraceOptions &options = {});

/**
 * Replays the unfused (library-style) executor: GEMM1 over the full
 * tensors with @p tiles1, intermediate in DRAM, then GEMM2 with
 * @p tiles2.
 */
TraceResult traceUnfusedGemmChain(const ir::GemmChainConfig &config,
                                  const exec::GemmTiles &tiles1,
                                  const exec::GemmTiles &tiles2,
                                  const std::vector<CacheConfig> &levels);

} // namespace chimera::cachesim
