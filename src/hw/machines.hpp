#pragma once

/**
 * @file
 * Machine descriptions of the paper's three evaluation platforms
 * (Table I) for the multi-level analytical model.
 *
 * Bandwidths are aggregate device bandwidths of the link that fills
 * each level; peakFlops is the dedicated-unit peak (fp16 for the
 * accelerators). The GPU and NPU are *simulated* through these models
 * (DESIGN.md §2): the paper's own Eq. 2-3 cost function turns planned
 * schedules into execution-time estimates, which preserves the relative
 * orderings its evaluation reports.
 */

#include "model/multilevel.hpp"

namespace chimera::hw {

/**
 * Single-level planning budget of the CPU paths, bytes: most of the
 * Xeon-class 1 MiB per-core L2. Every CLI's default `--capacity`, and
 * the budget the serve daemon, the examples and the benches plan with.
 */
inline constexpr double kPlanningBudgetBytes = 768.0 * 1024;

/** Intel Xeon Gold 6240-like CPU (AVX-512), per-socket aggregates. */
model::MachineModel cascadeLakeCpu();

/**
 * Thread-aware core/cache topology of a Xeon-class bench host: private
 * per-core L1d/L2 (capacity and fill bandwidth per instance), a shared
 * LLC whose capacity concurrent workers divide, and a shared DRAM link
 * whose bandwidth they contend for. Used by the thread-aware planner
 * (PlannerOptions::topology) and the Eq. 2-3 multi-thread estimate;
 * @p cores bounds the workers the model lets run concurrently (<= 0
 * defaults to 18, the Xeon Gold 6240 core count).
 */
model::MachineModel multicoreCpuTopology(int cores = 0);

/** NVIDIA A100-like Tensor Core GPU. */
model::MachineModel a100Gpu();

/**
 * Huawei Ascend 910-like NPU. The Unified Buffer (UB) that carries
 * intermediate results between the cube unit and the vector unit is
 * exposed separately because it bottlenecks large fused GEMM chains
 * (§VI-B "NPU Performance").
 */
model::MachineModel ascend910Npu();

/** UB capacity/bandwidth used by the NPU backend's extra constraint. */
struct UnifiedBufferSpec
{
    double capacityBytes = 256.0 * 1024;
    double bandwidthBytesPerSec = 1000e9;
};

UnifiedBufferSpec ascend910UnifiedBuffer();

/** Roofline-attainable FLOP/s at a given arithmetic intensity. */
double rooflineFlops(const model::MachineModel &machine,
                     double flopsPerDramByte);

/** The Table I peak-performance / memory-bandwidth ratio (FLOP/byte). */
double machineBalance(const model::MachineModel &machine);

} // namespace chimera::hw
