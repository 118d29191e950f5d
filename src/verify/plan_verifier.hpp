#pragma once

/**
 * @file
 * Plan legality analysis.
 *
 * A Plan can reach an executor from three places — fresh from the
 * planner, deserialized from a hand-written document, or loaded from the
 * persistent plan cache — and in all three cases its claims are only as
 * good as the code (or file) that produced them. This pass re-derives
 * every claim instead of trusting it: tile ranges against the chain's
 * loop extents, executability of the block order, memory usage via a
 * fresh Algorithm-1 evaluation against the capacity, the §V-B register
 * budget for micro-kernel parameters, and — on small shapes — the
 * Algorithm-1 volume itself against an independent brute-force recount
 * that walks the block grid and simulates one resident tile per tensor.
 *
 * Rules:
 *  - PL01  document syntax error (reported by chimera-check when the
 *          parser rejects a plan file outright)
 *  - PL02  order/tiles reference an axis name the chain does not have
 *  - PL03  order is not a permutation of the chain's axes
 *  - PL04  tile size outside [1, extent]
 *  - PL05  plan incomplete: missing order, missing tile entries, or a
 *          tile vector of the wrong arity
 *  - PL06  block order not executable with single on-chip intermediate
 *          regions (model::isExecutableOrder)
 *  - PL07  re-derived memory usage exceeds the capacity
 *  - PL08  an in-memory plan's DV/MU predictions disagree with the
 *          re-derived Algorithm-1 values (documents carry none; the
 *          loader recomputes them)
 *  - PL09  Algorithm-1 result disagrees with the brute-force recount
 *          (a model regression; reported as a note when the block grid
 *          is too large to recount)
 *  - PL10  document fingerprint does not match the expected cache key
 *  - PL11  multi-level schedule defect: wrong level count or inner
 *          tiles not nested inside the enclosing level's tiles
 *  - PL13  thread-aware planning defect: plannedThreads < 1, or —
 *          when a topology is supplied — a per-worker footprint larger
 *          than one worker's share of the tightest shared level
 *          (capacity / workers), i.e. the plan would thrash the LLC
 *          at its own declared thread count
 *  - KP01  micro-kernel register usage MI*NI + NI + MII exceeds the
 *          register budget
 *  - KP02  micro-kernel structure: MII < 2 or MII does not divide MI
 *  - KP03  micro-kernel parameter not positive
 *
 * All entry points collect findings and never throw.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "kernels/kernel_params.hpp"
#include "model/multilevel.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "verify/diagnostics.hpp"

namespace chimera::verify {

/** Knobs for the plan legality checks. */
struct PlanVerifyOptions
{
    /** Capacity for the PL07 check; <= 0 skips it. */
    double memCapacityBytes = 0.0;

    /** Enforce PL06. Off for deliberately fixed (baseline) orders. */
    bool requireExecutableOrder = true;

    /** Forwarded to Algorithm 1 for the re-derivation. */
    model::ModelOptions model;

    /** Run the PL09 brute-force recount when the grid is small enough. */
    bool recount = true;

    /**
     * Per-operator block-grid budget for the recount; grids larger than
     * this skip PL09 with a note.
     */
    std::int64_t recountMaxBlocks = 1 << 16;

    /**
     * Worker count for the PL13 per-worker capacity check; a plan's own
     * plannedThreads takes precedence when it declares one > 1. <= 1
     * with a serial plan skips the shared-share check.
     */
    int plannedThreads = 1;

    /**
     * Core/cache topology whose shared levels bound each worker's
     * capacity share (PL13). An empty topology skips that check; the
     * planned-thread-count check still runs.
     */
    model::MachineModel topology;
};

/** Derives verify options from the planner options that made a plan. */
PlanVerifyOptions planVerifyOptions(const plan::PlannerOptions &options);

/**
 * Independent Algorithm-1 cross-check: walks the block grid of every
 * operator in @p perm order simulating one resident tile per tensor and
 * counts actual tile (re)loads — no keep_reuse reasoning, no shared code
 * with model::computeDataMovement. Returns nullopt when some operator's
 * block grid exceeds @p maxBlocksPerOp. @p perm and @p tiles must be
 * valid (the verifier checks them first).
 */
std::optional<model::DataMovement>
bruteForceDataMovement(const ir::Chain &chain,
                       const std::vector<ir::AxisId> &perm,
                       const std::vector<std::int64_t> &tiles,
                       const model::ModelOptions &options,
                       std::int64_t maxBlocksPerOp);

/** Checks one (order, tiles) schedule: PL03-PL07, PL09. */
Report verifyPlan(const ir::Chain &chain,
                  const std::vector<ir::AxisId> &perm,
                  const std::vector<std::int64_t> &tiles,
                  const PlanVerifyOptions &options);

/**
 * verifyPlan plus the PL08 check of the plan's predictions and the PL13
 * checks of its planned thread count.
 */
Report verifyExecutionPlan(const ir::Chain &chain,
                           const plan::ExecutionPlan &plan,
                           const PlanVerifyOptions &options);

/**
 * Checks a parsed plan document against @p chain: name binding (PL02,
 * PL03, PL05), the core schedule checks, the threads line (PL13) and
 * the fingerprint when @p expectedFingerprint is non-empty (PL10).
 */
Report verifyPlanDocument(const ir::Chain &chain,
                          const plan::ParsedPlanDoc &doc,
                          const std::string &expectedFingerprint,
                          const PlanVerifyOptions &options);

/**
 * Checks every level of a multi-level schedule against its level's
 * capacity plus the PL11 nesting constraints (inner tiles elementwise
 * <= the enclosing level's tiles).
 */
Report verifyMultiLevelPlan(const ir::Chain &chain,
                            const model::MachineModel &machine,
                            const std::vector<model::LevelSchedule> &levels,
                            const PlanVerifyOptions &options);

/** §V-B register-budget checks (KP01-KP03) for micro-kernel params. */
Report verifyKernelParams(const kernels::CpuKernelParams &params,
                          int numRegisters);

} // namespace chimera::verify
