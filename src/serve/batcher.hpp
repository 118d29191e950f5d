#pragma once

/**
 * @file
 * Request coalescing along the paper's batch axis.
 *
 * The b axis of a batch GEMM chain is embarrassingly parallel and sits
 * outermost in every serving plan, which makes it the natural batching
 * hook: requests that agree on (m, n, k, l, epilogue, softmax scale,
 * causal flag) — the *compatibility class* — can be concatenated along
 * b and executed as one batched chain. A group of total batch B runs
 * the derived plan from PlannerGate::batchedPlan, whose per-slice block
 * walk is pinned to the canonical single-request plan, so every request
 * in the group receives bit-for-bit the output it would have received
 * running alone (the batcher's core contract, tested as such).
 *
 * Grouping itself is deterministic and timing-free: takeGroup forms the
 * queue's first group from the front job plus later jobs of its class,
 * in arrival order, up to the batch cap. The daemon's executors call it
 * whenever they go idle, so only requests that queued while every
 * executor was busy coalesce; the replay checker calls it until the
 * queue is empty (groupCompatible), which is what makes
 * `chimera-serve --check` reproducible.
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "exec/compute_engine.hpp"
#include "exec/exec_options.hpp"
#include "serve/planner_gate.hpp"
#include "serve/protocol.hpp"

namespace chimera::serve {

/** One admitted request plus its completion callback. */
struct ServeJob
{
    ExecuteRequest request;

    /**
     * compatibilityKey(request.config). The daemon sets it at admission;
     * takeGroup fills it in when empty, so a job is keyed once.
     */
    std::string classKey;

    /**
     * Called exactly once with the finished response, from whichever
     * executor thread ran the group. Must be thread-safe (the daemon's
     * callback writes the response to the request's connection).
     */
    std::function<void(ExecuteResponse &&)> complete;

    /** Admission timestamp, seconds on the daemon's steady clock. */
    double admittedSeconds = 0.0;
};

/**
 * Key under which requests may share a batch: everything shape- and
 * semantics-relevant except the batch count. Stable string form so it
 * can key maps and appear in logs.
 */
std::string compatibilityKey(const ir::GemmChainConfig &config);

/**
 * Removes the first batch group from non-empty @p jobs and returns it:
 * the front job, then later jobs of its compatibility class in arrival
 * order — interleaved classes do not break a group — while the group
 * holds at most @p maxBatch total slices (a request with batch > 1
 * contributes that many slices; an oversized single request forms its
 * own group). It stops at the first class member that does not fit.
 * With @p maxBatch <= 1 the group is the front job alone. The jobs left
 * behind keep their arrival order. Deterministic: depends only on job
 * order and configs.
 */
std::vector<ServeJob> takeGroup(std::deque<ServeJob> &jobs,
                                std::int64_t maxBatch);

/** Splits @p jobs (consumed) into batch groups: takeGroup until the
 * queue is empty, so groups come out in order of their first job. */
std::vector<std::vector<ServeJob>>
groupCompatible(std::deque<ServeJob> &&jobs, std::int64_t maxBatch);

/** Outcome counters of one executed group. */
struct GroupResult
{
    std::int64_t requests = 0;
    std::int64_t slices = 0; ///< total batch executed
    bool ok = false;
    std::string error; ///< set when ok == false
};

/**
 * Plans (through @p gate), executes and completes one group.
 *
 * A single-request group with batch == 1 runs the canonical plan on
 * the slice chain directly; anything larger concatenates inputs along
 * b, runs the derived batched plan, and scatters E back per request.
 * Failures complete every member with an error response instead of
 * throwing — the daemon must survive any admissible group.
 *
 * @p nowSeconds supplies completion timestamps (steady clock of the
 * caller) for the per-response serverSeconds field.
 */
GroupResult executeGroup(std::vector<ServeJob> &group, PlannerGate &gate,
                         const exec::ComputeEngine &engine,
                         const exec::ExecOptions &execOptions,
                         const std::function<double()> &nowSeconds);

} // namespace chimera::serve
