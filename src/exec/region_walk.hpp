#pragma once

/**
 * @file
 * The region walk every fused executor and cache trace runs, and the
 * one chunk-dispatch loop every executor shares.
 *
 * A fused chain executes as one loop program (§IV-B, §V): walk the
 * planned block order, keep each intermediate's region on chip, and
 * run the operators' block bodies once per region. The region loops
 * come from the IR: the reorderable axes that index every Intermediate
 * tensor, in plan order — b,m,l for the GEMM chain, b,m for the
 * three-GEMM chain, b,oc1,oh,ow for the conv chain.
 *
 * Loops the plan's concurrency table (plan::effectiveConcurrency) marks
 * Parallel form the task space and are hoisted outside; each task is
 * one dispatch index, which the pool hands to whichever worker claims
 * it next. The other region loops run serially, ascending, inside each
 * task. A task id is the mixed-radix index over the parallel blocks, so
 * race-checker keys and each task's work are the same at every thread
 * count — and a plan that mis-declares a reduction axis parallel is
 * executed as declared, which is what lets the race checker catch it.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/exec_options.hpp"
#include "ir/chain.hpp"
#include "plan/planner.hpp"
#include "support/aligned.hpp"
#include "support/mathutil.hpp"

namespace chimera::exec {

/**
 * The dispatch loop of every executor: runs @p body(chunk, worker) once
 * for each chunk in [0, @p chunks) on the pool @p options resolve to
 * (serially when that is one thread), inside a span named @p span. Each
 * chunk's wall time is added to options.profile and, when tracing,
 * recorded as an `exec.chunk` event with its chunk and worker. Spans
 * and profile share one clock, obs::nowNanos.
 */
void dispatchChunks(const ExecOptions &options, const char *span,
                    std::int64_t chunks,
                    const std::function<void(std::int64_t, int)> &body);

/**
 * Row-parallel dispatch: splits rows [0, @p rows) into one contiguous
 * range per worker and runs @p fn(begin, end) on each through
 * dispatchChunks. Used by the epilogues, whose rows are independent.
 */
void dispatchRows(
    const ExecOptions &options, const char *span, std::int64_t rows,
    const std::function<void(std::int64_t, std::int64_t)> &fn);

/**
 * options.raceCheck after checking that it is sized to @p outputElems
 * and opening phase @p phase; nullptr when no checker is attached.
 */
analysis::RaceChecker *beginRacePhase(const ExecOptions &options,
                                      std::int64_t outputElems,
                                      const std::string &phase);

/** One blocked region loop. */
struct RegionLoop
{
    ir::AxisId axis = -1;
    std::int64_t extent = 1;
    std::int64_t tile = 1;

    std::int64_t blocks() const { return ceilDiv(extent, tile); }
};

/**
 * The current block of every axis during a walk, by AxisId. Axes that
 * are not region loops span their full extent; axis -1 (an absent
 * batch) is one element at 0. Create one per worker with
 * RegionWalk::makeRegion and reuse it: visiting a region allocates
 * nothing, and each worker's region owns its cache lines, so workers
 * updating their blocks never share one.
 */
class alignas(kBufferAlignment) Region
{
  public:
    std::int64_t start(ir::AxisId axis) const
    {
        return axis < 0 ? 0 : bounds_[2 * static_cast<std::size_t>(axis)];
    }

    std::int64_t size(ir::AxisId axis) const
    {
        return axis < 0 ? 1
                        : bounds_[2 * static_cast<std::size_t>(axis) + 1];
    }

    /** Parallel task id: mixed-radix index over the parallel blocks. */
    std::int64_t task() const { return task_; }

  private:
    friend class RegionWalk;

    AlignedBuffer<std::int64_t> bounds_; ///< start, size per axis
    std::int64_t task_ = 0;
};

/** The region loops of a chain under a plan, split for dispatch. */
class RegionWalk
{
  public:
    RegionWalk(const ir::Chain &chain, const plan::ExecutionPlan &plan);

    /** Parallel loops, hoisted outside, in plan order. */
    const std::vector<RegionLoop> &parallelLoops() const
    {
        return parallel_;
    }

    /** Loops run serially inside each task, in plan order. */
    const std::vector<RegionLoop> &serialLoops() const { return serial_; }

    bool isRegionLoop(ir::AxisId axis) const
    {
        return isRegionLoop_[static_cast<std::size_t>(axis)];
    }

    /** Parallel tasks: the product of the parallel loops' blocks. */
    std::int64_t taskCount() const { return tasks_; }

    /** A region sized for this chain, every axis at its full extent. */
    Region makeRegion() const;

    /**
     * Visits every region of task @p task in walk order — its serial
     * blocks ascending — calling @p visit(region) with @p region updated
     * in place.
     */
    template <typename Visit>
    void forEachRegion(std::int64_t task, Region &region,
                       Visit &&visit) const
    {
        setTask(region, task);
        for (std::int64_t s = 0; s < serialSteps_; ++s) {
            setStep(region, s);
            visit(static_cast<const Region &>(region));
        }
    }

    /** Every region of every task, serially, in task order. */
    template <typename Visit>
    void forEachRegion(Visit &&visit) const
    {
        Region region = makeRegion();
        for (std::int64_t task = 0; task < tasks_; ++task) {
            forEachRegion(task, region, visit);
        }
    }

    /**
     * Runs @p visit(region, worker) over every region through
     * dispatchChunks under span @p span, one task per dispatch chunk.
     * With options.raceCheck set, a "<chain> fused blocks" phase is
     * opened and every region claims the output elements it writes,
     * keyed by its task id.
     */
    template <typename Visit>
    void run(const ExecOptions &options, const char *span,
             Visit &&visit) const
    {
        analysis::RaceChecker *race = beginRacePhase(
            options, outputElems_, chainName_ + " fused blocks");
        std::vector<Region> regions;
        for (int w = execWorkerCount(execPool(options)); w > 0; --w) {
            regions.push_back(makeRegion());
        }
        dispatchChunks(options, span, tasks_,
                       [&](std::int64_t task, int worker) {
            Region &region = regions[static_cast<std::size_t>(worker)];
            forEachRegion(task, region, [&](const Region &r) {
                if (race != nullptr) {
                    claimOutput(*race, r, 0, 0);
                }
                visit(r, worker);
            });
        });
    }

  private:
    std::int64_t extentOf(ir::AxisId axis) const
    {
        return axis < 0 ? 1 : extents_[static_cast<std::size_t>(axis)];
    }

    /** Sets @p region to task @p task: its parallel blocks and id. */
    void setTask(Region &region, std::int64_t task) const;

    /** Sets @p region's serial blocks to step @p s of a task. */
    void setStep(Region &region, std::int64_t s) const;

    /**
     * Claims the region's rows of the output from dim @p dim on, under
     * flat row prefix @p offset.
     */
    void claimOutput(analysis::RaceChecker &race, const Region &region,
                     std::size_t dim, std::int64_t offset) const;

    std::string chainName_;
    std::vector<std::int64_t> extents_;
    std::vector<RegionLoop> parallel_;
    std::vector<RegionLoop> serial_;
    std::vector<bool> isRegionLoop_; ///< by AxisId
    std::int64_t tasks_ = 1;
    std::int64_t serialSteps_ = 1;

    /** The axis of each output dim (-1: constant), outermost first. */
    std::vector<ir::AxisId> outputAxes_;
    std::int64_t outputElems_ = 1;
};

/**
 * Names of the chain axes the fused executors distribute across
 * workers under @p plan: the parallel region loops, in plan order.
 * Lets tests cross-check executor behavior against the analysis.
 */
std::vector<std::string> fusedParallelAxes(const ir::Chain &chain,
                                           const plan::ExecutionPlan &plan);

} // namespace chimera::exec
