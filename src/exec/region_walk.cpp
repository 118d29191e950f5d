#include "exec/region_walk.hpp"

#include <algorithm>

#include "exec/chunk_profile.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace chimera::exec {

namespace {

/** A reorderable axis that indexes every Intermediate tensor. */
bool
indexesEveryIntermediate(const ir::Chain &chain, ir::AxisId axis)
{
    const std::vector<ir::TensorDecl> &tensors = chain.tensors();
    auto intermediate = [](const ir::TensorDecl &t) {
        return t.kind == ir::TensorKind::Intermediate;
    };
    return chain.axes()[static_cast<std::size_t>(axis)].reorderable &&
           std::any_of(tensors.begin(), tensors.end(), intermediate) &&
           std::all_of(tensors.begin(), tensors.end(),
                       [&](const ir::TensorDecl &t) {
                           return !intermediate(t) || t.usesAxis(axis);
                       });
}

/** Sets @p loop's axis to block @p block in a region's bounds. */
void
setBlock(std::int64_t *bounds, const RegionLoop &loop, std::int64_t block)
{
    std::int64_t *axis = bounds + 2 * static_cast<std::size_t>(loop.axis);
    axis[0] = block * loop.tile;
    axis[1] = std::min(loop.tile, loop.extent - axis[0]);
}

} // namespace

void
dispatchChunks(const ExecOptions &options, const char *span,
               std::int64_t chunks,
               const std::function<void(std::int64_t, int)> &body)
{
    ThreadPool *pool = execPool(options);
    ChunkProfile *profile = options.profile;
    obs::TraceRecorder *const tracer = obs::trace();
    obs::Span dispatchSpan(tracer, span, "exec");
    dispatchSpan.arg("chunks", chunks).arg("workers", execWorkerCount(pool));
    parallelFor(pool, 0, chunks, [&](std::int64_t chunk, int worker) {
        const std::int64_t start = obs::nowNanos();
        body(chunk, worker);
        const std::int64_t nanos = obs::nowNanos() - start;
        if (profile != nullptr) {
            profile->recordChunk(nanos);
        }
        if (tracer != nullptr) {
            tracer->complete("exec.chunk", "exec", start, nanos,
                             {{"chunk", chunk},
                              {"worker", static_cast<std::int64_t>(worker)}});
        }
    });
}

void
dispatchRows(const ExecOptions &options, const char *span,
             std::int64_t rows,
             const std::function<void(std::int64_t, std::int64_t)> &fn)
{
    const std::int64_t chunks = std::min<std::int64_t>(
        rows, execWorkerCount(execPool(options)));
    dispatchChunks(options, span, chunks, [&](std::int64_t chunk, int) {
        const ChunkRange range = staticChunkRange(
            rows, static_cast<int>(chunks), static_cast<int>(chunk));
        fn(range.begin, range.end);
    });
}

analysis::RaceChecker *
beginRacePhase(const ExecOptions &options, std::int64_t outputElems,
               const std::string &phase)
{
    analysis::RaceChecker *race = options.raceCheck;
    if (race != nullptr) {
        CHIMERA_CHECK(race->numElements() == outputElems,
                      "race checker must be sized to the executor output");
        race->beginPhase(phase);
    }
    return race;
}

RegionWalk::RegionWalk(const ir::Chain &chain,
                       const plan::ExecutionPlan &plan)
    : chainName_(chain.name()), extents_(chain.fullExtents()),
      isRegionLoop_(extents_.size(), false)
{
    CHIMERA_CHECK(static_cast<int>(plan.tiles.size()) == chain.numAxes() &&
                      static_cast<int>(plan.perm.size()) == chain.numAxes(),
                  "plan does not match the chain configuration");
    const std::vector<analysis::AxisConcurrency> kinds =
        plan::effectiveConcurrency(chain, plan);
    for (ir::AxisId axis : plan.perm) {
        if (!indexesEveryIntermediate(chain, axis)) {
            continue;
        }
        const auto a = static_cast<std::size_t>(axis);
        isRegionLoop_[a] = true;
        RegionLoop loop{axis, extents_[a],
                        std::max<std::int64_t>(1, plan.tiles[a])};
        if (kinds[a] == analysis::AxisConcurrency::Parallel) {
            tasks_ *= loop.blocks();
            parallel_.push_back(loop);
        } else {
            serialSteps_ *= loop.blocks();
            serial_.push_back(loop);
        }
    }

    const ir::TensorDecl &output = chain.tensors()[static_cast<std::size_t>(
        chain.ops().back().outputTensorId)];
    for (const ir::AccessDim &dim : output.dims) {
        CHIMERA_CHECK(dim.terms.size() <= 1 &&
                          (dim.terms.empty() || dim.terms[0].coeff == 1),
                      "chain output dims must index one axis each");
        outputAxes_.push_back(dim.terms.empty() ? -1 : dim.terms[0].axis);
        outputElems_ *= extentOf(outputAxes_.back());
    }
}

Region
RegionWalk::makeRegion() const
{
    Region region;
    region.bounds_ = allocateAligned<std::int64_t>(2 * extents_.size());
    for (std::size_t a = 0; a < extents_.size(); ++a) {
        region.bounds_[2 * a] = 0;
        region.bounds_[2 * a + 1] = extents_[a];
    }
    return region;
}

void
RegionWalk::setTask(Region &region, std::int64_t task) const
{
    // Decode the mixed-radix id, first loop most significant.
    region.task_ = task;
    for (std::size_t i = parallel_.size(); i-- > 0;) {
        setBlock(region.bounds_.get(), parallel_[i],
                 task % parallel_[i].blocks());
        task /= parallel_[i].blocks();
    }
}

void
RegionWalk::setStep(Region &region, std::int64_t s) const
{
    for (std::size_t i = serial_.size(); i-- > 0;) {
        setBlock(region.bounds_.get(), serial_[i], s % serial_[i].blocks());
        s /= serial_[i].blocks();
    }
}

void
RegionWalk::claimOutput(analysis::RaceChecker &race, const Region &region,
                        std::size_t dim, std::int64_t offset) const
{
    const ir::AxisId axis = outputAxes_[dim];
    const std::int64_t start = offset * extentOf(axis) + region.start(axis);
    if (dim + 1 == outputAxes_.size()) {
        race.claimRange(region.task(), start, start + region.size(axis));
        return;
    }
    for (std::int64_t i = 0; i < region.size(axis); ++i) {
        claimOutput(race, region, dim + 1, start + i);
    }
}

std::vector<std::string>
fusedParallelAxes(const ir::Chain &chain, const plan::ExecutionPlan &plan)
{
    const RegionWalk walk(chain, plan);
    std::vector<std::string> names;
    for (const RegionLoop &loop : walk.parallelLoops()) {
        names.push_back(
            chain.axes()[static_cast<std::size_t>(loop.axis)].name);
    }
    return names;
}

} // namespace chimera::exec
