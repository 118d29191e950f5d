#include "plan/planner.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "analysis/dependence.hpp"
#include "ir/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/plan_cache.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/mathutil.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "verify/plan_verifier.hpp"

namespace chimera::plan {

using ir::AxisId;
using ir::Chain;

solver::TileConstraints
alphaConstraints(const Chain &chain, std::int64_t alpha)
{
    solver::TileConstraints constraints;
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        const ir::Axis &axis = chain.axes()[static_cast<std::size_t>(a)];
        // Batch never needs a width floor: it is an outer dimension of
        // every tensor, so its tile does not affect line utilization.
        if (axis.reorderable && axis.name != "b") {
            constraints.minTile[a] = std::min(alpha, axis.extent);
        }
    }
    return constraints;
}

solver::TileConstraints
executabilityPins(const Chain &chain)
{
    // Region (R) and user (U) axes per intermediate, with every free
    // multi-extent reorderable axis blocked.
    const std::vector<std::vector<model::AxisRole>> roles =
        model::intermediateAxisRoles(
            chain,
            std::vector<std::int64_t>(
                static_cast<std::size_t>(chain.numAxes()), 1));
    const auto has = [&](std::size_t i, AxisId axis, model::AxisRole role) {
        return roles[i][static_cast<std::size_t>(axis)] == role;
    };

    solver::TileConstraints pins;
    for (std::size_t i = 0; i < roles.size(); ++i) {
        for (std::size_t j = i + 1; j < roles.size(); ++j) {
            // Cycle: x in R_i and U_j, y in U_i and R_j. Pinning y to
            // its extent removes it from both sets and breaks the cycle
            // (the later intermediate becomes panel-resident along y).
            for (AxisId x = 0; x < chain.numAxes(); ++x) {
                if (!has(i, x, model::AxisRole::Region) ||
                    !has(j, x, model::AxisRole::User)) {
                    continue;
                }
                for (AxisId y = 0; y < chain.numAxes(); ++y) {
                    if (has(i, y, model::AxisRole::User) &&
                        has(j, y, model::AxisRole::Region)) {
                        pins.fixed[y] =
                            chain.axes()[static_cast<std::size_t>(y)]
                                .extent;
                    }
                }
            }
        }
    }
    return pins;
}

std::vector<analysis::AxisConcurrency>
effectiveConcurrency(const ir::Chain &chain, const ExecutionPlan &plan)
{
    if (static_cast<int>(plan.concurrency.size()) == chain.numAxes()) {
        return plan.concurrency;
    }
    return analysis::analyzeConcurrency(chain, plan.tiles).kinds();
}

analysis::SafetyAnalysis
certifyPlan(const Chain &chain, const PlannerOptions &options,
            ExecutionPlan &plan)
{
    obs::Span span(obs::trace(), "plan.certify", "plan");
    analysis::SafetyOptions so;
    so.memCapacityBytes = options.memCapacityBytes;
    so.topology = options.topology;
    const analysis::SafetyAnalysis sa = analysis::analyzeSafety(
        chain, plan.tiles, effectiveConcurrency(chain, plan),
        plan.plannedThreads, analysis::ShapeDomain::concrete(chain), so);
    plan.safety = sa.certificate;
    span.arg("chain", chain.name())
        .arg("certified", sa.certificate.certified ? 1 : 0);
    return sa;
}

std::string
orderString(const Chain &chain, const std::vector<AxisId> &perm)
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < perm.size(); ++i) {
        if (i != 0) {
            oss << ",";
        }
        oss << chain.axes()[static_cast<std::size_t>(perm[i])].name;
    }
    return oss.str();
}

std::vector<AxisId>
permFromOrderString(const Chain &chain, const std::string &order)
{
    // Manual split (no stringstream): runs during warm plan-cache
    // lookups, where first-stream construction cost matters.
    std::vector<AxisId> perm;
    std::size_t start = 0;
    while (start < order.size()) {
        std::size_t comma = order.find(',', start);
        if (comma == std::string::npos) {
            comma = order.size();
        }
        perm.push_back(ir::axisIdByName(
            chain, order.substr(start, comma - start)));
        start = comma + 1;
    }
    // Append any axes the string omitted (pinned kernel axes), innermost.
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        if (std::find(perm.begin(), perm.end(), a) == perm.end()) {
            perm.push_back(a);
        }
    }
    model::validatePermutation(chain, perm);
    return perm;
}

namespace {

/**
 * The capacity budget the tile solver actually gets: memCapacityBytes
 * clamped to one worker's share of the topology's tightest shared level
 * (LLC pressure — DESIGN.md §"Thread-aware planning"). With no topology
 * or a single worker this is memCapacityBytes unchanged.
 */
double
effectiveCapacityBytes(const PlannerOptions &options)
{
    return model::clampedPerWorkerBudgetBytes(
        options.memCapacityBytes, options.topology, options.execThreads);
}

/**
 * The axes whose blocks the executors distribute across workers: region
 * axes of the on-chip intermediates (the executors' region loops walk
 * exactly these) that the dependence analysis proved Parallel. Chains
 * without intermediates fall back to the output tensors' axes. Sorted
 * ascending by AxisId (deterministic).
 */
std::vector<AxisId>
parallelRegionAxes(const Chain &chain,
                   const std::vector<analysis::AxisConcurrency> &kinds)
{
    std::vector<AxisId> axes;
    auto collect = [&](ir::TensorKind kind) {
        for (const ir::TensorDecl &tensor : chain.tensors()) {
            if (tensor.kind != kind) {
                continue;
            }
            for (AxisId a = 0; a < chain.numAxes(); ++a) {
                const ir::Axis &axis =
                    chain.axes()[static_cast<std::size_t>(a)];
                if (!axis.reorderable || axis.extent <= 1 ||
                    !tensor.usesAxis(a)) {
                    continue;
                }
                if (kinds[static_cast<std::size_t>(a)] !=
                    analysis::AxisConcurrency::Parallel) {
                    continue;
                }
                if (std::find(axes.begin(), axes.end(), a) == axes.end()) {
                    axes.push_back(a);
                }
            }
        }
    };
    collect(ir::TensorKind::Intermediate);
    if (axes.empty()) {
        collect(ir::TensorKind::Output);
    }
    std::sort(axes.begin(), axes.end());
    return axes;
}

/** Blocks of @p axis under @p tiles (>= 1). */
std::int64_t
axisBlocks(const Chain &chain, const std::vector<std::int64_t> &tiles,
           AxisId axis)
{
    const std::int64_t extent =
        chain.axes()[static_cast<std::size_t>(axis)].extent;
    return ceilDiv(extent, std::max<std::int64_t>(
                               1, tiles[static_cast<std::size_t>(axis)]));
}

/** Tasks of the parallel region grid: the product of its blocks. */
std::int64_t
taskCount(const Chain &chain, const std::vector<std::int64_t> &tiles,
          const std::vector<AxisId> &paxes)
{
    std::int64_t count = 1;
    for (AxisId a : paxes) {
        count *= axisBlocks(chain, tiles, a);
    }
    return count;
}

/**
 * Tasks per worker past which the refinement below stops chasing a
 * worker-divisible task count: with this many, the pool's cursor
 * balances the remainder.
 */
constexpr std::int64_t kBalancedTasksPerWorker = 4;

/**
 * The thread-aware refinement step (runs on the winning plan only):
 * while the parallel region grid has fewer tasks than plannedThreads
 * workers (mandatory) or an unbalanced non-multiple count below
 * kBalancedTasksPerWorker * workers (best-effort), re-solve with the
 * next-smaller candidate tile on one parallel axis — picking the
 * re-solve with the smallest predicted volume — until the grid is
 * worker-divisible or wide enough.
 *
 * Refinement re-runs the dependence analysis after every accepted
 * re-solve (concurrency is tile-dependent), so the emitted table always
 * matches the final tiles.
 */
void
refineForThreads(const Chain &chain, ExecutionPlan &plan,
                 const solver::TileConstraints &constraints,
                 const solver::TileSolverOptions &solverOptions)
{
    const std::int64_t target = plan.plannedThreads;
    if (target <= 1) {
        // Serial plans are the thread-oblivious planner's, bit for bit.
        return;
    }
    const std::int64_t balanced = kBalancedTasksPerWorker * target;

    std::vector<AxisId> paxes = parallelRegionAxes(chain, plan.concurrency);
    std::int64_t count = taskCount(chain, plan.tiles, paxes);

    for (int iter = 0; iter < 64; ++iter) {
        const bool mandatory = count < target;
        const bool unbalanced = count % target != 0 && count < balanced;
        if (!mandatory && !unbalanced) {
            break;
        }
        // Candidate refinements: cap one parallel axis at its next
        // smaller solver candidate, re-solve, keep the cheapest volume
        // among those that actually widen the grid.
        solver::TileSolution bestSol;
        std::int64_t bestCount = count;
        bool haveBest = false;
        for (AxisId a : paxes) {
            if (constraints.fixed.count(a) != 0) {
                continue;
            }
            const std::int64_t current =
                plan.tiles[static_cast<std::size_t>(a)];
            std::int64_t next = 0;
            for (std::int64_t c :
                 solver::axisTileCandidates(chain, a, constraints)) {
                if (c < current && c > next) {
                    next = c;
                }
            }
            if (next <= 0) {
                continue;
            }
            solver::TileConstraints refined = constraints;
            const auto capIt = refined.maxTile.find(a);
            if (capIt == refined.maxTile.end() || capIt->second > next) {
                refined.maxTile[a] = next;
            }
            const solver::TileSolution sol = solver::solveTiles(
                chain, plan.perm, refined, solverOptions);
            if (!sol.feasible) {
                continue;
            }
            const std::int64_t newCount =
                taskCount(chain, sol.tiles, paxes);
            if (newCount <= count) {
                continue;
            }
            const bool better =
                !haveBest || sol.volumeBytes < bestSol.volumeBytes - 0.5 ||
                (sol.volumeBytes < bestSol.volumeBytes + 0.5 &&
                 newCount > bestCount);
            if (better) {
                bestSol = sol;
                bestCount = newCount;
                haveBest = true;
            }
        }
        if (!haveBest) {
            break; // no axis can widen the grid further
        }
        plan.tiles = bestSol.tiles;
        plan.predictedVolumeBytes = bestSol.volumeBytes;
        plan.memUsageBytes = bestSol.memUsageBytes;
        plan.concurrency =
            analysis::analyzeConcurrency(chain, plan.tiles).kinds();
        paxes = parallelRegionAxes(chain, plan.concurrency);
        count = bestCount;
    }
}

/**
 * PlannerOptions::verify self-check: re-derives every claim of a freshly
 * planned schedule and throws with the findings when any fail (a planner
 * or solver bug, never a user error).
 */
void
selfCheck(const Chain &chain, const ExecutionPlan &plan,
          const PlannerOptions &options, bool requireExecutableOrder,
          const char *what)
{
    verify::PlanVerifyOptions vo = verify::planVerifyOptions(options);
    vo.requireExecutableOrder = requireExecutableOrder;
    const verify::Report report =
        verify::verifyExecutionPlan(chain, plan, vo);
    CHIMERA_CHECK(!report.hasErrors(),
                  std::string(what) + " self-check failed for chain " +
                      chain.name() + ":\n" + report.render());
}

/** The enumeration + solve path behind planChain (cache misses). */
ExecutionPlan
planChainUncached(const Chain &chain, const PlannerOptions &options)
{
    WallTimer timer;
    CHIMERA_CHECK(chain.reorderableAxes().size() <= 8,
                  "too many reorderable axes to enumerate");

    solver::TileSolverOptions solverOptions;
    solverOptions.memCapacityBytes = effectiveCapacityBytes(options);
    solverOptions.maxSweeps = options.solverSweeps;
    solverOptions.model = options.model;

    const solver::TileConstraints constraints =
        searchConstraints(chain, options);

    // Axes fixed to their full extent (e.g. a middle-GEMM free dimension
    // held as a full panel) have one block and relax the executability
    // filter accordingly.
    std::vector<std::int64_t> filterTiles(
        static_cast<std::size_t>(chain.numAxes()), 1);
    for (const auto &[axis, tile] : constraints.fixed) {
        filterTiles[static_cast<std::size_t>(axis)] = std::min(
            tile, chain.axes()[static_cast<std::size_t>(axis)].extent);
    }

    // Serial pre-pass over the visited orders: symmetry-class
    // membership, then the executability filter by axis positions
    // against region/user sets derived once. Only the survivors are
    // copied, so their independent tile solves can be distributed
    // across threads.
    obs::Span searchSpan(obs::trace(), "plan.search", "plan");
    const analysis::OrderAnalyzer analyzer(chain, constraints);
    const std::vector<std::vector<model::AxisRole>> roles =
        model::intermediateAxisRoles(chain, filterTiles);
    std::unordered_set<std::uint64_t> seenKeys;
    const bool useSymmetry = options.prune == analysis::PruneMode::Symmetry;
    analysis::SearchStats stats;
    std::vector<std::vector<AxisId>> survivors;
    stats.truncated = forEachCandidateOrder(
        chain, options, [&](const std::vector<AxisId> &perm) {
            ++stats.enumerated;
            if (useSymmetry &&
                !seenKeys.insert(analyzer.symmetryKey(perm)).second) {
                ++stats.symmetryPruned;
            } else if (options.onlyExecutableOrders &&
                       !model::isExecutableOrder(roles, perm)) {
                ++stats.filtered;
            } else {
                survivors.push_back(perm);
            }
        });
    stats.solved = static_cast<std::int64_t>(survivors.size());

    std::vector<solver::TileSolution> outcomes(survivors.size());
    parallelFor(poolForThreads(options.threads), 0,
                static_cast<std::int64_t>(survivors.size()),
                [&](std::int64_t j, int) {
                    const auto jj = static_cast<std::size_t>(j);
                    outcomes[jj] = solver::solveTiles(
                        chain, survivors[jj], constraints, solverOptions);
                });

    // Deterministic argmin: candidates are always reduced in
    // enumeration order with the exact serial better-than predicate,
    // so ties (and the +-0.5 volume slack) resolve to the same
    // permutation at every thread count. Volumes are exact integers in
    // doubles, so the predicate is a true lexicographic
    // (volume, memUsage, enumeration index) order — which is also what
    // makes symmetry pruning exact (DESIGN.md).
    ExecutionPlan best;
    bool haveBest = false;
    for (std::size_t j = 0; j < survivors.size(); ++j) {
        const solver::TileSolution &sol = outcomes[j];
        if (!sol.feasible) {
            continue;
        }
        const bool better =
            !haveBest ||
            sol.volumeBytes < best.predictedVolumeBytes - 0.5 ||
            (sol.volumeBytes < best.predictedVolumeBytes + 0.5 &&
             sol.memUsageBytes < best.memUsageBytes);
        if (better) {
            best.perm = survivors[j];
            best.tiles = sol.tiles;
            best.predictedVolumeBytes = sol.volumeBytes;
            best.memUsageBytes = sol.memUsageBytes;
            haveBest = true;
        }
    }
    CHIMERA_CHECK(haveBest,
                  "no feasible schedule for chain " + chain.name() +
                      " under the given memory capacity");
    best.candidatesExamined = static_cast<int>(stats.solved);
    searchSpan.arg("chain", chain.name())
        .arg("solved", static_cast<int>(stats.solved))
        .arg("filtered", static_cast<int>(stats.filtered))
        .arg("symmetry_pruned", static_cast<int>(stats.symmetryPruned))
        .arg("enumerated", static_cast<int>(stats.enumerated))
        .arg("truncated", stats.truncated ? 1 : 0)
        .arg("dv_bytes", best.predictedVolumeBytes)
        .arg("mu_bytes", best.memUsageBytes);
    searchSpan.end();
    best.concurrency =
        analysis::analyzeConcurrency(chain, best.tiles).kinds();
    best.plannedThreads = std::max(1, options.execThreads);
    refineForThreads(chain, best, constraints, solverOptions);
    // Certification failures do not fail planning: the plan is returned
    // uncertified, and gates that require a certificate refuse it.
    const analysis::SafetyAnalysis sa = certifyPlan(chain, options, best);
    if (!sa.certificate.certified) {
        CHIMERA_DEBUG("static safety refuted for "
                      << chain.name() << ": " << sa.renderViolations());
    }
    best.search = stats;
    best.planSeconds = timer.seconds();
    CHIMERA_DEBUG("planned "
                  << chain.name() << ": order "
                  << orderString(chain, best.perm) << " volume "
                  << best.predictedVolumeBytes << "B (" << stats.solved
                  << " solved, " << stats.filtered
                  << " filtered as non-executable, "
                  << stats.symmetryPruned << " symmetry-pruned of "
                  << stats.enumerated << " enumerated"
                  << (stats.truncated ? ", truncated" : "") << ")");
    if (options.verify) {
        selfCheck(chain, best, options, options.onlyExecutableOrders,
                  "planner");
    }
    return best;
}

} // namespace

bool
forEachCandidateOrder(
    const Chain &chain, const PlannerOptions &options,
    const std::function<void(const std::vector<AxisId> &)> &visit)
{
    // Reorderable axes come in ascending AxisId order, so stepping
    // next_permutation over the prefix visits the orders in the
    // lexicographic order of their index sequences.
    std::vector<AxisId> order = chain.reorderableAxes();
    const auto prefix = static_cast<std::ptrdiff_t>(order.size());
    for (AxisId pinned : chain.pinnedAxes()) {
        order.push_back(pinned);
    }
    int visited = 0;
    do {
        if (visited >= options.maxPermutations) {
            // The truncated flag also travels with the fresh plan's
            // search stats and its `plan.search` span.
            CHIMERA_WARN("permutation cap reached for chain "
                         << chain.name());
            return true;
        }
        visit(order);
        ++visited;
    } while (std::next_permutation(order.begin(), order.begin() + prefix));
    return false;
}

solver::TileConstraints
searchConstraints(const Chain &chain, const PlannerOptions &options)
{
    // Pinned kernel axes execute untiled inside the micro/im2col step.
    solver::TileConstraints constraints = options.constraints;
    for (AxisId pinned : chain.pinnedAxes()) {
        constraints.fixed.emplace(
            pinned, chain.axes()[static_cast<std::size_t>(pinned)].extent);
    }
    // Break inter-intermediate ordering cycles (panel residency): with
    // these axes blocked, no order at all would be executable.
    if (options.onlyExecutableOrders) {
        for (const auto &[axis, tile] : executabilityPins(chain).fixed) {
            constraints.minTile.erase(axis);
            constraints.multipleOf.erase(axis);
            constraints.fixed[axis] = tile;
        }
    }
    return constraints;
}

ExecutionPlan
planChain(const Chain &chain, const PlannerOptions &options)
{
    obs::TraceRecorder *tracer = obs::trace();
    obs::Span span(tracer, "plan.chain", "plan");
    if (tracer != nullptr) {
        span.arg("chain", chain.name())
            .arg("fingerprint", planFingerprint(chain, options));
    }
    static obs::Counter &cacheHits =
        obs::Registry::global().counter("chimera.plan.cache_hits");
    static obs::Counter &planned =
        obs::Registry::global().counter("chimera.plan.planned");
    static obs::Histogram &planSeconds =
        obs::Registry::global().histogram("chimera.plan.plan_seconds");
    if (options.cache != nullptr) {
        if (std::optional<ExecutionPlan> cached =
                options.cache->lookup(chain, options)) {
            CHIMERA_DEBUG("plan cache hit for " << chain.name());
            cacheHits.add();
            span.arg("source", std::string("cache"))
                .arg("dv_bytes", cached->predictedVolumeBytes)
                .arg("mu_bytes", cached->memUsageBytes);
            return *cached;
        }
    }
    const ExecutionPlan best = planChainUncached(chain, options);
    planned.add();
    planSeconds.recordSeconds(best.planSeconds);
    span.arg("source", std::string("planned"))
        .arg("dv_bytes", best.predictedVolumeBytes)
        .arg("mu_bytes", best.memUsageBytes)
        .arg("candidates", best.candidatesExamined);
    if (options.cache != nullptr) {
        options.cache->store(chain, options, best);
    }
    return best;
}

ExecutionPlan
planFixedOrder(const Chain &chain, const std::vector<AxisId> &perm,
               const PlannerOptions &options)
{
    WallTimer timer;
    solver::TileSolverOptions solverOptions;
    solverOptions.memCapacityBytes = effectiveCapacityBytes(options);
    solverOptions.maxSweeps = options.solverSweeps;
    solverOptions.model = options.model;

    solver::TileConstraints constraints = options.constraints;
    for (AxisId pinned : chain.pinnedAxes()) {
        constraints.fixed.emplace(
            pinned, chain.axes()[static_cast<std::size_t>(pinned)].extent);
    }
    const solver::TileSolution sol =
        solver::solveTiles(chain, perm, constraints, solverOptions);
    CHIMERA_CHECK(sol.feasible,
                  "fixed order infeasible for chain " + chain.name());
    ExecutionPlan plan;
    plan.perm = perm;
    plan.tiles = sol.tiles;
    plan.predictedVolumeBytes = sol.volumeBytes;
    plan.memUsageBytes = sol.memUsageBytes;
    plan.candidatesExamined = 1;
    plan.concurrency =
        analysis::analyzeConcurrency(chain, plan.tiles).kinds();
    // Fixed-order plans emulate thread-oblivious libraries: they get
    // the per-worker budget but no tile refinement (the planner's edge
    // in the scaling comparison).
    plan.plannedThreads = std::max(1, options.execThreads);
    (void)certifyPlan(chain, options, plan);
    plan.planSeconds = timer.seconds();
    if (options.verify) {
        // Baselines pin deliberately non-executable orders; only the
        // model-level claims are checked here.
        selfCheck(chain, plan, options, /*requireExecutableOrder=*/false,
                  "fixed-order planner");
    }
    return plan;
}

MultiLevelPlan
planChainMultiLevel(const Chain &chain, const model::MachineModel &machine,
                    const PlannerOptions &baseOptions)
{
    CHIMERA_CHECK(!machine.levels.empty(), "machine has no memory levels");
    WallTimer timer;

    MultiLevelPlan result;
    result.levels.resize(machine.levels.size());

    // Plan outermost level first; inner tiles nest inside outer tiles.
    // Each level's budget is one worker's share of it (full private
    // instance, capacity / workers for shared levels), so an
    // LLC-pressured shape gets smaller outer tiles at high execThreads.
    PlannerOptions options = baseOptions;
    for (std::size_t d = machine.levels.size(); d-- > 0;) {
        options.memCapacityBytes = model::perWorkerCapacityBytes(
            machine.levels[d], machine, baseOptions.execThreads);
        const ExecutionPlan levelPlan = planChain(chain, options);
        result.levels[d].perm = levelPlan.perm;
        result.levels[d].tiles = levelPlan.tiles;
        // Constrain the next (inner) level to nest inside this one.
        for (AxisId a = 0; a < chain.numAxes(); ++a) {
            options.constraints.maxTile[a] =
                levelPlan.tiles[static_cast<std::size_t>(a)];
        }
    }
    result.cost =
        model::evaluateMultiLevel(chain, machine, result.levels,
                                  baseOptions.model, baseOptions.execThreads);
    result.planSeconds = timer.seconds();
    if (baseOptions.verify) {
        // Each level already self-checked through planChain; this pass
        // adds the cross-level nesting audit (PL11), so skip the
        // per-level recount rerun.
        verify::PlanVerifyOptions vo =
            verify::planVerifyOptions(baseOptions);
        vo.recount = false;
        const verify::Report report = verify::verifyMultiLevelPlan(
            chain, machine, result.levels, vo);
        CHIMERA_CHECK(!report.hasErrors(),
                      "multi-level planner self-check failed for chain " +
                          chain.name() + ":\n" + report.render());
    }
    return result;
}

} // namespace chimera::plan
