#include "verify/search_verifier.hpp"

#include <cmath>
#include <set>
#include <unordered_map>

#include "analysis/order_equivalence.hpp"
#include "solver/tile_solver.hpp"

namespace chimera::verify {

namespace {

/** Exact equality of integral-valued doubles via the planner's band. */
bool
sameVolume(double a, double b)
{
    return std::abs(a - b) < 0.5;
}

std::string
describePlan(const ir::Chain &chain, const plan::ExecutionPlan &plan)
{
    return "order " + plan::orderString(chain, plan.perm) + " volume " +
           std::to_string(
               static_cast<std::int64_t>(plan.predictedVolumeBytes)) +
           "B mem " + std::to_string(plan.memUsageBytes) + "B";
}

/** Bitwise plan equality over everything the argmin decides. */
bool
samePlan(const plan::ExecutionPlan &a, const plan::ExecutionPlan &b)
{
    return a.perm == b.perm && a.tiles == b.tiles &&
           sameVolume(a.predictedVolumeBytes, b.predictedVolumeBytes) &&
           a.memUsageBytes == b.memUsageBytes;
}

} // namespace

SearchReplay
replaySearch(const ir::Chain &chain, const plan::PlannerOptions &options)
{
    SearchReplay out;

    // Fresh plans both times: the cache would hide the very search this
    // replay exists to check.
    plan::PlannerOptions prunedOpts = options;
    prunedOpts.cache = nullptr;
    prunedOpts.verify = false;
    plan::PlannerOptions exhaustiveOpts = prunedOpts;
    exhaustiveOpts.prune = analysis::PruneMode::None;

    out.pruned = plan::planChain(chain, prunedOpts);
    out.exhaustive = plan::planChain(chain, exhaustiveOpts);
    if (!samePlan(out.pruned, out.exhaustive)) {
        out.report.error(
            "OE01", "search.argmin",
            std::string(analysis::pruneModeName(options.prune)) +
                " pruning selected " + describePlan(chain, out.pruned) +
                " but exhaustive search selects " +
                describePlan(chain, out.exhaustive));
    }

    // The class merge itself, checked against the solver over the exact
    // candidate space the planner searched.
    const solver::TileConstraints constraints =
        plan::searchConstraints(chain, prunedOpts);
    const analysis::OrderAnalyzer analyzer(chain, constraints);

    solver::TileSolverOptions solverOptions;
    solverOptions.memCapacityBytes = model::clampedPerWorkerBudgetBytes(
        prunedOpts.memCapacityBytes, prunedOpts.topology,
        prunedOpts.execThreads);
    solverOptions.maxSweeps = prunedOpts.solverSweeps;
    solverOptions.model = prunedOpts.model;

    // OE01 direct: members of a symmetry class must solve
    // bitwise-identically to their representative (sampled classes).
    std::unordered_map<std::uint64_t, std::vector<ir::AxisId>>
        representatives;
    std::set<std::uint64_t> checkedClasses;
    int classesChecked = 0;
    plan::forEachCandidateOrder(
        chain, prunedOpts, [&](const std::vector<ir::AxisId> &perm) {
            if (classesChecked >= 3) {
                return;
            }
            const std::uint64_t key = analyzer.symmetryKey(perm);
            const auto [it, inserted] = representatives.try_emplace(key, perm);
            if (inserted || !checkedClasses.insert(key).second) {
                return;
            }
            const std::vector<ir::AxisId> &repPerm = it->second;
            const solver::TileSolution rep = solver::solveTiles(
                chain, repPerm, constraints, solverOptions);
            const solver::TileSolution member =
                solver::solveTiles(chain, perm, constraints, solverOptions);
            if (rep.feasible != member.feasible ||
                rep.tiles != member.tiles ||
                !sameVolume(rep.volumeBytes, member.volumeBytes) ||
                rep.memUsageBytes != member.memUsageBytes) {
                out.report.error(
                    "OE01", "class of " + plan::orderString(chain, repPerm),
                    "member " + plan::orderString(chain, perm) +
                        " solves differently from its representative");
            }
            ++classesChecked;
        });
    return out;
}

} // namespace chimera::verify
