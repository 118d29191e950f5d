#pragma once

/**
 * @file
 * Search-pruning verification: the OE rule family.
 *
 * The analyzer whose claims are policed here lives in
 * analysis/order_equivalence.hpp; this layer replays a pruned search
 * against exhaustive enumeration so the exactness claim is checked
 * against the real solver, not trusted.
 *
 * Rules:
 *  - OE01  symmetry-class merge unsound: two orders in one class got
 *          different tile-solver results, or pruning changed the
 *          argmin (error)
 */

#include "plan/planner.hpp"
#include "verify/diagnostics.hpp"

namespace chimera::verify {

/** Outcome of replaying a pruned search against exhaustive search. */
struct SearchReplay
{
    /** OE findings (empty when every claim held). */
    Report report;

    /** The plan chosen under @p options' pruning mode. */
    plan::ExecutionPlan pruned;

    /** The plan chosen by exhaustive enumeration (PruneMode::None). */
    plan::ExecutionPlan exhaustive;
};

/**
 * Replays the order search for @p chain twice — once under
 * @p options.prune, once exhaustively — and checks the analyzer's
 * claims against the solver ground truth (OE01): the pruned search
 * must select the bitwise-identical plan, and sampled symmetry-class
 * members must solve identically to their representatives. The plan
 * cache is bypassed; both plans are returned for reporting.
 */
SearchReplay replaySearch(const ir::Chain &chain,
                          const plan::PlannerOptions &options);

} // namespace chimera::verify
