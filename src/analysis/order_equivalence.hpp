#pragma once

/**
 * @file
 * Symbolic order-equivalence analysis over candidate block execution
 * orders (the planner's I! search space).
 *
 * The planner's cost of a block order is Algorithm 1's data-movement
 * volume, which decomposes per (operator, tensor) into
 *
 *     footprint(tiles) * multiplier(order, tiles)
 *
 * where the multiplier is a product of block counts of the operator's
 * own loop axes (src/model/data_movement.cpp). The multiplier of
 * (op, tensor) depends on the order only through the *relative* order
 * of that operator's loop axes, and axes that can never have more than
 * one block (fixed to their full extent, or extent 1) are skipped by
 * the model entirely. Hence two permutations whose induced
 * subsequences over every operator's multi-block-capable loops agree
 * have *syntactically identical* symbolic DV expressions — independent
 * axes may be renamed/moved freely between them — and the tile solver,
 * which consults the order only through that expression, returns
 * bitwise-identical tiles, volume and memory usage for both. One
 * representative per symmetry class is solved; the rest are pruned
 * exactly.
 *
 * Exactness rests on volumes being exact integers: footprints and
 * block counts are int64, and their products/sums stay below 2^53 for
 * every supported chain, so the doubles carrying them are exact and
 * the planner's +-0.5 tie band implements a true lexicographic
 * (volume, memUsage, enumeration index) order. The analyzer never
 * merges orders across *axis renamings* (e.g. swapping two same-extent
 * axes): the tile solver's ascending-AxisId tie-breaking is not
 * equivariant under renaming, so such a merge would not be bitwise
 * exact. See DESIGN.md ("Order-equivalence analysis").
 */

#include <cstdint>
#include <vector>

#include "ir/chain.hpp"
#include "solver/tile_solver.hpp"

namespace chimera::analysis {

/** Planner search-pruning mode (PlannerOptions::prune). */
enum class PruneMode
{
    None, ///< Exhaustive: solve every enumerated order.
    Symmetry, ///< Exact: solve one representative per symmetry class.
};

/** Canonical lowercase name ("none", "symmetry"). */
const char *pruneModeName(PruneMode mode);

/**
 * Where the candidates of one planner search went. Attached to a
 * freshly planned ExecutionPlan and recorded as `plan.search` span
 * args; not serialized (a cached plan carries empty stats). The counts
 * satisfy
 *
 *     enumerated == filtered + symmetryPruned + solved
 *
 * and, unless truncated, enumerated == (#reorderable axes)!.
 */
struct SearchStats
{
    /** Candidate orders visited (after the maxPermutations cap). */
    std::int64_t enumerated = 0;

    /** True when maxPermutations cut the enumeration short. */
    bool truncated = false;

    /** Orders dropped by the executable-order filter. */
    std::int64_t filtered = 0;

    /** Orders pruned as symmetry-class duplicates (exact). */
    std::int64_t symmetryPruned = 0;

    /** Orders actually handed to the tile solver. */
    std::int64_t solved = 0;
};

/**
 * The static analyzer behind symmetry pruning. Built once per planner
 * search from the chain and the solver constraints the search runs
 * under (pinned axes and executability pins applied). The constructor
 * derives which axes enter the symmetry keys and which pairs of them
 * share an operator, so a per-order key costs two word operations per
 * axis on the hot enumeration path.
 */
class OrderAnalyzer
{
  public:
    /**
     * Throws Error when the reorderable key axes of @p chain form more
     * than 64 pairs that share an operator (the planner's limit of 8
     * reorderable axes needs at most 28).
     */
    OrderAnalyzer(const ir::Chain &chain,
                  const solver::TileConstraints &constraints);

    /**
     * Canonical symmetry-class key of the candidate order @p perm: one
     * bit per pair x < y of reorderable key axes that share an
     * operator, set when x comes before y (the pinned axes trail every
     * candidate in a fixed order, so their pairs never differ). Two
     * candidates agree on every such pair exactly when every
     * operator's induced subsequence over its key axes agrees, so
     * orders with equal keys have syntactically identical DV
     * expressions and identical executability, and the solver returns
     * bitwise-identical solutions for both.
     */
    std::uint64_t symmetryKey(const std::vector<ir::AxisId> &perm) const;

  private:
    /** Per axis: the key bits of the pairs in which it is the smaller x. */
    std::vector<std::uint64_t> leads_;

    /** Per axis: the key bits of every pair it belongs to. */
    std::vector<std::uint64_t> pairs_;
};

} // namespace chimera::analysis
