#include "analysis/order_equivalence.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace chimera::analysis {

using ir::AxisId;
using ir::Chain;

const char *
pruneModeName(PruneMode mode)
{
    return mode == PruneMode::Symmetry ? "symmetry" : "none";
}

OrderAnalyzer::OrderAnalyzer(const Chain &chain,
                             const solver::TileConstraints &constraints)
{
    const auto n = static_cast<std::size_t>(chain.numAxes());
    std::vector<char> inKey(n, 1);
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        const auto ai = static_cast<std::size_t>(a);
        const std::int64_t extent = chain.axes()[ai].extent;

        // alwaysSingle: even the smallest candidate covers the whole
        // extent, so the model never counts this axis.
        const bool alwaysSingle =
            ceilDiv(extent,
                    solver::axisTileCandidates(chain, a, constraints)
                        .front()) == 1;

        // The executability filter's notion of a free axis (planner's
        // filterTiles: fixed axes at their fix, everything else fully
        // blocked). An axis invisible to both the model and the filter
        // can be excluded from symmetry keys without changing either
        // the DV expression or the filter decision.
        std::int64_t filterTile = 1;
        if (const auto it = constraints.fixed.find(a);
            it != constraints.fixed.end()) {
            filterTile = std::min(it->second, extent);
        }
        const bool filterFree = chain.axes()[ai].reorderable &&
                                extent > 1 &&
                                ceilDiv(extent, filterTile) > 1;
        inKey[ai] = (alwaysSingle && !filterFree) ? 0 : 1;
    }

    // One bit per pair x < y of key axes that share an operator,
    // numbered x-major. Pinned axes trail every candidate order in a
    // fixed order, so pairs with one of them never differ and get none.
    std::vector<char> shared(n * n, 0);
    for (const ir::OpDecl &op : chain.ops()) {
        for (const AxisId x : op.loops) {
            for (const AxisId y : op.loops) {
                shared[static_cast<std::size_t>(x) * n +
                       static_cast<std::size_t>(y)] = 1;
            }
        }
    }
    const auto ordered = [&](std::size_t a) {
        return inKey[a] != 0 && chain.axes()[a].reorderable;
    };
    leads_.assign(n, 0);
    pairs_.assign(n, 0);
    int bit = 0;
    for (std::size_t x = 0; x < n; ++x) {
        for (std::size_t y = x + 1; y < n; ++y) {
            if (shared[x * n + y] == 0 || !ordered(x) || !ordered(y)) {
                continue;
            }
            CHIMERA_CHECK(bit < 64, "chain " + chain.name() +
                                        " has more than 64 symmetry-key"
                                        " axis pairs");
            const std::uint64_t mask = std::uint64_t{1} << bit++;
            leads_[x] |= mask;
            pairs_[x] |= mask;
            pairs_[y] |= mask;
        }
    }
}

std::uint64_t
OrderAnalyzer::symmetryKey(const std::vector<AxisId> &perm) const
{
    // A pair's bit is decided at the first of its two axes in the
    // order: set when that is the smaller axis x.
    std::uint64_t key = 0;
    std::uint64_t decided = 0;
    for (const AxisId a : perm) {
        const auto ai = static_cast<std::size_t>(a);
        key |= leads_[ai] & ~decided;
        decided |= pairs_[ai];
    }
    return key;
}

} // namespace chimera::analysis
