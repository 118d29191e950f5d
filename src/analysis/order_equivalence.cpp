#include "analysis/order_equivalence.hpp"

#include <algorithm>

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
    inKey_.assign(n, 1);
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
        inKey_[ai] = (alwaysSingle && !filterFree) ? 0 : 1;
    }

    opUses_.resize(chain.ops().size());
    for (std::size_t o = 0; o < chain.ops().size(); ++o) {
        opUses_[o].assign(n, 0);
        for (AxisId a : chain.ops()[o].loops) {
            opUses_[o][static_cast<std::size_t>(a)] = 1;
        }
    }
}

std::string
OrderAnalyzer::symmetryKey(const std::vector<AxisId> &perm) const
{
    // One character per (op, key axis) occurrence keeps the key compact
    // enough for hash-set probing on the hot enumeration path; chains
    // have far fewer axes than the printable range used here.
    std::string key;
    key.reserve(opUses_.size() * perm.size());
    for (const std::vector<char> &uses : opUses_) {
        for (const AxisId a : perm) {
            const auto ai = static_cast<std::size_t>(a);
            if (uses[ai] != 0 && inKey_[ai] != 0) {
                key += static_cast<char>('A' + a);
            }
        }
        key += '|';
    }
    return key;
}

} // namespace chimera::analysis
