#include "solver/tile_solver.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace chimera::solver {

using ir::AxisId;
using ir::Chain;

std::vector<std::int64_t>
axisTileCandidates(const Chain &chain, AxisId axis, const TileConstraints &c)
{
    const std::int64_t extent =
        chain.axes()[static_cast<std::size_t>(axis)].extent;

    if (auto it = c.fixed.find(axis); it != c.fixed.end()) {
        return {std::min(it->second, extent)};
    }

    std::int64_t cap = extent;
    if (auto it = c.maxTile.find(axis); it != c.maxTile.end()) {
        cap = std::min(cap, std::max<std::int64_t>(1, it->second));
    }
    std::int64_t floor = 1;
    if (auto it = c.minTile.find(axis); it != c.minTile.end()) {
        floor = clampI64(it->second, 1, cap);
    }

    std::vector<std::int64_t> cands;
    const auto multIt = c.multipleOf.find(axis);
    if (multIt != c.multipleOf.end() && multIt->second > 1) {
        const std::int64_t step = multIt->second;
        for (std::int64_t v = step; v <= cap; v += step) {
            if (v >= floor) {
                cands.push_back(v);
            }
        }
        // The full extent is always legal: the executor peels the tail.
        if (cands.empty() || cands.back() != cap) {
            cands.push_back(cap);
        }
    } else {
        for (std::int64_t v : tileCandidates(extent)) {
            if (v <= cap && v >= floor) {
                cands.push_back(v);
            }
        }
        if (cands.empty()) {
            cands.push_back(cap);
        }
        if (cands.back() != cap) {
            cands.push_back(cap);
        }
    }
    return cands;
}

TileSolution
solveTiles(const Chain &chain, const std::vector<AxisId> &perm,
           const TileConstraints &constraints,
           const TileSolverOptions &options)
{
    const model::DataMovementModel model(chain, perm, options.model);
    CHIMERA_CHECK(options.memCapacityBytes > 0.0,
                  "solver needs a positive memory capacity");

    const int numAxes = chain.numAxes();
    std::vector<std::vector<std::int64_t>> candidates;
    candidates.reserve(static_cast<std::size_t>(numAxes));
    for (AxisId a = 0; a < numAxes; ++a) {
        candidates.push_back(axisTileCandidates(chain, a, constraints));
    }

    // Start from the smallest candidate everywhere: always the least
    // memory usage, so feasibility (if attainable at all) holds from the
    // first point and descent only moves between feasible points.
    std::vector<std::int64_t> tiles;
    std::vector<std::int64_t> largest;
    for (const std::vector<std::int64_t> &cands : candidates) {
        tiles.push_back(cands.front());
        largest.push_back(cands.back());
    }
    std::vector<std::size_t> candIdx(static_cast<std::size_t>(numAxes), 0);
    // Every vector evaluated below is drawn from these ascending lists,
    // so checking each axis's smallest and largest candidate once stands
    // in for model::validateTiles on every evaluation.
    model::validateTiles(chain, tiles);
    model::validateTiles(chain, largest);

    model::DataMovement best = model.evaluate(tiles);
    TileSolution solution;
    solution.tiles = tiles;
    solution.volumeBytes = best.volumeBytes;
    solution.memUsageBytes = best.memUsageBytes;
    solution.feasible =
        static_cast<double>(best.memUsageBytes) <= options.memCapacityBytes;
    if (!solution.feasible) {
        return solution; // even the minimal tiles do not fit
    }

    // Phase 1 — marginal-gain growth (the discrete analogue of walking
    // the Lagrange trade-off curve): repeatedly take the single-axis
    // step up that buys the most volume reduction per byte of extra
    // footprint. Growing coupled axes (e.g. T_M and T_L of the GEMM
    // chain) in alternation avoids the local minimum where one axis
    // consumes the whole capacity first.
    while (true) {
        int bestAxis = -1;
        double bestRatio = 0.0;
        double bestVolume = 0.0;
        std::int64_t bestMu = 0;
        for (AxisId a = 0; a < numAxes; ++a) {
            const auto &cands = candidates[static_cast<std::size_t>(a)];
            const std::size_t next = candIdx[static_cast<std::size_t>(a)] + 1;
            if (next >= cands.size()) {
                continue;
            }
            const std::int64_t saved = tiles[static_cast<std::size_t>(a)];
            tiles[static_cast<std::size_t>(a)] = cands[next];
            const model::DataMovement dm = model.evaluate(tiles);
            tiles[static_cast<std::size_t>(a)] = saved;
            if (static_cast<double>(dm.memUsageBytes) >
                options.memCapacityBytes) {
                continue;
            }
            const double dVolume = solution.volumeBytes - dm.volumeBytes;
            const double dMu = static_cast<double>(dm.memUsageBytes -
                                                   solution.memUsageBytes);
            if (dVolume <= 0.0) {
                continue;
            }
            const double ratio = dVolume / (dMu > 0.0 ? dMu : 1.0);
            if (ratio > bestRatio) {
                bestRatio = ratio;
                bestAxis = a;
                bestVolume = dm.volumeBytes;
                bestMu = dm.memUsageBytes;
            }
        }
        if (bestAxis < 0) {
            break;
        }
        candIdx[static_cast<std::size_t>(bestAxis)] += 1;
        tiles[static_cast<std::size_t>(bestAxis)] =
            candidates[static_cast<std::size_t>(bestAxis)]
                      [candIdx[static_cast<std::size_t>(bestAxis)]];
        solution.volumeBytes = bestVolume;
        solution.memUsageBytes = bestMu;
    }

    for (int sweep = 0; sweep < options.maxSweeps; ++sweep) {
        bool improved = false;
        for (AxisId a = 0; a < numAxes; ++a) {
            const std::int64_t current = tiles[static_cast<std::size_t>(a)];
            std::int64_t bestTile = current;
            double bestVolume = solution.volumeBytes;
            std::int64_t bestMu = solution.memUsageBytes;
            for (std::int64_t cand :
                 candidates[static_cast<std::size_t>(a)]) {
                if (cand == current) {
                    continue;
                }
                tiles[static_cast<std::size_t>(a)] = cand;
                const model::DataMovement dm = model.evaluate(tiles);
                const bool fits = static_cast<double>(dm.memUsageBytes) <=
                                  options.memCapacityBytes;
                if (!fits) {
                    continue;
                }
                // Prefer lower volume; break ties toward lower memory
                // usage while the search is still trading capacity for
                // volume (the inflation pass below reclaims the slack).
                if (dm.volumeBytes < bestVolume - 0.5 ||
                    (dm.volumeBytes < bestVolume + 0.5 &&
                     dm.memUsageBytes < bestMu)) {
                    bestVolume = dm.volumeBytes;
                    bestMu = dm.memUsageBytes;
                    bestTile = cand;
                }
            }
            tiles[static_cast<std::size_t>(a)] = bestTile;
            if (bestTile != current) {
                improved = true;
                solution.volumeBytes = bestVolume;
                solution.memUsageBytes = bestMu;
            }
        }
        if (!improved) {
            break;
        }
    }

    // Phase 3 — inflation: grow any tile whose increase leaves the
    // volume unchanged and still fits. Free under the model, it cuts
    // block-dispatch overhead and gives nested inner-level schedules
    // (§IV-C) room to tile within this level.
    for (int round = 0; round < options.maxSweeps; ++round) {
        bool grew = false;
        for (AxisId a = 0; a < numAxes; ++a) {
            const auto &cands = candidates[static_cast<std::size_t>(a)];
            const std::int64_t current = tiles[static_cast<std::size_t>(a)];
            for (std::size_t ci = cands.size(); ci-- > 0;) {
                if (cands[ci] <= current) {
                    break;
                }
                tiles[static_cast<std::size_t>(a)] = cands[ci];
                const model::DataMovement dm = model.evaluate(tiles);
                if (static_cast<double>(dm.memUsageBytes) <=
                        options.memCapacityBytes &&
                    dm.volumeBytes < solution.volumeBytes + 0.5) {
                    solution.memUsageBytes = dm.memUsageBytes;
                    grew = true;
                    break;
                }
                tiles[static_cast<std::size_t>(a)] = current;
            }
        }
        if (!grew) {
            break;
        }
    }

    solution.tiles = tiles;
    const model::DataMovement finalDm = model.evaluate(tiles);
    solution.volumeBytes = finalDm.volumeBytes;
    solution.memUsageBytes = finalDm.memUsageBytes;
    solution.feasible = static_cast<double>(finalDm.memUsageBytes) <=
                        options.memCapacityBytes;
    return solution;
}

} // namespace chimera::solver
