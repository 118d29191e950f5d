#include "model/data_movement.hpp"

#include <algorithm>
#include <array>

#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace chimera::model {

using ir::AxisId;
using ir::Chain;
using ir::OpDecl;
using ir::TensorDecl;
using ir::TensorKind;

void
validatePermutation(const Chain &chain, const std::vector<AxisId> &perm)
{
    CHIMERA_CHECK(static_cast<int>(perm.size()) == chain.numAxes(),
                  "permutation must cover every axis");
    std::vector<bool> seen(perm.size(), false);
    for (AxisId axis : perm) {
        CHIMERA_CHECK(axis >= 0 && axis < chain.numAxes(),
                      "permutation contains an unknown axis");
        CHIMERA_CHECK(!seen[static_cast<std::size_t>(axis)],
                      "permutation repeats an axis");
        seen[static_cast<std::size_t>(axis)] = true;
    }
}

void
validateTiles(const Chain &chain, const std::vector<std::int64_t> &tiles)
{
    CHIMERA_CHECK(static_cast<int>(tiles.size()) == chain.numAxes(),
                  "tile vector must cover every axis");
    for (int a = 0; a < chain.numAxes(); ++a) {
        const std::int64_t extent =
            chain.axes()[static_cast<std::size_t>(a)].extent;
        CHIMERA_CHECK(tiles[static_cast<std::size_t>(a)] >= 1 &&
                          tiles[static_cast<std::size_t>(a)] <= extent,
                      "tile size out of range for axis " +
                          chain.axes()[static_cast<std::size_t>(a)].name);
    }
}

namespace {

/** Number of blocks of @p axis under @p tiles. */
std::int64_t
blockCount(const Chain &chain, const std::vector<std::int64_t> &tiles,
           AxisId axis)
{
    const auto a = static_cast<std::size_t>(axis);
    return ceilDiv(chain.axes()[a].extent, tiles[a]);
}

/**
 * The keep_reuse rule of Algorithm 1 (lines 9-15) over one reversed
 * scan: skips one-block loops and calls @p visit(axis, blocks, reused)
 * for the rest, where reused stays true until the first loop that
 * indexes the tensor.
 */
template <typename Step, typename Visit>
void
walkReuseScan(const Step *begin, const Step *end, const std::int64_t *blocks,
              Visit &&visit)
{
    bool keepReuse = true;
    for (const Step *step = begin; step != end; ++step) {
        const std::int64_t b = blocks[static_cast<std::size_t>(step->axis)];
        if (b == 1) {
            continue; // single block: never replaces the tensor's tile
        }
        if (step->usesTensor) {
            keepReuse = false;
        }
        visit(step->axis, b, keepReuse);
    }
}

} // namespace

DataMovementModel::DataMovementModel(const Chain &chain,
                                     const std::vector<AxisId> &perm,
                                     const ModelOptions &options)
{
    validatePermutation(chain, perm);
    CHIMERA_CHECK(chain.numAxes() <= kMaxAxes,
                  "chain has more axes than the data movement model supports");
    extents_ = chain.fullExtents();
    numTensors_ = chain.tensors().size();

    std::vector<AxisId> activePerm = perm;
    for (std::size_t opIdx = 0; opIdx < chain.ops().size(); ++opIdx) {
        const OpDecl &op = chain.ops()[opIdx];
        removedBefore_.push_back(removed_.size());
        for (int t : op.tensorIds) {
            const TensorDecl &tensor =
                chain.tensors()[static_cast<std::size_t>(t)];
            Access access;
            access.tensor = t;
            access.elementSize = tensor.elementSize;
            access.counted = options.intermediatesAreIO ||
                             tensor.kind != TensorKind::Intermediate;
            for (const ir::AccessDim &dim : tensor.dims) {
                terms_.insert(terms_.end(), dim.terms.begin(),
                              dim.terms.end());
                dimTermsEnd_.push_back(terms_.size());
            }
            access.dimsEnd = dimTermsEnd_.size();
            if (access.counted) {
                for (auto it = activePerm.rbegin(); it != activePerm.rend();
                     ++it) {
                    if (op.usesLoop(*it)) {
                        scan_.push_back({*it, tensor.usesAxis(*it)});
                    }
                }
            }
            access.scanEnd = scan_.size();
            accesses_.push_back(access);
        }
        opAccessesEnd_.push_back(accesses_.size());

        // Remove loops private to this producer before visiting consumers
        // (Algorithm 1 lines 17-19, observation 3).
        for (AxisId axis : chain.privateAxesOf(static_cast<int>(opIdx))) {
            activePerm.erase(
                std::remove(activePerm.begin(), activePerm.end(), axis),
                activePerm.end());
            removed_.push_back(axis);
        }
    }
}

DataMovement
DataMovementModel::evaluate(const std::vector<std::int64_t> &tiles) const
{
    return evaluateInto(tiles, nullptr);
}

DataMovement
DataMovementModel::evaluate(const std::vector<std::int64_t> &tiles,
                            std::vector<double> &perTensorBytes) const
{
    perTensorBytes.assign(numTensors_, 0.0);
    return evaluateInto(tiles, perTensorBytes.data());
}

DataMovement
DataMovementModel::evaluateInto(const std::vector<std::int64_t> &tiles,
                                double *perTensorBytes) const
{
    std::array<std::int64_t, kMaxAxes> blocks{};
    for (std::size_t a = 0; a < extents_.size(); ++a) {
        blocks[a] = ceilDiv(extents_[a], tiles[a]);
    }

    DataMovement result;
    std::size_t access = 0;
    std::size_t dim = 0;
    std::size_t term = 0;
    const ScanStep *scan = scan_.data();
    for (std::size_t opEnd : opAccessesEnd_) {
        std::int64_t totalFootprintBytes = 0;
        for (; access < opEnd; ++access) {
            const Access &acc = accesses_[access];
            std::int64_t elems = 1;
            for (; dim < acc.dimsEnd; ++dim) {
                std::int64_t fp = 1;
                for (; term < dimTermsEnd_[dim]; ++term) {
                    const ir::AccessTerm &t = terms_[term];
                    fp += t.coeff *
                          (tiles[static_cast<std::size_t>(t.axis)] - 1);
                }
                elems *= fp;
            }
            const std::int64_t footprintBytes = elems * acc.elementSize;
            totalFootprintBytes += footprintBytes;

            const ScanStep *scanBegin = scan;
            scan = scan_.data() + acc.scanEnd;
            if (!acc.counted) {
                continue;
            }
            double multiplier = 1.0;
            walkReuseScan(scanBegin, scan, blocks.data(),
                          [&](AxisId, std::int64_t b, bool reused) {
                              if (!reused) {
                                  multiplier *= static_cast<double>(b);
                              }
                          });
            const double movement =
                static_cast<double>(footprintBytes) * multiplier;
            result.volumeBytes += movement;
            if (perTensorBytes != nullptr) {
                perTensorBytes[acc.tensor] += movement;
            }
        }
        result.memUsageBytes =
            std::max(result.memUsageBytes, totalFootprintBytes);
    }
    return result;
}

DataMovement
computeDataMovement(const Chain &chain, const std::vector<AxisId> &perm,
                    const std::vector<std::int64_t> &tiles,
                    const ModelOptions &options)
{
    const DataMovementModel model(chain, perm, options);
    validateTiles(chain, tiles);
    std::vector<double> perTensorBytes;
    DataMovement result = model.evaluate(tiles, perTensorBytes);
    result.perTensorBytes = std::move(perTensorBytes);
    return result;
}

std::vector<std::vector<AxisRole>>
intermediateAxisRoles(const Chain &chain,
                      const std::vector<std::int64_t> &tiles)
{
    validateTiles(chain, tiles);
    std::vector<std::vector<AxisRole>> roles;
    for (std::size_t t = 0; t < chain.tensors().size(); ++t) {
        const TensorDecl &tensor = chain.tensors()[t];
        if (tensor.kind != TensorKind::Intermediate) {
            continue;
        }
        std::vector<AxisRole> &role = roles.emplace_back(
            static_cast<std::size_t>(chain.numAxes()), AxisRole::None);
        for (const OpDecl &op : chain.ops()) {
            const bool touches =
                std::find(op.tensorIds.begin(), op.tensorIds.end(),
                          static_cast<int>(t)) != op.tensorIds.end();
            if (!touches) {
                continue;
            }
            for (AxisId axis : op.loops) {
                const ir::Axis &a =
                    chain.axes()[static_cast<std::size_t>(axis)];
                if (a.reorderable && a.extent > 1 &&
                    blockCount(chain, tiles, axis) > 1) {
                    role[static_cast<std::size_t>(axis)] =
                        tensor.usesAxis(axis) ? AxisRole::Region
                                              : AxisRole::User;
                }
            }
        }
    }
    return roles;
}

bool
isExecutableOrder(const std::vector<std::vector<AxisRole>> &roles,
                  const std::vector<AxisId> &perm)
{
    for (const std::vector<AxisRole> &role : roles) {
        bool userSeen = false;
        for (AxisId axis : perm) {
            const AxisRole r = role[static_cast<std::size_t>(axis)];
            if (r == AxisRole::User) {
                userSeen = true;
            } else if (r == AxisRole::Region && userSeen) {
                return false; // region revisited by an outer loop
            }
        }
    }
    return true;
}

bool
isExecutableOrder(const Chain &chain, const std::vector<AxisId> &perm)
{
    // Conservative: every reorderable multi-extent axis is assumed to
    // be blocked (tile < extent).
    std::vector<std::int64_t> ones(static_cast<std::size_t>(
                                       chain.numAxes()),
                                   1);
    return isExecutableOrder(chain, perm, ones);
}

bool
isExecutableOrder(const Chain &chain, const std::vector<AxisId> &perm,
                  const std::vector<std::int64_t> &tiles)
{
    validatePermutation(chain, perm);
    return isExecutableOrder(intermediateAxisRoles(chain, tiles), perm);
}

std::vector<std::vector<std::string>>
reuseAxesPerTensor(const Chain &chain, const std::vector<AxisId> &perm,
                   const std::vector<std::int64_t> &tiles)
{
    const DataMovementModel model(chain, perm);
    validateTiles(chain, tiles);
    std::vector<std::int64_t> blocks;
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        blocks.push_back(blockCount(chain, tiles, a));
    }
    auto nameOf = [&](AxisId axis) {
        return chain.axes()[static_cast<std::size_t>(axis)].name;
    };

    std::vector<std::vector<std::string>> reuse(chain.tensors().size());
    std::size_t access = 0;
    const DataMovementModel::ScanStep *scan = model.scan_.data();
    for (std::size_t op = 0; op < model.opAccessesEnd_.size(); ++op) {
        for (; access < model.opAccessesEnd_[op]; ++access) {
            const DataMovementModel::Access &acc = model.accesses_[access];
            const DataMovementModel::ScanStep *scanBegin = scan;
            scan = model.scan_.data() + acc.scanEnd;
            if (!acc.counted) {
                continue; // intermediates are never moved
            }
            std::vector<std::string> &axes =
                reuse[static_cast<std::size_t>(acc.tensor)];
            // Loops private to earlier producers never iterate over a
            // consumer's tensors (observation 3): the paper reports them
            // as reuse dimensions ("D and E are always reused along k").
            for (std::size_t i = 0; i < model.removedBefore_[op]; ++i) {
                const AxisId axis = model.removed_[i];
                if (blocks[static_cast<std::size_t>(axis)] > 1) {
                    axes.push_back(nameOf(axis));
                }
            }
            walkReuseScan(scanBegin, scan, blocks.data(),
                          [&](AxisId axis, std::int64_t, bool reused) {
                              if (reused) {
                                  axes.push_back(nameOf(axis));
                              }
                          });
        }
    }
    return reuse;
}

} // namespace chimera::model
