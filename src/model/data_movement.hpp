#pragma once

/**
 * @file
 * The paper's analytical data-movement model (Algorithm 1, §IV-B).
 *
 * Given an operator chain, a block execution order (a permutation of the
 * chain's independent axes, outermost first) and a tile-size vector S,
 * the model returns the total data movement volume (DV) of the chain's
 * input/output tensors and the peak on-chip memory usage (MU).
 *
 * Implementation notes relative to the paper's pseudo-code:
 *  - Axes whose tile covers the full extent have a single block; they are
 *    skipped in the keep_reuse scan (a one-block "loop" neither replaces
 *    a tile nor multiplies the volume). This is the block-level reading
 *    of the permutation the pseudo-code assumes.
 *  - An optional flag treats intermediate tensors as IO, which models the
 *    "no intermediate reuse" configuration of Figure 8f and the unfused
 *    baselines.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/chain.hpp"

namespace chimera::model {

/** Result of one Algorithm-1 evaluation. */
struct DataMovement
{
    /** Total data movement volume across IO tensors, in bytes. */
    double volumeBytes = 0.0;

    /** Peak on-chip memory usage (max over ops of tile footprints). */
    std::int64_t memUsageBytes = 0;

    /**
     * Per-tensor movement in bytes, indexed like Chain::tensors(); empty
     * when DataMovementModel::evaluate was not asked for it.
     */
    std::vector<double> perTensorBytes;
};

/** Options controlling the model evaluation. */
struct ModelOptions
{
    /**
     * When true, intermediate tensors are charged movement as if they
     * were spilled and re-read (Figure 8f / unfused execution).
     */
    bool intermediatesAreIO = false;
};

/**
 * Algorithm 1 compiled for one (chain, order, model options).
 *
 * Everything but the tile arithmetic depends only on those three, so the
 * constructor lays each (operator, tensor) access out once in flat
 * arrays: whether its movement is counted, its element size, its
 * footprint terms, and its reversed reuse scan (the operator's loops in
 * the active order, innermost first, each tagged with whether the tensor
 * uses it; private axes of earlier producers already removed).
 * evaluate() then walks those arrays for any number of tile vectors in
 * the same operation order as the pseudo-code, so every result is
 * bit-identical to a fresh computeDataMovement. The tile solver builds
 * one per solve.
 */
class DataMovementModel
{
  public:
    /**
     * Validates @p perm (see validatePermutation) and compiles. The
     * model keeps no reference to @p chain.
     */
    DataMovementModel(const ir::Chain &chain,
                      const std::vector<ir::AxisId> &perm,
                      const ModelOptions &options = {});

    /**
     * DV and MU for @p tiles, which must pass validateTiles; the result's
     * perTensorBytes stays empty. Allocates nothing.
     */
    DataMovement evaluate(const std::vector<std::int64_t> &tiles) const;

    /**
     * As above, and sets @p perTensorBytes to the movement of each tensor
     * (indexed like Chain::tensors()).
     */
    DataMovement evaluate(const std::vector<std::int64_t> &tiles,
                          std::vector<double> &perTensorBytes) const;

  private:
    friend std::vector<std::vector<std::string>>
    reuseAxesPerTensor(const ir::Chain &chain,
                       const std::vector<ir::AxisId> &perm,
                       const std::vector<std::int64_t> &tiles);

    /** Axes a compiled model supports (its evaluations use no heap). */
    static constexpr int kMaxAxes = 64;

    /** One step of a reversed reuse scan. */
    struct ScanStep
    {
        ir::AxisId axis = 0;
        bool usesTensor = false;
    };

    /** One tensor access of one operator (ops in order, then tensors). */
    struct Access
    {
        int tensor = 0;
        std::int64_t elementSize = 0;
        bool counted = false;
        std::size_t dimsEnd = 0; ///< end of its dims in dimTermsEnd_
        std::size_t scanEnd = 0; ///< end of its scan in scan_
    };

    DataMovement evaluateInto(const std::vector<std::int64_t> &tiles,
                              double *perTensorBytes) const;

    std::vector<std::int64_t> extents_;
    std::size_t numTensors_ = 0;
    std::vector<ir::AccessTerm> terms_;
    std::vector<std::size_t> dimTermsEnd_; ///< per dim, end in terms_
    std::vector<ScanStep> scan_;
    std::vector<Access> accesses_;
    std::vector<std::size_t> opAccessesEnd_; ///< per op, end in accesses_
    /** Private axes in removal order (Algorithm 1 lines 17-19). */
    std::vector<ir::AxisId> removed_;
    /** Per op, how many of removed_ its earlier producers removed. */
    std::vector<std::size_t> removedBefore_;
};

/**
 * Algorithm 1: data movement volume and memory usage, with per-tensor
 * movement. Validates @p perm and @p tiles, then evaluates a
 * DataMovementModel once; callers evaluating many tile vectors for one
 * order build the model themselves.
 *
 * @param chain The operator chain.
 * @param perm  All axis ids, outermost first. Must be a permutation of
 *              0..numAxes-1.
 * @param tiles Tile size per axis (1 <= tile <= extent), indexed by axis.
 */
DataMovement computeDataMovement(const ir::Chain &chain,
                                 const std::vector<ir::AxisId> &perm,
                                 const std::vector<std::int64_t> &tiles,
                                 const ModelOptions &options = {});

/**
 * Reuse summary used by diagnostics and the Figure-2 table bench: for
 * each IO tensor, the names of the axes along which the tensor is fully
 * reused under @p perm with the given tiles (i.e. block loops that do not
 * multiply its movement).
 */
std::vector<std::vector<std::string>>
reuseAxesPerTensor(const ir::Chain &chain,
                   const std::vector<ir::AxisId> &perm,
                   const std::vector<std::int64_t> &tiles);

/**
 * True when @p perm can be executed with each intermediate tensor held
 * as a single on-chip region: every reorderable multi-block axis used by
 * an intermediate's producer or consumer but not indexing the
 * intermediate itself (reduction axes like k, consumer-only axes like n)
 * must sit inner to every axis that indexes the intermediate. Orders
 * violating this would revisit a region after eviction, which the
 * on-chip-intermediate assumption of Algorithm 1 cannot express; the
 * planner only selects executable orders (the paper's validated optima,
 * e.g. mlkn/mlnk, are all executable).
 */
bool isExecutableOrder(const ir::Chain &chain,
                       const std::vector<ir::AxisId> &perm);

/**
 * Tile-aware variant: axes whose tile covers the full extent have a
 * single block and impose no ordering constraint (e.g. a middle-GEMM
 * output held as a full panel in a three-operator chain).
 */
bool isExecutableOrder(const ir::Chain &chain,
                       const std::vector<ir::AxisId> &perm,
                       const std::vector<std::int64_t> &tiles);

/** How an axis relates to one on-chip intermediate tensor. */
enum class AxisRole : std::uint8_t
{
    None, ///< not a free loop of the intermediate's producer or consumer
    Region, ///< a free loop that indexes the intermediate
    User, ///< a free loop of its producer or consumer that does not
};

/**
 * The region and user axes behind isExecutableOrder: per intermediate
 * tensor (in tensor order), the role of every axis, indexed by AxisId.
 * Free axes are reorderable, have extent > 1 and more than one block
 * under @p tiles (validated). They depend on the chain and the tiles,
 * not on the order, so a search derives them once.
 */
std::vector<std::vector<AxisRole>>
intermediateAxisRoles(const ir::Chain &chain,
                      const std::vector<std::int64_t> &tiles);

/**
 * isExecutableOrder by axis positions alone: for each intermediate of
 * @p roles, every Region axis precedes every User axis in @p perm, which
 * must be a valid permutation.
 */
bool isExecutableOrder(const std::vector<std::vector<AxisRole>> &roles,
                       const std::vector<ir::AxisId> &perm);

/** Validates that @p perm is a permutation of all chain axes. */
void validatePermutation(const ir::Chain &chain,
                         const std::vector<ir::AxisId> &perm);

/** Validates 1 <= tiles[a] <= extent(a) for every axis. */
void validateTiles(const ir::Chain &chain,
                   const std::vector<std::int64_t> &tiles);

} // namespace chimera::model
