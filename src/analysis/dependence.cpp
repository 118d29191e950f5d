#include "analysis/dependence.hpp"

#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace chimera::analysis {

using ir::AxisId;
using ir::Chain;

namespace {

/** Severity order for combining per-operator classes over the chain. */
int
rankOf(AxisConcurrency kind)
{
    switch (kind) {
      case AxisConcurrency::Parallel: return 0;
      case AxisConcurrency::Reduction: return 1;
      case AxisConcurrency::Sequential: return 2;
    }
    return 2;
}

/**
 * Write-write conflict test for axis @p axis on one access dimension of
 * an output tensor: true when advancing the block index of the axis
 * shifts the written window by at least the window's width.
 */
bool
blocksDisjointAlongDim(const Chain &chain, const ir::AccessDim &dim,
                       AxisId axis, const std::vector<std::int64_t> &tiles)
{
    std::int64_t step = 0;
    std::int64_t width = 1;
    for (const ir::AccessTerm &term : dim.terms) {
        if (term.axis == axis) {
            step = term.coeff * tiles[static_cast<std::size_t>(axis)];
            width +=
                term.coeff * (tiles[static_cast<std::size_t>(axis)] - 1);
        } else {
            width += term.coeff *
                     (chain.axes()[static_cast<std::size_t>(term.axis)]
                          .extent -
                      1);
        }
    }
    return step >= width;
}

/** Per-operator classification of @p axis (the op must use the axis). */
AxisClassification
classifyForOp(const Chain &chain, const ir::OpDecl &op, AxisId axis,
              const std::vector<std::int64_t> &tiles)
{
    const std::string &axisName =
        chain.axes()[static_cast<std::size_t>(axis)].name;
    const ir::TensorDecl &out =
        chain.tensors()[static_cast<std::size_t>(op.outputTensorId)];

    AxisClassification cls;
    if (!out.usesAxis(axis)) {
        cls.kind = AxisConcurrency::Reduction;
        cls.reason = op.name + " accumulates into " + out.name +
                     ", whose access map does not use " + axisName;
        return cls;
    }

    const std::int64_t extent =
        chain.axes()[static_cast<std::size_t>(axis)].extent;
    const std::int64_t blocks =
        ceilDiv(extent, tiles[static_cast<std::size_t>(axis)]);
    if (blocks <= 1) {
        cls.kind = AxisConcurrency::Parallel;
        cls.reason = "single block covers the full extent of " + axisName;
        return cls;
    }

    for (const ir::AccessDim &dim : out.dims) {
        if (dim.usesAxis(axis) &&
            blocksDisjointAlongDim(chain, dim, axis, tiles)) {
            cls.kind = AxisConcurrency::Parallel;
            cls.reason = "distinct " + axisName + " blocks write disjoint " +
                         out.name + " indices";
            return cls;
        }
    }
    if (out.kind == ir::TensorKind::Intermediate) {
        // The fused executors privatize intermediate regions per worker
        // and recompute the halo, so the overlap is redundant work, not
        // a write conflict.
        cls.kind = AxisConcurrency::Parallel;
        cls.reason = "overlapping " + out.name +
                     " halo is recomputed per block (intermediate)";
        return cls;
    }
    cls.kind = AxisConcurrency::Sequential;
    cls.reason = "distinct " + axisName + " blocks write overlapping " +
                 out.name + " indices";
    return cls;
}

} // namespace

const char *
concurrencyName(AxisConcurrency kind)
{
    switch (kind) {
      case AxisConcurrency::Parallel: return "parallel";
      case AxisConcurrency::Reduction: return "reduction";
      case AxisConcurrency::Sequential: return "sequential";
    }
    return "?";
}

AxisConcurrency
ConcurrencyTable::kindOf(AxisId axis) const
{
    return axes[static_cast<std::size_t>(axis)].kind;
}

bool
ConcurrencyTable::isParallel(AxisId axis) const
{
    return kindOf(axis) == AxisConcurrency::Parallel;
}

std::vector<AxisConcurrency>
ConcurrencyTable::kinds() const
{
    std::vector<AxisConcurrency> out;
    out.reserve(axes.size());
    for (const AxisClassification &cls : axes) {
        out.push_back(cls.kind);
    }
    return out;
}

std::string
ConcurrencyTable::summary(const Chain &chain) const
{
    std::string out;
    for (std::size_t a = 0; a < axes.size(); ++a) {
        if (!out.empty()) {
            out += " ";
        }
        out += chain.axes()[a].name;
        out += "=";
        out += concurrencyName(axes[a].kind);
    }
    return out;
}

ConcurrencyTable
analyzeConcurrency(const Chain &chain,
                   const std::vector<std::int64_t> &tiles)
{
    CHIMERA_CHECK(static_cast<int>(tiles.size()) == chain.numAxes(),
                  "concurrency analysis needs one tile per axis");

    ConcurrencyTable table;
    table.axes.resize(static_cast<std::size_t>(chain.numAxes()));
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        AxisClassification &cls =
            table.axes[static_cast<std::size_t>(a)];
        cls.kind = AxisConcurrency::Parallel;
        cls.reason = "axis is not used by any operator";
        bool used = false;
        for (const ir::OpDecl &op : chain.ops()) {
            if (!op.usesLoop(a)) {
                continue;
            }
            const AxisClassification opCls =
                classifyForOp(chain, op, a, tiles);
            if (!used || rankOf(opCls.kind) > rankOf(cls.kind)) {
                cls.kind = opCls.kind;
                cls.reason = opCls.reason;
            }
            used = true;
        }
    }

    // A softmax epilogue accumulates a row sum across the intermediate's
    // last access dimension: every block of an axis in that dimension
    // contributes to the same per-row totals, so those axes cannot run
    // in parallel even though the operator-level write sets are disjoint.
    if (chain.intermediateEpilogue() == ir::Epilogue::Softmax) {
        for (const ir::TensorDecl &tensor : chain.tensors()) {
            if (tensor.kind != ir::TensorKind::Intermediate ||
                tensor.dims.empty()) {
                continue;
            }
            const ir::AccessDim &rowDim = tensor.dims.back();
            for (const ir::AccessTerm &term : rowDim.terms) {
                AxisClassification &cls =
                    table.axes[static_cast<std::size_t>(term.axis)];
                cls.epilogueInduced = true;
                if (cls.kind == AxisConcurrency::Parallel) {
                    cls.kind = AxisConcurrency::Reduction;
                    cls.reason = "softmax row normalization accumulates "
                                 "across " +
                                 chain.axes()[static_cast<std::size_t>(
                                                  term.axis)]
                                     .name +
                                 " blocks of " + tensor.name;
                }
            }
        }
    }
    return table;
}

} // namespace chimera::analysis
