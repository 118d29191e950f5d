#include "analysis/static_safety.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "support/str.hpp"
#include "support/timer.hpp"

namespace chimera::analysis {

using ir::AxisId;
using ir::Chain;

namespace {

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();

/** Clamps a 128-bit value into int64, recording saturation in @p ovf. */
std::int64_t
clamp128(__int128 v, bool &ovf)
{
    if (v > static_cast<__int128>(kInt64Max)) {
        ovf = true;
        return kInt64Max;
    }
    if (v < static_cast<__int128>(kInt64Min)) {
        ovf = true;
        return kInt64Min;
    }
    return static_cast<std::int64_t>(v);
}

std::int64_t
checkedAdd(std::int64_t a, std::int64_t b, bool &ovf)
{
    return clamp128(static_cast<__int128>(a) + static_cast<__int128>(b), ovf);
}

std::int64_t
checkedMul(std::int64_t a, std::int64_t b, bool &ovf)
{
    return clamp128(static_cast<__int128>(a) * static_cast<__int128>(b), ovf);
}

std::string
axisName(const Chain &chain, AxisId a)
{
    return chain.axes()[static_cast<std::size_t>(a)].name;
}

} // namespace

SymRange
addRanges(const SymRange &a, const SymRange &b)
{
    SymRange out;
    out.overflow = a.overflow || b.overflow;
    out.lo = checkedAdd(a.lo, b.lo, out.overflow);
    out.hi = checkedAdd(a.hi, b.hi, out.overflow);
    return out;
}

SymRange
mulRanges(const SymRange &a, const SymRange &b)
{
    SymRange out;
    out.overflow = a.overflow || b.overflow;
    const __int128 products[4] = {
        static_cast<__int128>(a.lo) * static_cast<__int128>(b.lo),
        static_cast<__int128>(a.lo) * static_cast<__int128>(b.hi),
        static_cast<__int128>(a.hi) * static_cast<__int128>(b.lo),
        static_cast<__int128>(a.hi) * static_cast<__int128>(b.hi),
    };
    __int128 lo = products[0];
    __int128 hi = products[0];
    for (int i = 1; i < 4; ++i) {
        lo = std::min(lo, products[i]);
        hi = std::max(hi, products[i]);
    }
    out.lo = clamp128(lo, out.overflow);
    out.hi = clamp128(hi, out.overflow);
    return out;
}

ShapeDomain
ShapeDomain::concrete(const Chain &chain)
{
    ShapeDomain d;
    d.lo = chain.fullExtents();
    d.hi = d.lo;
    return d;
}

bool
ShapeDomain::isConcrete(const Chain &chain) const
{
    const std::vector<std::int64_t> extents = chain.fullExtents();
    return lo == extents && hi == extents;
}

std::string
ShapeDomain::summary(const Chain &chain) const
{
    std::string out;
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        const std::size_t i = static_cast<std::size_t>(a);
        const std::int64_t extent = chain.axes()[i].extent;
        if (lo[i] == extent && hi[i] == extent) {
            continue;
        }
        if (!out.empty()) {
            out += ",";
        }
        out += chain.axes()[i].name + ":" + std::to_string(lo[i]) + ".." +
               std::to_string(hi[i]);
    }
    return out.empty() ? "concrete" : out;
}

ShapeDomain
parseShapeDomain(const Chain &chain, const std::string &spec,
                 const std::string &context)
{
    ShapeDomain domain = ShapeDomain::concrete(chain);
    if (spec == "concrete") {
        return domain;
    }
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string entry =
            spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const std::size_t colon = entry.find(':');
        const std::size_t dots = entry.find("..");
        if (entry.empty() || colon == std::string::npos ||
            dots == std::string::npos || dots < colon) {
            throw Error(context + ": malformed shape-domain entry \"" +
                        entry + "\" (expected axis:lo..hi)");
        }
        const std::string name = entry.substr(0, colon);
        const std::int64_t lo = parseInt64Strict(
            entry.substr(colon + 1, dots - colon - 1), context + " domain lo");
        const std::int64_t hi =
            parseInt64Strict(entry.substr(dots + 2), context + " domain hi");
        AxisId axis = -1;
        for (AxisId a = 0; a < chain.numAxes(); ++a) {
            if (chain.axes()[static_cast<std::size_t>(a)].name == name) {
                axis = a;
                break;
            }
        }
        if (axis < 0) {
            throw Error(context + ": shape domain names unknown axis \"" +
                        name + "\"");
        }
        const std::size_t i = static_cast<std::size_t>(axis);
        const std::int64_t extent = chain.axes()[i].extent;
        if (lo < 1 || hi < lo || extent < lo || extent > hi) {
            throw Error(context + ": shape-domain range " + name + ":" +
                        std::to_string(lo) + ".." + std::to_string(hi) +
                        " must satisfy 1 <= lo <= extent " +
                        std::to_string(extent) + " <= hi");
        }
        domain.lo[i] = lo;
        domain.hi[i] = hi;
        if (comma == std::string::npos) {
            break;
        }
        pos = comma + 1;
    }
    return domain;
}

const char *
safetyRuleName(SafetyRule rule)
{
    switch (rule) {
      case SafetyRule::SB01: return "SB01";
      case SafetyRule::SB02: return "SB02";
      case SafetyRule::SB03: return "SB03";
      case SafetyRule::SB04: return "SB04";
    }
    return "?";
}

std::string
SafetyAnalysis::renderViolations() const
{
    std::string out;
    for (const SafetyViolation &v : violations) {
        if (!out.empty()) {
            out += "; ";
        }
        out += std::string(safetyRuleName(v.rule)) + " " + v.location + ": " +
               v.message;
    }
    return out;
}

namespace {

/** Shared state threaded through the per-rule passes. */
struct Pass
{
    const Chain &chain;
    const std::vector<std::int64_t> &tiles;
    const std::vector<AxisConcurrency> &kinds;
    const ShapeDomain &domain;
    int workers;
    std::vector<SafetyViolation> &violations;

    void add(SafetyRule rule, std::string location, std::string message)
    {
        violations.push_back(
            {rule, std::move(location), std::move(message)});
    }
};

/**
 * SB01: containment of every block window. The executors clamp block
 * windows at the tensor edge, so for an access dimension with terms
 * coeff_t * i_t the maximal accessed index under clamping is exactly
 * sum_t coeff_t * (L_t - 1) — the dimension extent minus one — for
 * every shape, *provided* each tile satisfies 1 <= T_t <= L_t. The
 * symbolic difference (accessed max) - (extent - 1) cancels term by
 * term to 0, shape-independently. A tile above the domain's smallest
 * admissible extent breaks the cancellation with a concrete witness
 * (L_t = lo_t), so containment fails for that shape; a tile below 1
 * makes the window degenerate.
 */
void
checkBounds(Pass &p)
{
    std::vector<bool> tileReported(p.tiles.size(), false);
    for (const ir::TensorDecl &tensor : p.chain.tensors()) {
        for (std::size_t d = 0; d < tensor.dims.size(); ++d) {
            for (const ir::AccessTerm &term : tensor.dims[d].terms) {
                const std::size_t a = static_cast<std::size_t>(term.axis);
                const std::int64_t tile = p.tiles[a];
                const std::string loc =
                    tensor.name + " dim " + std::to_string(d);
                if (tile < 1) {
                    if (!tileReported[a]) {
                        tileReported[a] = true;
                        p.add(SafetyRule::SB01, loc,
                              "tile " + std::to_string(tile) + " on axis " +
                                  axisName(p.chain, term.axis) +
                                  " is degenerate; block windows are "
                                  "ill-formed");
                    }
                    continue;
                }
                const std::int64_t minExtent = p.domain.lo[a];
                if (tile > minExtent) {
                    bool ovf = false;
                    const std::int64_t reach =
                        checkedMul(term.coeff, tile - 1, ovf);
                    p.add(SafetyRule::SB01, loc,
                          "axis " + axisName(p.chain, term.axis) + " tile " +
                              std::to_string(tile) +
                              " exceeds the smallest admissible extent " +
                              std::to_string(minExtent) +
                              ": the first block's window reaches index " +
                              (ovf ? std::string("> int64")
                                   : std::to_string(reach)) +
                              " outside the dimension");
                }
                // tile within [1, min extent]: the clamped window's max
                // index cancels exactly against the dimension extent for
                // every shape in the domain — contained, no violation.
            }
        }
    }
}

/**
 * Exact full-tile footprint of @p tensor in bytes under the pass's
 * tiles, in 128-bit-checked arithmetic. Returns saturated int64 and
 * sets @p ovf on overflow.
 */
std::int64_t
checkedFootprintBytes(const Pass &p, const ir::TensorDecl &tensor, bool &ovf)
{
    std::int64_t elems = 1;
    for (const ir::AccessDim &dim : tensor.dims) {
        std::int64_t width = 1;
        for (const ir::AccessTerm &term : dim.terms) {
            const std::size_t a = static_cast<std::size_t>(term.axis);
            width = checkedAdd(
                width, checkedMul(term.coeff, p.tiles[a] - 1, ovf), ovf);
        }
        elems = checkedMul(elems, width, ovf);
    }
    return checkedMul(elems, tensor.elementSize, ovf);
}

/**
 * SB02: the per-worker budget must dominate the maximum live window
 * over the block grid. Footprint terms 1 + coeff*(T-1) are maximized
 * by full-tile blocks (edge blocks clamp to smaller windows), so the
 * symbolic max over the whole grid — for every shape in the domain —
 * is the sum of full-tile operand footprints of the widest operator.
 * This is the integer-exact cross-check of the Section V-B budget the
 * planner (PL07) and kernel-parameter rules (KP) evaluate in doubles.
 */
void
checkWorkspace(Pass &p, const SafetyOptions &options,
               std::int64_t &maxLiveBytes, bool &liveOverflow)
{
    maxLiveBytes = 0;
    liveOverflow = false;
    std::string widestOp;
    for (const ir::OpDecl &op : p.chain.ops()) {
        std::int64_t live = 0;
        bool ovf = false;
        for (const int tid : op.tensorIds) {
            live = checkedAdd(
                live,
                checkedFootprintBytes(
                    p, p.chain.tensors()[static_cast<std::size_t>(tid)], ovf),
                ovf);
        }
        if (ovf) {
            liveOverflow = true;
            p.add(SafetyRule::SB03, op.name,
                  "live-window size computation overflows int64");
            continue;
        }
        if (live > maxLiveBytes) {
            maxLiveBytes = live;
            widestOp = op.name;
        }
    }

    if (options.memCapacityBytes <= 0.0 || liveOverflow) {
        return; // unconstrained planning mode, or already an SB03
    }
    const double budget = model::clampedPerWorkerBudgetBytes(
        options.memCapacityBytes, options.topology, p.workers);
    if (static_cast<double>(maxLiveBytes) > budget) {
        p.add(SafetyRule::SB02, widestOp,
              "maximum live window " + std::to_string(maxLiveBytes) +
                  " bytes exceeds the per-worker budget " +
                  std::to_string(static_cast<std::int64_t>(budget)) +
                  " bytes at " + std::to_string(p.workers) + " worker(s)");
    }
}

/**
 * SB03: interval range analysis of the index arithmetic the lowered
 * nests and dispatch loops perform, at the domain's upper extents
 * (where every quantity is largest): linearized tensor element/byte
 * offsets, per-operator block-grid task counts, and the aggregate
 * per-worker workspace.
 */
void
checkOverflow(Pass &p, std::int64_t maxLiveBytes, bool liveOverflow)
{
    // Linearized element and byte offsets per tensor at upper extents.
    for (const ir::TensorDecl &tensor : p.chain.tensors()) {
        bool ovf = false;
        std::int64_t elems = 1;
        for (const ir::AccessDim &dim : tensor.dims) {
            std::int64_t extent = 1;
            for (const ir::AccessTerm &term : dim.terms) {
                const std::size_t a = static_cast<std::size_t>(term.axis);
                extent = checkedAdd(
                    extent,
                    checkedMul(term.coeff, p.domain.hi[a] - 1, ovf), ovf);
            }
            elems = checkedMul(elems, extent, ovf);
        }
        const std::int64_t bytes =
            checkedMul(elems, tensor.elementSize, ovf);
        (void)bytes;
        if (ovf) {
            p.add(SafetyRule::SB03, tensor.name,
                  "linearized element/byte offset overflows int64 at the "
                  "domain's upper extents");
        }
    }

    // Block-grid task counts per operator.
    for (const ir::OpDecl &op : p.chain.ops()) {
        bool ovf = false;
        std::int64_t tasks = 1;
        for (AxisId a = 0; a < p.chain.numAxes(); ++a) {
            if (!op.usesLoop(a)) {
                continue;
            }
            const std::size_t i = static_cast<std::size_t>(a);
            const std::int64_t tile = std::max<std::int64_t>(1, p.tiles[i]);
            tasks =
                checkedMul(tasks, ceilDiv(p.domain.hi[i], tile), ovf);
        }
        if (ovf) {
            p.add(SafetyRule::SB03, op.name,
                  "block-grid task count overflows int64 at the domain's "
                  "upper extents");
        }
    }

    // Aggregate workspace: every worker keeps a private live window.
    if (!liveOverflow) {
        bool ovf = false;
        (void)checkedMul(maxLiveBytes, std::max(1, p.workers), ovf);
        if (ovf) {
            p.add(SafetyRule::SB03, "workspace",
                  "aggregate per-worker workspace allocation overflows "
                  "int64");
        }
    }
}

/**
 * SB04: shape-generic disjointness for every parallel-marked axis.
 * The dynamic test (dependence.cpp) proves step >= width at one
 * concrete shape; here the width is evaluated at the domain's *upper*
 * extents, where it is largest — step = coeff_a * T_a is shape-free,
 * so step >= width(hi) implies disjoint windows for every admissible
 * shape. Reduction facts (output map missing the axis) and softmax
 * row coupling are shape-independent, so a parallel mark on such an
 * axis is refuted outright.
 */
void
checkDisjointness(Pass &p)
{
    for (AxisId axis = 0; axis < p.chain.numAxes(); ++axis) {
        const std::size_t ai = static_cast<std::size_t>(axis);
        if (p.kinds[ai] != AxisConcurrency::Parallel) {
            continue; // reduction/sequential axes run serially
        }
        const std::int64_t tile = std::max<std::int64_t>(1, p.tiles[ai]);
        for (const ir::OpDecl &op : p.chain.ops()) {
            if (!op.usesLoop(axis)) {
                continue;
            }
            const ir::TensorDecl &out =
                p.chain.tensors()[static_cast<std::size_t>(
                    op.outputTensorId)];
            if (!out.usesAxis(axis)) {
                p.add(SafetyRule::SB04, op.name,
                      "axis " + axisName(p.chain, axis) +
                          " is marked parallel but " + op.name +
                          " accumulates into " + out.name +
                          ", whose access map does not use it (a "
                          "shape-independent reduction)");
                continue;
            }
            if (ceilDiv(p.domain.hi[ai], tile) <= 1) {
                continue; // one block over the whole domain
            }
            bool disjoint = false;
            for (const ir::AccessDim &dim : out.dims) {
                if (!dim.usesAxis(axis)) {
                    continue;
                }
                bool ovf = false;
                std::int64_t step = 0;
                std::int64_t width = 1;
                for (const ir::AccessTerm &term : dim.terms) {
                    const std::size_t ti =
                        static_cast<std::size_t>(term.axis);
                    if (term.axis == axis) {
                        step = checkedMul(term.coeff, tile, ovf);
                        width = checkedAdd(
                            width, checkedMul(term.coeff, tile - 1, ovf),
                            ovf);
                    } else {
                        width = checkedAdd(
                            width,
                            checkedMul(term.coeff, p.domain.hi[ti] - 1,
                                       ovf),
                            ovf);
                    }
                }
                if (!ovf && step >= width) {
                    disjoint = true;
                    break;
                }
            }
            if (disjoint) {
                continue;
            }
            if (out.kind == ir::TensorKind::Intermediate) {
                // Halo recompute: overlapping intermediate windows are
                // privatized per worker — redundant FLOPs, no race.
                continue;
            }
            p.add(SafetyRule::SB04, op.name,
                  "axis " + axisName(p.chain, axis) +
                      " is marked parallel but distinct blocks can write "
                      "overlapping " +
                      out.name + " indices for shapes up to the domain's "
                                 "upper extents");
        }
    }

    // Softmax row normalization couples every block of the row axes of
    // the intermediate's last access dimension for *every* shape.
    if (p.chain.intermediateEpilogue() == ir::Epilogue::Softmax) {
        for (const ir::TensorDecl &tensor : p.chain.tensors()) {
            if (tensor.kind != ir::TensorKind::Intermediate ||
                tensor.dims.empty()) {
                continue;
            }
            for (const ir::AccessTerm &term : tensor.dims.back().terms) {
                const std::size_t ti = static_cast<std::size_t>(term.axis);
                if (p.kinds[ti] == AxisConcurrency::Parallel) {
                    p.add(SafetyRule::SB04, tensor.name,
                          "axis " + axisName(p.chain, term.axis) +
                              " is marked parallel but the softmax row "
                              "normalization accumulates across its "
                              "blocks of " +
                              tensor.name);
                }
            }
        }
    }
}

} // namespace

SafetyAnalysis
analyzeSafety(const Chain &chain, const std::vector<std::int64_t> &tiles,
              const std::vector<AxisConcurrency> &kinds, int workers,
              const ShapeDomain &domain, const SafetyOptions &options)
{
    CHIMERA_CHECK(static_cast<int>(tiles.size()) == chain.numAxes(),
                  "static safety analysis needs one tile per axis");
    CHIMERA_CHECK(static_cast<int>(kinds.size()) == chain.numAxes(),
                  "static safety analysis needs one concurrency kind per "
                  "axis");
    CHIMERA_CHECK(static_cast<int>(domain.lo.size()) == chain.numAxes() &&
                      static_cast<int>(domain.hi.size()) == chain.numAxes(),
                  "shape domain arity mismatch");

    const WallTimer total;
    SafetyAnalysis analysis;
    Pass pass{chain, tiles, kinds, domain, std::max(1, workers),
              analysis.violations};

    {
        const WallTimer t;
        checkBounds(pass);
        analysis.ruleSeconds[0] = t.seconds();
    }
    std::int64_t maxLiveBytes = 0;
    bool liveOverflow = false;
    {
        const WallTimer t;
        checkWorkspace(pass, options, maxLiveBytes, liveOverflow);
        analysis.ruleSeconds[1] = t.seconds();
    }
    {
        const WallTimer t;
        checkOverflow(pass, maxLiveBytes, liveOverflow);
        analysis.ruleSeconds[2] = t.seconds();
    }
    {
        const WallTimer t;
        checkDisjointness(pass);
        analysis.ruleSeconds[3] = t.seconds();
    }

    SafetyCertificate &cert = analysis.certificate;
    cert.domain = domain.summary(chain);
    cert.rules = "sb01,sb02,sb03,sb04";
    cert.certified = analysis.violations.empty();
    analysis.totalSeconds = total.seconds();
    return analysis;
}

} // namespace chimera::analysis
