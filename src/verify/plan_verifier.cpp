#include "verify/plan_verifier.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "model/data_movement.hpp"
#include "support/mathutil.hpp"

namespace chimera::verify {

using ir::AxisId;
using ir::Chain;
using ir::OpDecl;
using ir::TensorDecl;
using ir::TensorKind;

namespace {

std::string
axisName(const Chain &chain, AxisId axis)
{
    return chain.axes()[static_cast<std::size_t>(axis)].name;
}

std::string
formatDouble(double v)
{
    // Predictions are byte counts; print them integral when they are.
    if (v == std::floor(v) && std::abs(v) < 9e15) {
        return std::to_string(static_cast<std::int64_t>(v));
    }
    return std::to_string(v);
}

/**
 * Tolerance for comparing a declared prediction against the re-derived
 * value: serialization truncates doubles to whole bytes, so allow the
 * rounding slack plus a relative epsilon for large volumes.
 */
bool
predictionsDiffer(double declared, double rederived)
{
    const double tolerance =
        std::max(2.0, 1e-6 * std::abs(rederived));
    return std::abs(declared - rederived) > tolerance;
}

/**
 * PL03: @p perm must be a permutation of all chain axes. Returns true
 * when it is (the model evaluation below needs that to hold).
 */
bool
checkPermutation(const Chain &chain, const std::vector<AxisId> &perm,
                 Report &report)
{
    bool ok = true;
    if (static_cast<int>(perm.size()) != chain.numAxes()) {
        report.error("PL03", "order",
                     "order lists " + std::to_string(perm.size()) +
                         " axes but the chain has " +
                         std::to_string(chain.numAxes()));
        ok = false;
    }
    std::vector<int> seen(static_cast<std::size_t>(chain.numAxes()), 0);
    for (AxisId axis : perm) {
        if (axis < 0 || axis >= chain.numAxes()) {
            report.error("PL03", "order",
                         "order references unknown axis id " +
                             std::to_string(axis));
            ok = false;
            continue;
        }
        if (++seen[static_cast<std::size_t>(axis)] == 2) {
            report.error("PL03", "order",
                         "axis " + axisName(chain, axis) +
                             " appears more than once");
            ok = false;
        }
    }
    return ok;
}

/** PL04/PL05: tile vector arity and per-axis [1, extent] range. */
bool
checkTiles(const Chain &chain, const std::vector<std::int64_t> &tiles,
           Report &report)
{
    if (static_cast<int>(tiles.size()) != chain.numAxes()) {
        report.error("PL05", "tiles",
                     "tile vector has " + std::to_string(tiles.size()) +
                         " entries but the chain has " +
                         std::to_string(chain.numAxes()) + " axes");
        return false;
    }
    bool ok = true;
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        const std::int64_t tile = tiles[static_cast<std::size_t>(a)];
        const std::int64_t extent =
            chain.axes()[static_cast<std::size_t>(a)].extent;
        if (tile < 1 || tile > extent) {
            report.error("PL04", "tiles." + axisName(chain, a),
                         "tile " + std::to_string(tile) +
                             " is outside [1, " + std::to_string(extent) +
                             "]");
            ok = false;
        }
    }
    return ok;
}

/**
 * PL06/PL07/PL09 once the schedule is structurally valid. Returns the
 * re-derived movement so callers can compare declared predictions.
 */
model::DataMovement
checkLegality(const Chain &chain, const std::vector<AxisId> &perm,
              const std::vector<std::int64_t> &tiles,
              const PlanVerifyOptions &options, Report &report)
{
    if (options.requireExecutableOrder &&
        !model::isExecutableOrder(chain, perm, tiles)) {
        report.error("PL06", "order",
                     "block order is not executable with single on-chip"
                     " intermediate regions (an outer loop revisits an"
                     " intermediate region after eviction)");
    }

    const model::DataMovement dm =
        model::computeDataMovement(chain, perm, tiles, options.model);
    if (options.memCapacityBytes > 0.0 &&
        static_cast<double>(dm.memUsageBytes) > options.memCapacityBytes) {
        report.error(
            "PL07", "mem-bytes",
            "re-derived memory usage " +
                std::to_string(dm.memUsageBytes) +
                " B exceeds the capacity " +
                formatDouble(options.memCapacityBytes) + " B");
    }

    if (options.recount) {
        const std::optional<model::DataMovement> recount =
            bruteForceDataMovement(chain, perm, tiles, options.model,
                                   options.recountMaxBlocks);
        if (!recount) {
            report.note("PL09", "volume-bytes",
                        "block grid too large for the brute-force"
                        " recount; skipped");
        } else {
            for (std::size_t t = 0; t < chain.tensors().size(); ++t) {
                const double algo = dm.perTensorBytes[t];
                const double brute = recount->perTensorBytes[t];
                if (std::abs(algo - brute) > 0.5) {
                    report.error(
                        "PL09",
                        "tensor " + chain.tensors()[t].name,
                        "Algorithm 1 predicts " + formatDouble(algo) +
                            " B moved but the brute-force recount"
                            " measures " +
                            formatDouble(brute) + " B");
                }
            }
            if (recount->memUsageBytes != dm.memUsageBytes) {
                report.error(
                    "PL09", "mem-bytes",
                    "Algorithm 1 predicts " +
                        std::to_string(dm.memUsageBytes) +
                        " B peak usage but the independent recount"
                        " measures " +
                        std::to_string(recount->memUsageBytes) + " B");
            }
        }
    }
    return dm;
}

/** PL13: a plan's planned worker count must be >= 1. */
void
checkPlannedThreads(int plannedThreads, Report &report)
{
    if (plannedThreads < 1) {
        report.error("PL13", "threads",
                     "planned thread count " +
                         std::to_string(plannedThreads) + " must be >= 1");
    }
}

/**
 * PL13 capacity check: every one of @p workers concurrent workers keeps
 * a full tile working set resident, so the footprint must fit one
 * worker's share of the topology's tightest shared level.
 */
void
checkPerWorkerShare(std::int64_t memUsageBytes, int workers,
                    const model::MachineModel &topology, Report &report)
{
    if (workers <= 1 || !topology.hasTopology()) {
        return;
    }
    const double share =
        model::minSharedPerWorkerCapacityBytes(topology, workers);
    if (static_cast<double>(memUsageBytes) > share) {
        report.error(
            "PL13", "mem-bytes",
            "per-worker footprint " + std::to_string(memUsageBytes) +
                " B exceeds one of " + std::to_string(workers) +
                " workers' share (" + formatDouble(share) +
                " B) of machine " + topology.name +
                "'s tightest shared level");
    }
}

/** PL08: a plan's predictions against the re-derived values. */
void
checkPredictions(const model::DataMovement &dm,
                 const plan::ExecutionPlan &plan, Report &report)
{
    if (predictionsDiffer(plan.predictedVolumeBytes, dm.volumeBytes)) {
        report.error("PL08", "volume-bytes",
                     "plan predicts volume " +
                         formatDouble(plan.predictedVolumeBytes) +
                         " B but the re-derived value is " +
                         formatDouble(dm.volumeBytes) + " B");
    }
    if (predictionsDiffer(static_cast<double>(plan.memUsageBytes),
                          static_cast<double>(dm.memUsageBytes))) {
        report.error("PL08", "mem-bytes",
                     "plan predicts memory usage " +
                         std::to_string(plan.memUsageBytes) +
                         " B but the re-derived value is " +
                         std::to_string(dm.memUsageBytes) + " B");
    }
}

} // namespace

PlanVerifyOptions
planVerifyOptions(const plan::PlannerOptions &options)
{
    PlanVerifyOptions vo;
    vo.memCapacityBytes = options.memCapacityBytes;
    vo.requireExecutableOrder = options.onlyExecutableOrders;
    vo.model = options.model;
    vo.plannedThreads = options.execThreads;
    vo.topology = options.topology;
    return vo;
}

std::optional<model::DataMovement>
bruteForceDataMovement(const Chain &chain, const std::vector<AxisId> &perm,
                       const std::vector<std::int64_t> &tiles,
                       const model::ModelOptions &options,
                       std::int64_t maxBlocksPerOp)
{
    model::DataMovement result;
    result.perTensorBytes.assign(chain.tensors().size(), 0.0);

    for (const OpDecl &op : chain.ops()) {
        // The operator's block loops, outermost first, with trip counts.
        std::vector<std::int64_t> blocks;
        std::vector<AxisId> opAxes;
        std::int64_t steps = 1;
        for (AxisId axis : perm) {
            if (!op.usesLoop(axis)) {
                continue;
            }
            const auto a = static_cast<std::size_t>(axis);
            const std::int64_t count =
                ceilDiv(chain.axes()[a].extent, tiles[a]);
            opAxes.push_back(axis);
            blocks.push_back(count);
            if (steps > maxBlocksPerOp / std::max<std::int64_t>(count, 1)) {
                return std::nullopt;
            }
            steps *= count;
        }
        if (steps > maxBlocksPerOp) {
            return std::nullopt;
        }

        // Peak usage: every operand tile resident at once.
        std::int64_t footprintBytes = 0;
        for (int t : op.tensorIds) {
            const TensorDecl &tensor =
                chain.tensors()[static_cast<std::size_t>(t)];
            footprintBytes +=
                tensor.footprintElems(tiles) * tensor.elementSize;
        }
        result.memUsageBytes =
            std::max(result.memUsageBytes, footprintBytes);

        // One simulated on-chip slot per counted tensor: walk every
        // block of the nest in execution order and reload the tensor's
        // tile whenever the block's projection onto the tensor's axes
        // differs from what is resident.
        for (int t : op.tensorIds) {
            const TensorDecl &tensor =
                chain.tensors()[static_cast<std::size_t>(t)];
            const bool counted = options.intermediatesAreIO ||
                                 tensor.kind != TensorKind::Intermediate;
            if (!counted) {
                continue;
            }
            std::vector<char> accessed(opAxes.size(), 0);
            for (std::size_t i = 0; i < opAxes.size(); ++i) {
                accessed[i] = tensor.usesAxis(opAxes[i]) ? 1 : 0;
            }

            std::vector<std::int64_t> idx(opAxes.size(), 0);
            std::vector<std::int64_t> resident(opAxes.size(), -1);
            std::int64_t loads = 0;
            for (std::int64_t step = 0; step < steps; ++step) {
                bool match = true;
                for (std::size_t i = 0; i < opAxes.size(); ++i) {
                    if (accessed[i] != 0 && resident[i] != idx[i]) {
                        match = false;
                        break;
                    }
                }
                if (!match) {
                    ++loads;
                    for (std::size_t i = 0; i < opAxes.size(); ++i) {
                        if (accessed[i] != 0) {
                            resident[i] = idx[i];
                        }
                    }
                }
                // Odometer increment, innermost loop fastest.
                for (std::size_t d = opAxes.size(); d-- > 0;) {
                    if (++idx[d] < blocks[d]) {
                        break;
                    }
                    idx[d] = 0;
                }
            }
            if (steps > 0 && loads == 0) {
                loads = 1; // tensor indexed by no loop: one load
            }
            const double movement =
                static_cast<double>(loads) *
                static_cast<double>(tensor.footprintElems(tiles) *
                                    tensor.elementSize);
            result.volumeBytes += movement;
            result.perTensorBytes[static_cast<std::size_t>(t)] += movement;
        }
    }
    return result;
}

Report
verifyPlan(const Chain &chain, const std::vector<AxisId> &perm,
           const std::vector<std::int64_t> &tiles,
           const PlanVerifyOptions &options)
{
    Report report;
    const bool permOk = checkPermutation(chain, perm, report);
    const bool tilesOk = checkTiles(chain, tiles, report);
    if (permOk && tilesOk) {
        checkLegality(chain, perm, tiles, options, report);
    }
    return report;
}

Report
verifyExecutionPlan(const Chain &chain, const plan::ExecutionPlan &plan,
                    const PlanVerifyOptions &options)
{
    Report report;
    const bool permOk = checkPermutation(chain, plan.perm, report);
    const bool tilesOk = checkTiles(chain, plan.tiles, report);
    if (permOk && tilesOk) {
        const model::DataMovement dm =
            checkLegality(chain, plan.perm, plan.tiles, options, report);
        checkPredictions(dm, plan, report);
        // PL13: the planned worker count, then the per-worker LLC share.
        checkPlannedThreads(plan.plannedThreads, report);
        const int workers = plan.plannedThreads > 1
                                ? plan.plannedThreads
                                : options.plannedThreads;
        checkPerWorkerShare(dm.memUsageBytes, workers, options.topology,
                            report);
    }
    return report;
}

Report
verifyPlanDocument(const Chain &chain, const plan::ParsedPlanDoc &doc,
                   const std::string &expectedFingerprint,
                   const PlanVerifyOptions &options)
{
    Report report;
    if (!expectedFingerprint.empty() &&
        doc.fingerprint != expectedFingerprint) {
        report.error("PL10", "fingerprint",
                     "expected " + expectedFingerprint +
                         " but the document carries " +
                         (doc.fingerprint.empty() ? std::string("none")
                                                  : doc.fingerprint));
    }
    if (!doc.haveOrder) {
        report.error("PL05", "order", "document has no order line");
    }
    if (!doc.haveTiles) {
        report.error("PL05", "tiles", "document has no tiles line");
    }
    if (!doc.haveOrder || !doc.haveTiles) {
        return report;
    }

    // Bind the order: axis names -> ids, omitted axes appended innermost
    // (the same reading permFromOrderString applies, but reported as
    // findings instead of thrown).
    auto findAxis = [&chain](const std::string &name) -> AxisId {
        for (AxisId a = 0; a < chain.numAxes(); ++a) {
            if (chain.axes()[static_cast<std::size_t>(a)].name == name) {
                return a;
            }
        }
        return -1;
    };
    std::vector<AxisId> perm;
    bool bindable = true;
    std::size_t start = 0;
    while (start < doc.order.size()) {
        std::size_t comma = doc.order.find(',', start);
        if (comma == std::string::npos) {
            comma = doc.order.size();
        }
        const std::string name = doc.order.substr(start, comma - start);
        start = comma + 1;
        const AxisId axis = findAxis(name);
        if (axis < 0) {
            report.error("PL02", "order",
                         "unknown axis \"" + name + "\"");
            bindable = false;
            continue;
        }
        perm.push_back(axis);
    }
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        if (std::find(perm.begin(), perm.end(), a) == perm.end()) {
            perm.push_back(a);
        }
    }

    // Bind the tiles; axes without an entry stay 0 and are reported by
    // the range check as PL05.
    std::vector<std::int64_t> tiles(
        static_cast<std::size_t>(chain.numAxes()), 0);
    std::vector<char> haveTile(static_cast<std::size_t>(chain.numAxes()),
                               0);
    for (const auto &[name, tile] : doc.tiles) {
        const AxisId axis = findAxis(name);
        if (axis < 0) {
            report.error("PL02", "tiles",
                         "unknown axis \"" + name + "\"");
            bindable = false;
            continue;
        }
        tiles[static_cast<std::size_t>(axis)] = tile;
        haveTile[static_cast<std::size_t>(axis)] = 1;
    }
    for (AxisId a = 0; a < chain.numAxes(); ++a) {
        if (haveTile[static_cast<std::size_t>(a)] == 0) {
            report.error("PL05", "tiles." + axisName(chain, a),
                         "no tile size for axis " + axisName(chain, a));
            bindable = false;
        }
    }
    if (!bindable) {
        return report;
    }

    const bool permOk = checkPermutation(chain, perm, report);
    const bool tilesOk = checkTiles(chain, tiles, report);
    if (permOk && tilesOk) {
        const model::DataMovement dm =
            checkLegality(chain, perm, tiles, options, report);

        // PL13: the per-worker LLC share at the document's thread count
        // (the parser already enforces threads >= 1).
        const int workers =
            doc.haveThreads ? static_cast<int>(doc.threads) : 1;
        checkPerWorkerShare(dm.memUsageBytes, workers, options.topology,
                            report);
    }
    return report;
}

Report
verifyMultiLevelPlan(const Chain &chain,
                     const model::MachineModel &machine,
                     const std::vector<model::LevelSchedule> &levels,
                     const PlanVerifyOptions &options)
{
    Report report;
    if (levels.size() != machine.levels.size()) {
        report.error("PL11", "levels",
                     "schedule has " + std::to_string(levels.size()) +
                         " levels but machine " + machine.name +
                         " has " +
                         std::to_string(machine.levels.size()));
        return report;
    }
    for (std::size_t d = 0; d < levels.size(); ++d) {
        PlanVerifyOptions levelOptions = options;
        levelOptions.memCapacityBytes =
            machine.levels[d].capacityBytes;
        Report levelReport = verifyPlan(chain, levels[d].perm,
                                        levels[d].tiles, levelOptions);
        for (Finding finding : levelReport.findings()) {
            finding.location = "level " + machine.levels[d].name + " / " +
                               finding.location;
            report.add(std::move(finding));
        }
    }
    if (report.hasErrors()) {
        return report; // nesting needs well-formed tile vectors
    }
    for (std::size_t d = 0; d + 1 < levels.size(); ++d) {
        for (AxisId a = 0; a < chain.numAxes(); ++a) {
            const std::int64_t inner =
                levels[d].tiles[static_cast<std::size_t>(a)];
            const std::int64_t outer =
                levels[d + 1].tiles[static_cast<std::size_t>(a)];
            if (inner > outer) {
                report.error(
                    "PL11",
                    "level " + machine.levels[d].name + " / tiles." +
                        axisName(chain, a),
                    "inner tile " + std::to_string(inner) +
                        " does not nest inside the enclosing level's " +
                        std::to_string(outer));
            }
        }
    }
    return report;
}

Report
verifyKernelParams(const kernels::CpuKernelParams &params,
                   int numRegisters)
{
    Report report;
    if (params.mi < 1 || params.ni < 1 || params.mii < 1) {
        report.error("KP03", "kernel-params",
                     "register-tile parameters (MI=" +
                         std::to_string(params.mi) +
                         ", NI=" + std::to_string(params.ni) +
                         ", MII=" + std::to_string(params.mii) +
                         ") must all be positive");
        return report;
    }
    const int used = params.mi * params.ni + params.ni + params.mii;
    if (used > numRegisters) {
        report.error("KP01", "kernel-params",
                     "register usage MI*NI + NI + MII = " +
                         std::to_string(used) + " exceeds the budget of " +
                         std::to_string(numRegisters) + " registers");
    }
    if (params.mii < 2) {
        report.error("KP02", "kernel-params",
                     "MII = " + std::to_string(params.mii) +
                         " cannot hide the A-broadcast latency"
                         " (Algorithm 2 requires MII >= 2)");
    }
    if (params.mi % params.mii != 0) {
        report.error("KP02", "kernel-params",
                     "MII = " + std::to_string(params.mii) +
                         " does not divide MI = " +
                         std::to_string(params.mi) +
                         " (the mo loop steps by MII)");
    }
    return report;
}

} // namespace chimera::verify
