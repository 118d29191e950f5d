#include "plan/plan_io.hpp"

#include <set>
#include <sstream>

#include "analysis/dependence.hpp"
#include "ir/builders.hpp"
#include "model/data_movement.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace chimera::plan {

namespace {

std::string
lineContext(int lineNumber, const std::string &line)
{
    return "plan document line " + std::to_string(lineNumber) + " (\"" +
           line + "\")";
}

/**
 * Splits the value of a "tiles:" line into (axis, integer) pairs.
 * Rejects tokens without an axis or a value, repeated axes and values
 * that are not full decimal integers.
 */
std::vector<std::pair<std::string, std::int64_t>>
parseAxisValues(const std::string &value, const std::string &context)
{
    std::vector<std::pair<std::string, std::int64_t>> out;
    std::set<std::string> seenAxes;
    std::size_t tokenStart = 0;
    while (tokenStart < value.size()) {
        tokenStart = value.find_first_not_of(" \t", tokenStart);
        if (tokenStart == std::string::npos) {
            break;
        }
        std::size_t tokenEnd = value.find_first_of(" \t", tokenStart);
        if (tokenEnd == std::string::npos) {
            tokenEnd = value.size();
        }
        const std::string token =
            value.substr(tokenStart, tokenEnd - tokenStart);
        tokenStart = tokenEnd;
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
            throw Error(context + ": malformed tile token \"" + token +
                        "\"");
        }
        const std::string axisName = token.substr(0, eq);
        if (!seenAxes.insert(axisName).second) {
            throw Error(context + ": duplicate tile for axis \"" +
                        axisName + "\"");
        }
        out.emplace_back(axisName,
                         parseInt64Strict(token.substr(eq + 1), context));
    }
    return out;
}

} // namespace

std::string
serializePlan(const ir::Chain &chain, const ExecutionPlan &plan,
              const std::string &fingerprint)
{
    model::validatePermutation(chain, plan.perm);
    model::validateTiles(chain, plan.tiles);
    std::ostringstream out;
    out << "chimera-plan v2\n";
    if (!fingerprint.empty()) {
        out << "fingerprint: " << fingerprint << "\n";
    }
    out << "chain: " << chain.name() << "\n";
    out << "order: " << orderString(chain, plan.perm) << "\n";
    out << "tiles:";
    for (int a = 0; a < chain.numAxes(); ++a) {
        out << " " << chain.axes()[static_cast<std::size_t>(a)].name << "="
            << plan.tiles[static_cast<std::size_t>(a)];
    }
    out << "\n";
    // Serial plans omit the line so pre-thread-aware documents stay
    // byte-identical (and cache entries written by them keep parsing).
    if (plan.plannedThreads > 1) {
        out << "threads: " << plan.plannedThreads << "\n";
    }
    return out.str();
}

ParsedPlanDoc
parsePlanDocument(const std::string &text)
{
    // Manual line iteration (no istringstream): this runs on the plan
    // cache's warm lookup path, where a fresh process pays ~100us for
    // its first stream construction alone.
    std::size_t cursor = 0;
    auto nextLine = [&text, &cursor](std::string &out) {
        if (cursor >= text.size()) {
            return false;
        }
        std::size_t nl = text.find('\n', cursor);
        if (nl == std::string::npos) {
            nl = text.size();
        }
        out = text.substr(cursor, nl - cursor);
        cursor = nl + 1;
        if (!out.empty() && out.back() == '\r') {
            out.pop_back();
        }
        return true;
    };

    std::string line;
    CHIMERA_CHECK(nextLine(line), "empty plan document");
    CHIMERA_CHECK(line == "chimera-plan v1" || line == "chimera-plan v2",
                  "plan document line 1: not a chimera-plan v1/v2 header"
                  " (\"" +
                      line + "\")");

    ParsedPlanDoc doc;
    doc.version = line.back() == '1' ? 1 : 2;
    std::set<std::string> seenKeys;
    int lineNumber = 1;
    while (nextLine(line)) {
        ++lineNumber;
        if (line.empty()) {
            continue;
        }
        const std::string context = lineContext(lineNumber, line);
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) {
            throw Error(context + ": expected \"key: value\"");
        }
        const std::string key = line.substr(0, colon);
        std::string value = line.substr(colon + 1);
        if (!value.empty() && value.front() == ' ') {
            value.erase(0, 1);
        }
        if (!seenKeys.insert(key).second) {
            throw Error(context + ": duplicate key \"" + key + "\"");
        }
        if (key == "chain") {
            doc.chainName = value;
        } else if (key == "fingerprint") {
            doc.fingerprint = value;
        } else if (key == "order") {
            doc.order = value;
            doc.haveOrder = true;
        } else if (key == "tiles") {
            doc.tiles = parseAxisValues(value, context);
            doc.haveTiles = true;
        } else if (key == "threads") {
            doc.threads = parseInt64Strict(value, context);
            if (doc.threads < 1) {
                throw Error(context + ": threads must be >= 1, got " +
                            std::to_string(doc.threads));
            }
            doc.haveThreads = true;
        } else {
            throw Error(context + ": unknown plan key \"" + key + "\"");
        }
    }
    return doc;
}

ExecutionPlan
deserializePlan(const ir::Chain &chain, const std::string &text,
                const std::string &expectedFingerprint)
{
    const ParsedPlanDoc doc = parsePlanDocument(text);
    CHIMERA_CHECK(doc.haveOrder && doc.haveTiles,
                  "plan document missing order or tiles");
    if (!expectedFingerprint.empty() &&
        doc.fingerprint != expectedFingerprint) {
        throw Error("plan fingerprint mismatch: expected " +
                    expectedFingerprint + ", document carries " +
                    (doc.fingerprint.empty() ? std::string("none")
                                             : doc.fingerprint));
    }

    ExecutionPlan plan;
    plan.perm = permFromOrderString(chain, doc.order);
    plan.tiles.assign(static_cast<std::size_t>(chain.numAxes()), 0);
    for (const auto &[axisName, tile] : doc.tiles) {
        plan.tiles[static_cast<std::size_t>(
            ir::axisIdByName(chain, axisName))] = tile;
    }
    model::validatePermutation(chain, plan.perm);
    model::validateTiles(chain, plan.tiles);

    plan.plannedThreads = static_cast<int>(doc.threads);

    // Derived facts: recomputed from the decisions, never read.
    plan.concurrency =
        analysis::analyzeConcurrency(chain, plan.tiles).kinds();
    const model::DataMovement dm =
        model::computeDataMovement(chain, plan.perm, plan.tiles);
    plan.predictedVolumeBytes = dm.volumeBytes;
    plan.memUsageBytes = dm.memUsageBytes;
    return plan;
}

} // namespace chimera::plan
