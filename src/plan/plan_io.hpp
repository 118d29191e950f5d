#pragma once

/**
 * @file
 * Plan serialization: a stable, human-readable text format so planned
 * schedules can be cached across runs (planning is cheap but kernels
 * may be planned once and deployed many times) and inspected in code
 * review. A document holds the schedule's *decisions* only:
 *
 *     chimera-plan v2
 *     fingerprint: 1f0c64d2a9b3e781
 *     chain: <name>
 *     order: m,l,k,n
 *     tiles: m=128 l=64 k=64 n=64
 *     threads: 8
 *
 * Everything derived from those decisions — the DV/MU predictions, the
 * per-axis concurrency table, the SB01-SB04 safety certificate — is
 * recomputed on load and never stored, so a document cannot disagree
 * with itself. The order search's statistics are provenance of one
 * planner run and are not stored either.
 *
 * The threads line carries the worker count the plan was solved for.
 * It is omitted for serial plans (threads == 1), so pre-thread-aware
 * documents remain byte-identical; "threads:" must be >= 1.
 *
 * The fingerprint line is optional in hand-written documents and
 * mandatory for plan-cache entries: it hashes the chain structure plus
 * the planner options that produced the plan (see plan_cache.hpp), so a
 * cache entry can never be applied to the wrong key. v1 documents (no
 * fingerprint, same remaining keys) are still read.
 *
 * Deserialization is strict: every numeric field must parse as a full
 * token (trailing garbage such as "m=64abc" is rejected, not truncated),
 * unknown keys, duplicate keys and duplicate axes are rejected, and
 * every failure is reported as chimera::Error naming the offending line
 * — malformed input never escapes as a raw std:: exception. A cache
 * entry written by an older format (e.g. one carrying a `concurrency:`,
 * `safety:`, `search:`, `volume-bytes:`, `mem-bytes:` or dispatch-grain
 * line) is therefore unreadable and gets replanned. The parsed plan is then
 * validated against the chain it is applied to (axis names, tile
 * ranges, permutation completeness).
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "plan/planner.hpp"

namespace chimera::plan {

/**
 * Raw fields of a plan document after the syntax pass, before binding
 * to a chain. parsePlanDocument fills this; deserializePlan binds it
 * (axis lookup, permutation/tile validation, derived-fact recompute)
 * and verify::verifyPlanDocument audits it without throwing so
 * chimera-check can report every defect of an adversarial document.
 */
struct ParsedPlanDoc
{
    /** Format version from the header line (1 or 2). */
    int version = 0;

    /** Value of the "fingerprint:" line; empty when absent. */
    std::string fingerprint;

    /** Value of the "chain:" line (informational). */
    std::string chainName;

    /** Raw "order:" value, e.g. "m,l,k,n". */
    std::string order;

    /** (axis name, tile size) pairs from the "tiles:" line, in order. */
    std::vector<std::pair<std::string, std::int64_t>> tiles;

    /** Value of the "threads:" line (>= 1 enforced at parse time). */
    std::int64_t threads = 1;

    bool haveOrder = false;
    bool haveTiles = false;
    bool haveThreads = false;
};

/**
 * Syntax pass: parses a v1/v2 document into its raw fields without any
 * chain in hand. Throws chimera::Error — naming the offending line — on
 * malformed input (bad header, keyless lines, unknown or duplicate keys,
 * duplicate tile axes, non-numeric values); axis names and value
 * ranges are *not* checked here, that is the binding/verification
 * layer's job.
 */
ParsedPlanDoc parsePlanDocument(const std::string &text);

/**
 * Serializes @p plan for @p chain into the v2 text format. A non-empty
 * @p fingerprint is embedded as the "fingerprint:" line (the plan cache
 * passes its lookup key; ad-hoc serialization may leave it out).
 */
std::string serializePlan(const ir::Chain &chain, const ExecutionPlan &plan,
                          const std::string &fingerprint = "");

/**
 * Parses a v1 or v2 plan document and validates it against @p chain.
 * The returned plan carries the decisions plus a freshly derived
 * concurrency table and DV/MU predictions; it is uncertified (the
 * certificate depends on the planner options, see plan::certifyPlan)
 * and has empty search stats.
 *
 * When @p expectedFingerprint is non-empty the document must carry a
 * matching "fingerprint:" line; a missing or different value throws
 * (the plan cache turns that into a silent replan).
 *
 * Throws chimera::Error — with the offending line quoted — on malformed
 * input, and on chain mismatch after parsing.
 */
ExecutionPlan deserializePlan(const ir::Chain &chain,
                              const std::string &text,
                              const std::string &expectedFingerprint = "");

} // namespace chimera::plan
