#pragma once

/**
 * @file
 * Persistent plan cache: pays the analytical planning cost once.
 *
 * Planning a chain enumerates up to I! block orders and runs the tile
 * solver on each — cheap next to profiling-driven tuning, but pure waste
 * when a service replans the same chain on every request. The cache
 * memoizes finished plans at two levels:
 *
 *  - an in-memory memo for repeated plans within one process, and
 *  - an on-disk store (one v2 plan document per entry) so the cost
 *    survives restarts. The directory defaults to ~/.cache/chimera and
 *    is overridable via the CHIMERA_PLAN_CACHE environment variable; an
 *    empty directory string keeps the cache memory-only.
 *
 * Entries are keyed by a fingerprint hashing the chain signature
 * (ir::chainSignature: axes/extents/tensors/ops/epilogue) together with
 * every planner option that can change the winning plan (capacity,
 * model options, tile constraints, permutation cap, solver sweeps,
 * executable-order filter). PlannerOptions::threads is deliberately
 * excluded: the planner's argmin is deterministic at any thread count.
 *
 * Cache entries are never trusted: a loaded document goes through the
 * strict deserializer, is validated against the chain, must carry the
 * matching fingerprint, and has every derived fact (predictions,
 * concurrency table) recomputed from its decisions. The deserialized
 * plan is then audited with the plan verifier (executability of the
 * order, re-derived memory usage against the capacity) — a
 * syntactically perfect document whose schedule is illegal under the
 * *current* options is rejected, not served — and certified exactly as
 * the planner certifies a fresh plan. Any failure counts as a miss and
 * the chain is silently replanned (the fresh plan then overwrites the
 * bad entry); an entry in an older document format is such a failure.
 * Disk I/O failures degrade to memory-only operation, never to an
 * error.
 */

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "plan/planner.hpp"

namespace chimera::plan {

/** Counters exposed for tests, benches and cache-troubleshooting. */
struct PlanCacheStats
{
    int memoryHits = 0; ///< served from the in-process memo
    int diskHits = 0; ///< deserialized from a plan file
    int misses = 0; ///< no (valid) entry; caller plans from scratch
    int stores = 0; ///< plans recorded after a miss
    int corruptEntries = 0; ///< unreadable/mismatched files ignored
    int rejectedPlans = 0; ///< parsed fine but failed plan verification

    /**
     * True once a store hit an unwritable/defective directory: the
     * cache warned once, dropped the disk tier, and keeps serving the
     * in-memory memo (lookups still read existing entries).
     */
    bool diskDisabled = false;

    int hits() const { return memoryHits + diskHits; }
};

/**
 * Cache key for (@p chain, @p options): 16 hex chars. Stable across
 * processes and thread counts; any change to the chain structure or to
 * a plan-affecting option yields a different key.
 */
std::string planFingerprint(const ir::Chain &chain,
                            const PlannerOptions &options);

/** Two-level (memory + directory-of-plan-files) plan cache. */
class PlanCache
{
  public:
    /**
     * Creates a cache rooted at @p directory. An empty string disables
     * the disk tier (in-memory memo only). The directory is created
     * lazily on the first store. Opening an existing directory sweeps
     * temp files abandoned by crashed writers (unique
     * "<fp>.plan.tmp.<pid>.<seq>" names older than a grace period);
     * fresh temps a concurrent store may still be writing are kept.
     */
    explicit PlanCache(std::string directory);

    /**
     * Resolution order for the default disk location: a non-empty
     * CHIMERA_PLAN_CACHE, else $HOME/.cache/chimera, else "" (memory
     * only). CHIMERA_PLAN_CACHE set but empty also means memory only.
     */
    static std::string defaultDirectory();

    /** Process-wide cache rooted at defaultDirectory(). */
    static PlanCache &global();

    const std::string &directory() const { return directory_; }

    /**
     * Returns the cached plan for (@p chain, @p options) or nullopt.
     * Memory and disk hits return the same plan: derived concurrency
     * table and predictions, a certificate for @p options, empty search
     * stats, candidatesExamined = 0 and planSeconds = the lookup time,
     * so callers can tell warm plans from cold ones.
     */
    std::optional<ExecutionPlan> lookup(const ir::Chain &chain,
                                        const PlannerOptions &options);

    /**
     * The memory tier's plan for @p fingerprint, or nullopt. Reads no
     * file and counts nothing: a caller that already missed uses it to
     * pick up a plan a concurrent caller stored since.
     */
    std::optional<ExecutionPlan>
    memoryEntry(const std::string &fingerprint) const;

    /** Records a freshly planned schedule in both tiers. */
    void store(const ir::Chain &chain, const PlannerOptions &options,
               const ExecutionPlan &plan);

    /**
     * Snapshot of the counters. Each counter is an independent atomic
     * (incremented lock-free on the hot lookup path), so a snapshot
     * taken while other threads are mid-lookup may be transiently
     * inconsistent across counters — fine for tests and telemetry, the
     * only consumers.
     */
    PlanCacheStats stats() const;

  private:
    std::string entryPath(const std::string &fingerprint) const;

    /** Best-effort sweep of abandoned writer temp files (see ctor). */
    void removeOrphanedTempFiles();

    /** Drops the disk tier after a write defect; warns exactly once. */
    void disableDisk(const std::string &reason);

    const std::string directory_;
    mutable std::mutex mutex_;
    std::map<std::string, ExecutionPlan> memory_;
    std::atomic<int> memoryHits_{0};
    std::atomic<int> diskHits_{0};
    std::atomic<int> misses_{0};
    std::atomic<int> stores_{0};
    std::atomic<int> corruptEntries_{0};
    std::atomic<int> rejectedPlans_{0};
    std::atomic<bool> diskDisabled_{false};
};

} // namespace chimera::plan
