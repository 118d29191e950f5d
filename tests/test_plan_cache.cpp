/**
 * @file
 * Tests for the persistent plan cache: cold misses plan and store, warm
 * hits (memory and disk) return the identical schedule without
 * enumeration, and corrupt or mismatched entries silently fall back to
 * replanning.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/constraints.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "hw/machines.hpp"
#include "ir/builders.hpp"
#include "kernels/micro_kernel.hpp"
#include "plan/plan_cache.hpp"
#include "plan/plan_io.hpp"
#include "support/error.hpp"

namespace chimera::plan {
namespace {

namespace fs = std::filesystem;

ir::Chain
chainUnderTest()
{
    ir::GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 64;
    cfg.n = 32;
    cfg.k = 16;
    cfg.l = 48;
    cfg.name = "cache-test";
    return ir::makeGemmChain(cfg);
}

PlannerOptions
optionsUnderTest()
{
    PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    return options;
}

/** Fresh, empty cache directory under the gtest temp root. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("chimera-plan-cache-" + name);
    fs::remove_all(dir);
    return dir.string();
}

/** The single *.plan entry file inside @p dir. */
fs::path
onlyEntry(const std::string &dir)
{
    fs::path found;
    int count = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".plan") {
            found = entry.path();
            ++count;
        }
    }
    EXPECT_EQ(count, 1);
    return found;
}

TEST(PlanCache, ColdMissThenWarmMemoryHit)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    PlanCache cache(freshDir("memory"));
    options.cache = &cache;

    const ExecutionPlan cold = planChain(chain, options);
    EXPECT_GT(cold.candidatesExamined, 0);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().stores, 1);

    const ExecutionPlan warm = planChain(chain, options);
    EXPECT_EQ(warm.candidatesExamined, 0);
    EXPECT_EQ(cache.stats().memoryHits, 1);
    EXPECT_EQ(warm.perm, cold.perm);
    EXPECT_EQ(warm.tiles, cold.tiles);
    EXPECT_DOUBLE_EQ(warm.predictedVolumeBytes, cold.predictedVolumeBytes);
    EXPECT_EQ(warm.memUsageBytes, cold.memUsageBytes);
}

/** One fixture chain of the round-trip sweep and how it is planned. */
struct RoundTripCase
{
    std::string name;
    ir::Chain chain;
    solver::TileConstraints constraints;
};

std::vector<RoundTripCase>
roundTripCases()
{
    const kernels::MicroKernel &kernel =
        kernels::MicroKernelRegistry::instance().select(detectSimdTier());
    std::vector<RoundTripCase> cases;
    for (const ir::Epilogue epilogue :
         {ir::Epilogue::None, ir::Epilogue::Softmax}) {
        ir::GemmChainConfig cfg;
        cfg.batch = 4;
        cfg.m = 128;
        cfg.n = 64;
        cfg.k = 64;
        cfg.l = 128;
        cfg.epilogue = epilogue;
        cfg.name = epilogue == ir::Epilogue::None ? "rt-gemm"
                                                  : "rt-gemm-softmax";
        const ir::Chain chain = ir::makeGemmChain(cfg);
        cases.push_back(
            {cfg.name, chain, exec::cpuChainConstraints(chain, kernel)});
    }
    for (const ir::Epilogue epilogue :
         {ir::Epilogue::None, ir::Epilogue::Softmax}) {
        ir::GemmChain3Config cfg;
        cfg.batch = 2;
        cfg.m = 128;
        cfg.n = 64;
        cfg.k = 64;
        cfg.l = 128;
        cfg.p = 32;
        cfg.epilogue = epilogue;
        cfg.name = epilogue == ir::Epilogue::None ? "rt-gemm3" : "rt-attn4";
        const ir::Chain chain = ir::makeGemmChain3(cfg);
        cases.push_back(
            {cfg.name, chain, exec::gemmChain3Constraints(chain, kernel)});
    }
    ir::ConvChainConfig conv;
    conv.batch = 1;
    conv.ic = 16;
    conv.h = 28;
    conv.w = 28;
    conv.oc1 = 32;
    conv.oc2 = 32;
    conv.name = "rt-conv";
    const ir::Chain convChain = ir::makeConvChain(conv);
    cases.push_back({conv.name, convChain,
                     exec::cpuChainConstraints(convChain, kernel)});
    return cases;
}

/** Everything a loaded plan re-derives must equal the planned plan's. */
void
expectSameDerivedFacts(const ExecutionPlan &got, const ExecutionPlan &want,
                       const std::string &what)
{
    EXPECT_EQ(got.concurrency, want.concurrency) << what;
    EXPECT_EQ(got.plannedThreads, want.plannedThreads) << what;
    EXPECT_DOUBLE_EQ(got.predictedVolumeBytes, want.predictedVolumeBytes)
        << what;
    EXPECT_EQ(got.memUsageBytes, want.memUsageBytes) << what;
    EXPECT_EQ(got.safety.certified, want.safety.certified) << what;
    EXPECT_EQ(got.safety.domain, want.safety.domain) << what;
    EXPECT_EQ(got.safety.rules, want.safety.rules) << what;
    EXPECT_EQ(got.candidatesExamined, 0) << what;
    EXPECT_EQ(got.search.solved, 0) << what;
}

TEST(PlanCache, WarmDiskHitAcrossInstances)
{
    // The same plan three ways — planned cold, read back from the
    // memory tier, and loaded from disk by a new instance (a new
    // process, in deployment) — must print byte-identically and
    // re-derive identical facts from the decisions-only document.
    for (const RoundTripCase &c : roundTripCases()) {
        for (const int execThreads : {1, 4}) {
            const std::string what =
                c.name + " execThreads " + std::to_string(execThreads);
            PlannerOptions options = optionsUnderTest();
            options.memCapacityBytes = 256.0 * 1024;
            options.constraints = c.constraints;
            options.execThreads = execThreads;
            if (execThreads > 1) {
                options.topology = hw::multicoreCpuTopology();
            }
            const std::string dir = freshDir("disk-" + c.name);

            PlanCache writer(dir);
            options.cache = &writer;
            const ExecutionPlan cold = planChain(c.chain, options);
            EXPECT_GT(cold.candidatesExamined, 0) << what;
            EXPECT_TRUE(cold.safety.certified) << what;
            const ExecutionPlan memory = planChain(c.chain, options);
            EXPECT_EQ(writer.stats().memoryHits, 1) << what;
            ASSERT_TRUE(fs::exists(onlyEntry(dir))) << what;

            PlanCache reader(dir);
            options.cache = &reader;
            const ExecutionPlan disk = planChain(c.chain, options);
            EXPECT_EQ(reader.stats().diskHits, 1) << what;
            EXPECT_EQ(reader.stats().misses, 0) << what;

            const std::string printed = serializePlan(c.chain, cold);
            EXPECT_EQ(serializePlan(c.chain, memory), printed) << what;
            EXPECT_EQ(serializePlan(c.chain, disk), printed) << what;
            expectSameDerivedFacts(memory, cold, what + " (memory)");
            expectSameDerivedFacts(disk, cold, what + " (disk)");
        }
    }
}

TEST(PlanCache, CorruptEntryFallsBackToReplanning)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    const std::string dir = freshDir("corrupt");

    ExecutionPlan cold;
    {
        PlanCache writer(dir);
        options.cache = &writer;
        cold = planChain(chain, options);
    }
    {
        std::ofstream out(onlyEntry(dir), std::ios::trunc);
        out << "chimera-plan v2\ntiles: m=64abc\n";
    }

    PlanCache reader(dir);
    options.cache = &reader;
    const ExecutionPlan replanned = planChain(chain, options);
    EXPECT_GT(replanned.candidatesExamined, 0); // not served from cache
    EXPECT_EQ(reader.stats().corruptEntries, 1);
    EXPECT_EQ(replanned.perm, cold.perm);
    EXPECT_EQ(replanned.tiles, cold.tiles);

    // The replan's store healed the entry: the next instance hits disk.
    PlanCache healed(dir);
    options.cache = &healed;
    EXPECT_EQ(planChain(chain, options).candidatesExamined, 0);
    EXPECT_EQ(healed.stats().diskHits, 1);
}

TEST(PlanCache, FingerprintMismatchTriggersReplan)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    const std::string dir = freshDir("mismatch");

    {
        PlanCache writer(dir);
        options.cache = &writer;
        planChain(chain, options);
    }
    // Tamper with the embedded fingerprint: the entry self-identifies as
    // belonging to a different (chain, options) key.
    const fs::path entry = onlyEntry(dir);
    std::string text;
    {
        std::ifstream in(entry);
        std::ostringstream contents;
        contents << in.rdbuf();
        text = contents.str();
    }
    const std::size_t pos = text.find("fingerprint: ");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string("fingerprint: ").size() + 16,
                 "fingerprint: 0000000000000000");
    {
        std::ofstream out(entry, std::ios::trunc);
        out << text;
    }

    PlanCache reader(dir);
    options.cache = &reader;
    const ExecutionPlan replanned = planChain(chain, options);
    EXPECT_GT(replanned.candidatesExamined, 0);
    EXPECT_EQ(reader.stats().corruptEntries, 1);
}

TEST(PlanCache, KeyCoversChainAndOptions)
{
    const ir::Chain chain = chainUnderTest();
    const PlannerOptions options = optionsUnderTest();

    PlannerOptions bigger = options;
    bigger.memCapacityBytes = 64.0 * 1024;
    EXPECT_NE(planFingerprint(chain, options),
              planFingerprint(chain, bigger));

    PlannerOptions unfiltered = options;
    unfiltered.onlyExecutableOrders = false;
    EXPECT_NE(planFingerprint(chain, options),
              planFingerprint(chain, unfiltered));

    ir::GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 128; // different extent
    cfg.n = 32;
    cfg.k = 16;
    cfg.l = 48;
    cfg.name = "cache-test";
    EXPECT_NE(planFingerprint(ir::makeGemmChain(cfg), options),
              planFingerprint(chain, options));

    // Thread count must NOT change the key: plans are deterministic.
    PlannerOptions threaded = options;
    threaded.threads = 7;
    EXPECT_EQ(planFingerprint(chain, options),
              planFingerprint(chain, threaded));

    // Nor does the display name: structure decides plan validity.
    cfg.m = 64;
    cfg.name = "same-structure-other-name";
    EXPECT_EQ(planFingerprint(ir::makeGemmChain(cfg), options),
              planFingerprint(chain, options));
}

TEST(PlanCache, KeyCoversExecThreadsAndTopology)
{
    const ir::Chain chain = chainUnderTest();
    const PlannerOptions options = optionsUnderTest();

    // The targeted worker count changes the plan (per-worker budgets,
    // task-grid refinement), so it must change the key — unlike the
    // search-loop thread count above.
    PlannerOptions eight = options;
    eight.execThreads = 8;
    EXPECT_NE(planFingerprint(chain, options),
              planFingerprint(chain, eight));

    PlannerOptions topo = eight;
    topo.topology = hw::multicoreCpuTopology();
    EXPECT_NE(planFingerprint(chain, eight),
              planFingerprint(chain, topo));

    // A different shared-cache size is a different machine.
    PlannerOptions smallerLlc = topo;
    for (auto &level : smallerLlc.topology.levels) {
        if (level.scope == model::LevelScope::Shared) {
            level.capacityBytes /= 2.0;
            break;
        }
    }
    EXPECT_NE(planFingerprint(chain, topo),
              planFingerprint(chain, smallerLlc));
}

TEST(PlanCache, ThreadAwarePlansCacheSeparately)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    PlanCache cache(freshDir("threads"));
    options.cache = &cache;

    const ExecutionPlan serial = planChain(chain, options);
    EXPECT_EQ(cache.stats().misses, 1);

    options.execThreads = 8;
    options.topology = hw::multicoreCpuTopology();
    const ExecutionPlan threaded = planChain(chain, options);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(threaded.plannedThreads, 8);

    // Warm hit restores the planned thread count too.
    const ExecutionPlan warm = planChain(chain, options);
    EXPECT_EQ(warm.candidatesExamined, 0);
    EXPECT_EQ(warm.plannedThreads, threaded.plannedThreads);
    EXPECT_EQ(warm.tiles, threaded.tiles);
    EXPECT_EQ(serial.plannedThreads, 1);
}

TEST(PlanCache, MemoryOnlyWithoutDirectory)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    PlanCache cache("");
    options.cache = &cache;

    const ExecutionPlan cold = planChain(chain, options);
    EXPECT_GT(cold.candidatesExamined, 0);
    const ExecutionPlan warm = planChain(chain, options);
    EXPECT_EQ(warm.candidatesExamined, 0);
    EXPECT_EQ(warm.perm, cold.perm);
    EXPECT_EQ(warm.tiles, cold.tiles);
    EXPECT_EQ(cache.stats().memoryHits, 1);
}

TEST(PlanCache, MultiLevelPlanningUsesTheCache)
{
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    PlanCache cache(freshDir("multilevel"));
    options.cache = &cache;

    model::MachineModel machine;
    machine.levels.push_back({"L1", 8.0 * 1024, 1e12});
    machine.levels.push_back({"L2", 32.0 * 1024, 1e11});
    machine.peakFlops = 1e12;

    const MultiLevelPlan cold =
        planChainMultiLevel(chain, machine, options);
    const int coldMisses = cache.stats().misses;
    EXPECT_EQ(coldMisses, 2); // one plan per level, each its own key

    const MultiLevelPlan warm =
        planChainMultiLevel(chain, machine, options);
    EXPECT_EQ(cache.stats().misses, coldMisses); // all levels warm
    EXPECT_EQ(cache.stats().hits(), 2);
    for (std::size_t d = 0; d < cold.levels.size(); ++d) {
        EXPECT_EQ(warm.levels[d].perm, cold.levels[d].perm);
        EXPECT_EQ(warm.levels[d].tiles, cold.levels[d].tiles);
    }
}

TEST(PlanCache, ConcurrentLookupsKeepExactCounters)
{
    // Counters are lock-free atomics on the lookup fast path; hammer
    // lookup/store/stats from many threads (TSan covers this test in
    // CI) and check the totals are exact afterwards.
    const ir::Chain chain = chainUnderTest();
    PlannerOptions options = optionsUnderTest();
    PlanCache cache(""); // memory-only keeps the filesystem out of it
    options.cache = &cache;

    const ExecutionPlan seeded = planChain(chain, options);
    EXPECT_EQ(cache.stats().stores, 1);

    constexpr int kWorkers = 8;
    constexpr int kLookupsPerWorker = 200;
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int t = 0; t < kWorkers; ++t) {
        workers.emplace_back([&chain, &options, &cache, &seeded] {
            for (int i = 0; i < kLookupsPerWorker; ++i) {
                const std::optional<ExecutionPlan> hit =
                    cache.lookup(chain, options);
                ASSERT_TRUE(hit.has_value());
                EXPECT_EQ(hit->tiles, seeded.tiles);
                (void)cache.stats(); // snapshots race with increments
            }
        });
    }
    for (std::thread &worker : workers) {
        worker.join();
    }

    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.memoryHits, kWorkers * kLookupsPerWorker);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.stores, 1);
    EXPECT_EQ(stats.diskHits, 0);
}

} // namespace
} // namespace chimera::plan
