/**
 * @file
 * plan-churn workload: a seeded stream of distinct chain shapes, each
 * planned three ways — cold (no cache), warm (memory hit on the same
 * PlanCache) and load (a fresh PlanCache over the populated directory:
 * deserialize + verify + recompute). Nothing executes: planner, solver,
 * analyzers and plan I/O do all the work.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "analysis/dependence.hpp"
#include "common.hpp"
#include "exec/constraints.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "hw/machines.hpp"
#include "obs/trace.hpp"
#include "plan/plan_cache.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "support/rng.hpp"
#include "verify/plan_verifier.hpp"

namespace perfbench {

namespace {

using namespace chimera;
namespace fs = std::filesystem;

constexpr double kCapacityBytes = 768.0 * 1024;

/** Shapes built during set-up; later shapes come straight off the stream. */
constexpr std::size_t kSetupShapes = 1024;

/** Shapes per round: cold + store, then warm, then a fresh-cache load. */
constexpr std::size_t kRoundShapes = 64;

/** Untimed rounds before measuring, so lazy set-up is not timed. */
constexpr double kWarmUpSeconds = 1.0;

const char *const kFamilies[] = {"gemm2_none", "gemm2_relu", "gemm2_softmax",
                                 "gemm3",      "attn4",      "conv",
                                 "threaded"};
constexpr int kFamilyCount = 7;

struct Shape
{
    std::string family;
    ir::Chain chain;
    plan::PlannerOptions options;
};

std::int64_t
pick(Rng &rng, std::int64_t lo, std::int64_t hi, std::int64_t step)
{
    return lo + step * static_cast<std::int64_t>(
                           rng.below(static_cast<std::uint64_t>(
                               (hi - lo) / step + 1)));
}

std::int64_t
pickOf(Rng &rng, std::initializer_list<std::int64_t> values)
{
    return *(values.begin() + rng.below(values.size()));
}

const kernels::MicroKernel &
hostKernel()
{
    return kernels::MicroKernelRegistry::instance().select(detectSimdTier());
}

/** Deterministic, duplicate-free shape stream derived from the seed. */
class ShapeStream
{
  public:
    ShapeStream(std::uint64_t seed, int threads)
        : rng_(seed ^ 0x706c616e2d636875ULL), threads_(threads)
    {
    }

    Shape next()
    {
        while (true) {
            Shape shape = draw();
            // Hashes, not the fingerprints themselves: a run draws ~50 000
            // shapes, and peak RSS should not grow with how fast it plans.
            // A collision only skips a shape.
            if (seen_.insert(std::hash<std::string>{}(plan::planFingerprint(
                                 shape.chain, shape.options)))
                    .second) {
                return shape;
            }
        }
    }

  private:
    Shape draw()
    {
        const int family = static_cast<int>(rng_.below(kFamilyCount));
        plan::PlannerOptions options;
        options.memCapacityBytes = kCapacityBytes;
        // A serial candidate loop keeps one shape's latency free of pool
        // scheduling; the plan is identical at any search thread count.
        options.threads = 1;
        const std::string name = kFamilies[family];
        if (family == 3 || family == 4) {
            ir::GemmChain3Config cfg;
            cfg.name = name;
            cfg.batch = pickOf(rng_, {1, 2, 4});
            cfg.m = pick(rng_, 64, 768, 32);
            cfg.l = pick(rng_, 64, 512, 32);
            cfg.k = pick(rng_, 32, 128, 16);
            cfg.p = pick(rng_, 32, 128, 16);
            cfg.n = pick(rng_, 32, 128, 16);
            if (family == 4) {
                cfg.epilogue = ir::Epilogue::Softmax;
                cfg.softmaxScale =
                    1.0f / std::sqrt(static_cast<float>(cfg.k));
            }
            ir::Chain chain = ir::makeGemmChain3(cfg);
            options.constraints =
                exec::gemmChain3Constraints(chain, hostKernel());
            return Shape{name, std::move(chain), options};
        }
        if (family == 5) {
            ir::ConvChainConfig cfg;
            cfg.name = name;
            cfg.ic = pickOf(rng_, {16, 32, 64, 128});
            cfg.h = cfg.w = pickOf(rng_, {14, 28, 56});
            cfg.oc1 = pickOf(rng_, {32, 64, 128, 256});
            cfg.oc2 = pickOf(rng_, {32, 64, 128});
            // 3x3 then 1x1, 1x1 then 3x3, or 1x1 then 1x1.
            const std::int64_t kind = pickOf(rng_, {0, 1, 2});
            cfg.k1 = kind == 0 ? 3 : 1;
            cfg.k2 = kind == 1 ? 3 : 1;
            cfg.stride1 = static_cast<int>(pickOf(rng_, {1, 1, 2}));
            ir::Chain chain = ir::makeConvChain(cfg);
            options.constraints = exec::cpuChainConstraints(chain, hostKernel());
            return Shape{name, std::move(chain), options};
        }
        ir::GemmChainConfig cfg;
        cfg.name = name;
        cfg.batch = pickOf(rng_, {1, 2, 4, 8});
        cfg.m = pick(rng_, 64, 1024, 32);
        cfg.l = pick(rng_, 64, 1024, 32);
        cfg.k = pick(rng_, 32, 128, 16);
        cfg.n = pick(rng_, 32, 128, 16);
        cfg.epilogue = family == 1   ? ir::Epilogue::Relu
                       : family == 2 ? ir::Epilogue::Softmax
                                     : ir::Epilogue::None;
        cfg.softmaxScale = 1.0f / std::sqrt(static_cast<float>(cfg.k));
        ir::Chain chain = ir::makeGemmChain(cfg);
        options.constraints = exec::cpuChainConstraints(chain, hostKernel());
        if (family == 6) {
            options.execThreads = threads_;
            options.topology = hw::multicoreCpuTopology();
        }
        return Shape{name, std::move(chain), options};
    }

    Rng rng_;
    int threads_;
    std::unordered_set<std::size_t> seen_;
};

/** Samples of one measurement phase (seconds unless noted). */
struct Phase
{
    std::vector<double> cold, warm, load, store;
    std::map<std::string, std::vector<double>> coldByFamily;
    std::int64_t solved = 0;
    std::int64_t enumerated = 0;
    std::int64_t hits = 0;
    std::int64_t lookups = 0;
    std::int64_t rejected = 0;
    // Traced phase only: the layer calls a cold plan's life goes through.
    std::vector<double> serialize, deserialize, verify, certify, concurrency;

    void merge(const Phase &other)
    {
        const auto append = [](std::vector<double> &to,
                               const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(cold, other.cold);
        append(warm, other.warm);
        append(load, other.load);
        append(store, other.store);
        for (const auto &[family, samples] : other.coldByFamily) {
            append(coldByFamily[family], samples);
        }
        solved += other.solved;
        enumerated += other.enumerated;
        hits += other.hits;
        lookups += other.lookups;
        rejected += other.rejected;
        append(serialize, other.serialize);
        append(deserialize, other.deserialize);
        append(verify, other.verify);
        append(certify, other.certify);
        append(concurrency, other.concurrency);
    }
};

template <typename Fn>
double
timed(const char *span, const char *layer, Fn &&fn)
{
    obs::Span s(obs::trace(), span, layer);
    const double start = nowSeconds();
    fn();
    return nowSeconds() - start;
}

/** Explicit calls into the layers a cold plan's store/load runs through. */
void
layerCalls(const Shape &s, const plan::ExecutionPlan &plan, Phase &phase,
           Report &report)
{
    std::string text;
    phase.serialize.push_back(timed("plan_io.serialize", "plan_io", [&] {
        text = plan::serializePlan(s.chain, plan);
    }));
    phase.deserialize.push_back(timed("plan_io.deserialize", "plan_io", [&] {
        (void)plan::deserializePlan(s.chain, text);
    }));
    verify::PlanVerifyOptions vo = verify::planVerifyOptions(s.options);
    vo.recount = false; // as on the cache-load path
    bool legal = false;
    phase.verify.push_back(timed("verify.plan", "verify", [&] {
        legal = !verify::verifyExecutionPlan(s.chain, plan, vo).hasErrors();
    }));
    report.check(legal, s.family + ": planned schedule fails verification");
    plan::ExecutionPlan copy = plan;
    phase.certify.push_back(timed("analysis.certify", "analysis", [&] {
        (void)plan::certifyPlan(s.chain, s.options, copy);
    }));
    phase.concurrency.push_back(
        timed("analysis.concurrency", "analysis", [&] {
            (void)analysis::analyzeConcurrency(s.chain, plan.tiles);
        }));
}

/**
 * Plans one round of shapes cold, stores each plan in a PlanCache made
 * for the round, looks each up warm in that cache, then loads each
 * through a fresh PlanCache over the populated directory. Every plan
 * must serialize byte-identically to its cold plan.
 *
 * @p cacheDir is emptied first: constructing a PlanCache scans its
 * directory, so one that kept the whole run's plans would make each
 * round slower than the one before.
 */
void
runRound(std::vector<Shape> &round, const std::string &cacheDir,
         bool traced, Phase &phase, Report &report)
{
    fs::remove_all(cacheDir);
    fs::create_directories(cacheDir);
    plan::PlanCache cache(cacheDir);
    std::vector<std::optional<plan::ExecutionPlan>> cold(round.size());
    for (std::size_t i = 0; i < round.size(); ++i) {
        Shape &s = round[i];
        try {
            const double seconds = timed("plan.cold", "plan", [&] {
                cold[i] = plan::planChain(s.chain, s.options);
            });
            phase.cold.push_back(seconds);
            phase.coldByFamily[s.family].push_back(seconds);
            phase.solved += cold[i]->search.solved;
            phase.enumerated += cold[i]->search.enumerated;
            phase.store.push_back(
                timed("plan_cache.store", "plan_cache",
                      [&] { cache.store(s.chain, s.options, *cold[i]); }));
            if (traced) {
                layerCalls(s, *cold[i], phase, report);
            }
            report.check(true, "");
        } catch (const std::exception &e) {
            report.check(false, s.family + ": cold planning threw: " +
                                    e.what());
        }
    }

    const auto lookup = [&](const char *span, plan::PlanCache &from,
                            std::vector<double> &samples, bool disk) {
        for (std::size_t i = 0; i < round.size(); ++i) {
            if (!cold[i]) {
                continue;
            }
            Shape &s = round[i];
            plan::PlannerOptions options = s.options;
            options.cache = &from;
            const int diskHitsBefore = from.stats().diskHits;
            plan::ExecutionPlan got;
            try {
                samples.push_back(timed(span, "plan_cache", [&] {
                    got = plan::planChain(s.chain, options);
                }));
            } catch (const std::exception &e) {
                report.check(false, s.family + ": lookup threw: " + e.what());
                continue;
            }
            const bool hit = got.candidatesExamined == 0 &&
                             (!disk || from.stats().diskHits > diskHitsBefore);
            obs::Span check(obs::trace(), "bench.check", "bench");
            report.check(hit && plan::serializePlan(s.chain, *cold[i]) ==
                                    plan::serializePlan(s.chain, got),
                         s.family + std::string(": ") + span +
                             " plan is not a hit or not byte-identical to "
                             "the cold plan");
        }
        const plan::PlanCacheStats stats = from.stats();
        phase.rejected += stats.rejectedPlans + stats.corruptEntries;
        phase.hits += stats.hits();
        phase.lookups += stats.hits() + stats.misses;
    };
    lookup("plan_cache.warm", cache, phase.warm, false);
    plan::PlanCache fresh(cacheDir);
    lookup("plan_cache.load", fresh, phase.load, true);
}

} // namespace

void
runPlanChurn(const Options &options, Report &report)
{
    const std::string cacheDir = options.workDir + "/plan-cache";
    std::optional<ShapeStream> stream;
    std::vector<Shape> pending;
    SetupTimer setup;
    const auto setUp = [&] {
        stream.emplace(options.seed, options.threads);
        pending.clear();
        for (std::size_t i = 0; i < kSetupShapes; ++i) {
            pending.push_back(stream->next());
        }
    };
    setup.blockAcrossCpus(setUp);
    std::size_t cursor = 0;
    std::mutex streamMutex;
    const auto nextRound = [&] {
        std::lock_guard<std::mutex> lock(streamMutex);
        std::vector<Shape> round;
        for (std::size_t i = 0; i < kRoundShapes; ++i) {
            round.push_back(cursor < pending.size()
                                ? std::move(pending[cursor++])
                                : stream->next());
        }
        return round;
    };

    // nproc planner threads take rounds off the one seeded stream, as a
    // daemon's executors plan concurrently; pooling their latencies also
    // averages over the host's per-core speed.
    const auto runPhase = [&](double seconds, bool traced) {
        std::vector<Phase> perThread(static_cast<std::size_t>(options.threads));
        const double end = nowSeconds() + seconds;
        std::vector<std::thread> planners;
        for (std::size_t t = 0; t < perThread.size(); ++t) {
            planners.emplace_back([&, t] {
                const std::string dir = cacheDir + "/" + std::to_string(t);
                try {
                    do {
                        std::vector<Shape> round = nextRound();
                        runRound(round, dir, traced, perThread[t], report);
                    } while (nowSeconds() < end);
                } catch (const std::exception &e) {
                    report.check(false, std::string("planner thread: ") +
                                            e.what());
                }
            });
        }
        for (std::thread &t : planners) {
            t.join();
        }
        Phase all;
        for (Phase &p : perThread) {
            all.merge(p);
        }
        return all;
    };

    (void)runPhase(kWarmUpSeconds, false);
    // Peak RSS before the measured phase: beyond this point only the
    // benchmark's own sample buffers grow, and they grow with throughput.
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    const Phase untraced =
        runPhase(options.traced ? options.seconds / 2 : options.seconds,
                 false);
    report.metric("op_ms_p75", percentile(untraced.cold, 0.75) * 1e3, "ms");
    report.metric("op_ms_p90", percentile(untraced.cold, 0.9) * 1e3, "ms");
    report.metric("plan_cold_ms_p50", median(untraced.cold) * 1e3, "ms");
    report.metric("plan_cold_ms_p99", percentile(untraced.cold, 0.99) * 1e3,
                  "ms");
    report.metric("plan_warm_us_p50", median(untraced.warm) * 1e6, "us");
    report.metric("plan_load_us_p50", median(untraced.load) * 1e6, "us");
    std::printf("plan-churn: %zu distinct shapes planned cold/warm/load\n",
                untraced.cold.size());

    if (options.traced) {
        obs::TraceRecorder *tracer = obs::TraceRecorder::enableGlobal();
        const std::int64_t begin = obs::nowNanos();
        const Phase traced = runPhase(options.seconds / 2, true);
        report.traceWindow(begin, obs::nowNanos());
        tracer->writeJson(options.traceFile);

        for (const auto &[family, samples] : traced.coldByFamily) {
            report.metric("plan.cold_ms." + family, median(samples) * 1e3,
                          "ms");
        }
        report.metric("solver.solves",
                      static_cast<double>(traced.solved) /
                          static_cast<double>(traced.cold.size()),
                      "count");
        report.metric("analysis.pruned_frac",
                      1.0 - static_cast<double>(traced.solved) /
                                static_cast<double>(traced.enumerated),
                      "ratio");
        report.metric("analysis.certify_ms", median(traced.certify) * 1e3,
                      "ms");
        report.metric("analysis.concurrency_ms",
                      median(traced.concurrency) * 1e3, "ms");
        report.metric("plan_cache.store_us", median(traced.store) * 1e6, "us");
        report.metric("plan_io.serialize_us", median(traced.serialize) * 1e6,
                      "us");
        report.metric("plan_io.deserialize_us",
                      median(traced.deserialize) * 1e6, "us");
        report.metric("verify.plan_us", median(traced.verify) * 1e6, "us");
        report.metric("plan_cache.hit_frac",
                      static_cast<double>(traced.hits) /
                          static_cast<double>(traced.lookups),
                      "ratio");
        report.metric("plan_cache.rejected",
                      static_cast<double>(traced.rejected),
                      "count");
        report.metric("trace_overhead_frac",
                      median(traced.cold) / median(untraced.cold) - 1.0,
                      "ratio");
    }

    // The second set-up block; the measured phases are done with the
    // stream.
    setup.blockAcrossCpus(setUp);
    report.metric("setup_s", setup.medianSeconds(), "s");
    fs::remove_all(cacheDir);
}

} // namespace perfbench
