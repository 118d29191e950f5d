/**
 * @file
 * fused-exec workload: a fixed chain set planned once during set-up and
 * executed repeatedly at 1 thread and at nproc threads. Kernels, the
 * fused executors and the thread pool do the timed work; the planner
 * runs only in set-up.
 *
 * The set covers all three fused executors: Table IV G2 and G5 with and
 * without the softmax epilogue, G11 (batch 1, so only m is parallel),
 * chain-4 attention (QK^T -> softmax -> .V -> proj), and Table V C3/C6.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

#include "ceilings.hpp"
#include "common.hpp"
#include "exec/chunk_profile.hpp"
#include "exec/constraints.hpp"
#include "exec/conv_chain_exec.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "hw/machines.hpp"
#include "ir/workloads.hpp"
#include "model/multilevel.hpp"
#include "obs/trace.hpp"
#include "plan/planner.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace chimera;

/** Planner budget of the figure benches: most of a Xeon per-core L2. */
constexpr double kCapacityBytes = 768.0 * 1024;

/** Rounds every timed loop runs even when --seconds is tiny. */
constexpr int kMinRounds = 3;

/** Library proxy of Figure 5 ("PyTorch"): best kernel, fixed 64^3 tiles. */
const exec::GemmTiles kLibraryGemmTiles{64, 64, 64};
const exec::ConvTiles kLibraryConvTiles{64, 64};

const kernels::MicroKernel &
hostKernel()
{
    return kernels::MicroKernelRegistry::instance().select(detectSimdTier());
}

const exec::ComputeEngine &
engine()
{
    static const exec::ComputeEngine best = exec::ComputeEngine::best();
    return best;
}

/** One chain of the set: its plan, its tensors and the calls that run it. */
struct Member
{
    Member(std::string memberName, ir::Chain memberChain)
        : name(std::move(memberName)), chain(std::move(memberChain))
    {
    }

    std::string name;
    ir::Chain chain;
    solver::TileConstraints constraints; ///< the executor's tile legality
    plan::ExecutionPlan plan;
    std::vector<Tensor> tensors; ///< fixed after set-up (stable addresses)
    Tensor *output = nullptr;
    std::function<void(const exec::ExecOptions &)> fused;
    std::function<void(const exec::ExecOptions &)> unfused;
    std::function<void(Tensor &)> reference;
};

using ChainSet = std::vector<std::unique_ptr<Member>>;

plan::ExecutionPlan
planThreadAware(const ir::Chain &chain, solver::TileConstraints constraints,
                int threads)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = kCapacityBytes;
    options.constraints = std::move(constraints);
    options.execThreads = threads;
    options.topology = hw::multicoreCpuTopology();
    // A serial candidate search keeps pool wake-ups out of the few-ms
    // set-up time; the plan is identical at any search thread count.
    options.threads = 1;
    obs::Span span(obs::trace(), "plan.setup", "plan");
    return plan::planChain(chain, options);
}

std::vector<std::int64_t>
matrixShape(std::int64_t batch, std::int64_t rows, std::int64_t cols)
{
    return batch > 1 ? std::vector<std::int64_t>{batch, rows, cols}
                     : std::vector<std::int64_t>{rows, cols};
}

void
fillInputs(Member &m, std::size_t inputs, Rng &rng)
{
    for (std::size_t i = 0; i < inputs; ++i) {
        fillUniform(m.tensors[i], rng);
    }
}

std::unique_ptr<Member>
gemmChain(std::string name, ir::GemmChainConfig cfg, ir::Epilogue epilogue,
          Rng &rng)
{
    cfg.epilogue = epilogue;
    cfg.name = name;
    auto m = std::make_unique<Member>(name, ir::makeGemmChain(cfg));
    m->constraints = exec::cpuChainConstraints(m->chain, hostKernel());
    std::vector<Tensor> &t = m->tensors;
    t.emplace_back(exec::gemmChainShapeA(cfg));
    t.emplace_back(exec::gemmChainShapeB(cfg));
    t.emplace_back(exec::gemmChainShapeD(cfg));
    t.emplace_back(exec::gemmChainShapeE(cfg));
    t.emplace_back(exec::gemmChainShapeC(cfg));
    fillInputs(*m, 3, rng);
    Member *p = m.get();
    p->output = &t[3];
    p->fused = [p, cfg](const exec::ExecOptions &o) {
        std::vector<Tensor> &x = p->tensors;
        exec::runFusedGemmChain(cfg, p->plan, engine(), x[0], x[1], x[2],
                                x[3], o);
    };
    p->unfused = [p, cfg](const exec::ExecOptions &o) {
        std::vector<Tensor> &x = p->tensors;
        exec::runUnfusedGemmChain(cfg, engine(), x[0], x[1], x[2], x[4],
                                  x[3], kLibraryGemmTiles,
                                  kLibraryGemmTiles, o);
    };
    p->reference = [p, cfg](Tensor &out) {
        std::vector<Tensor> &x = p->tensors;
        exec::referenceGemmChain(cfg, x[0], x[1], x[2], out);
    };
    return m;
}

std::unique_ptr<Member>
attentionChain4(Rng &rng)
{
    ir::GemmChain3Config cfg;
    cfg.name = "attn4";
    cfg.batch = 8;
    cfg.m = 256;
    cfg.k = 64;
    cfg.l = 256;
    cfg.p = 64;
    cfg.n = 64;
    cfg.epilogue = ir::Epilogue::Softmax;
    cfg.softmaxScale = 0.125f;
    auto m = std::make_unique<Member>(cfg.name, ir::makeGemmChain3(cfg));
    m->constraints = exec::gemmChain3Constraints(m->chain, hostKernel());
    std::vector<Tensor> &t = m->tensors;
    t.emplace_back(exec::gemmChain3ShapeA(cfg));
    t.emplace_back(exec::gemmChain3ShapeB(cfg));
    t.emplace_back(exec::gemmChain3ShapeD(cfg));
    t.emplace_back(exec::gemmChain3ShapeF(cfg));
    t.emplace_back(exec::gemmChain3ShapeE(cfg));
    t.emplace_back(matrixShape(cfg.batch, cfg.m, cfg.l));
    t.emplace_back(matrixShape(cfg.batch, cfg.m, cfg.p));
    fillInputs(*m, 4, rng);
    Member *p = m.get();
    p->output = &t[4];
    p->fused = [p, cfg](const exec::ExecOptions &o) {
        std::vector<Tensor> &x = p->tensors;
        exec::runFusedGemmChain3(cfg, p->plan, engine(), x[0], x[1], x[2],
                                 x[3], x[4], o);
    };
    p->unfused = [p, cfg](const exec::ExecOptions &o) {
        std::vector<Tensor> &x = p->tensors;
        exec::runUnfusedGemmChain3(cfg, engine(), x[0], x[1], x[2], x[3],
                                   x[5], x[6], x[4], kLibraryGemmTiles, o);
    };
    p->reference = [p, cfg](Tensor &out) {
        std::vector<Tensor> &x = p->tensors;
        exec::referenceGemmChain3(cfg, x[0], x[1], x[2], x[3], out);
    };
    return m;
}

std::unique_ptr<Member>
convChain(const std::string &tableName, Rng &rng)
{
    ir::ConvChainConfig cfg;
    for (const ir::ConvChainWorkload &w : ir::tableVWorkloads()) {
        if (w.config.name == tableName) {
            cfg = w.config;
        }
    }
    std::string name = tableName;
    name[0] = 'c';
    auto m = std::make_unique<Member>(name, ir::makeConvChain(cfg));
    m->constraints = exec::cpuChainConstraints(m->chain, hostKernel());
    std::vector<Tensor> &t = m->tensors;
    t.emplace_back(exec::convChainShapeI(cfg));
    t.emplace_back(exec::convChainShapeW1(cfg));
    t.emplace_back(exec::convChainShapeW2(cfg));
    t.emplace_back(exec::convChainShapeO(cfg));
    t.emplace_back(exec::convChainShapeT(cfg));
    fillInputs(*m, 3, rng);
    Member *p = m.get();
    p->output = &t[3];
    p->fused = [p, cfg](const exec::ExecOptions &o) {
        std::vector<Tensor> &x = p->tensors;
        exec::runFusedConvChain(cfg, p->plan, engine(), x[0], x[1], x[2],
                                x[3], o);
    };
    p->unfused = [p, cfg](const exec::ExecOptions &o) {
        std::vector<Tensor> &x = p->tensors;
        exec::runUnfusedConvChain(cfg, engine(), x[0], x[1], x[2], x[4],
                                  x[3], kLibraryConvTiles, kLibraryConvTiles,
                                  o);
    };
    p->reference = [p, cfg](Tensor &out) {
        std::vector<Tensor> &x = p->tensors;
        exec::referenceConvChain(cfg, x[0], x[1], x[2], out);
    };
    return m;
}

/** The chains and their seeded inputs, not yet planned. */
ChainSet
buildChainSet(std::uint64_t seed)
{
    const auto &tableIv = ir::tableIvWorkloads();
    const ir::GemmChainConfig &g2 = tableIv[1].config;
    const ir::GemmChainConfig &g5 = tableIv[4].config;
    const ir::GemmChainConfig &g11 = tableIv[10].config;
    Rng rng(seed);
    ChainSet set;
    set.push_back(gemmChain("g2", g2, ir::Epilogue::None, rng));
    set.push_back(
        gemmChain("g2_softmax", g2, ir::Epilogue::Softmax, rng));
    set.push_back(gemmChain("g5", g5, ir::Epilogue::None, rng));
    set.push_back(
        gemmChain("g5_softmax", g5, ir::Epilogue::Softmax, rng));
    set.push_back(gemmChain("g11", g11, ir::Epilogue::None, rng));
    set.push_back(attentionChain4(rng));
    set.push_back(convChain("C3", rng));
    set.push_back(convChain("C6", rng));
    return set;
}

/** Set-up: the planner's work for the set, thread-aware for @p threads. */
std::vector<plan::ExecutionPlan>
planSet(const ChainSet &set, int threads)
{
    std::vector<plan::ExecutionPlan> plans;
    for (const auto &m : set) {
        plans.push_back(planThreadAware(m->chain, m->constraints, threads));
    }
    return plans;
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.bytes())) == 0;
}

/** Per-chain wall times of one measurement phase, seconds. */
struct Samples
{
    std::vector<double> parallel; ///< nproc threads
    std::vector<double> serial; ///< 1 thread
};

double
timedRun(Member &m, const exec::ExecOptions &options, const Tensor &golden,
         Report &report)
{
    double seconds = 0.0;
    {
        obs::Span span(obs::trace(), "exec.fused", "exec");
        const double start = nowSeconds();
        m.fused(options);
        seconds = nowSeconds() - start;
    }
    obs::Span check(obs::trace(), "bench.check", "bench");
    report.check(bitwiseEqual(*m.output, golden),
                 m.name + ": output differs from the validated output");
    return seconds;
}

/**
 * Keeps every worker busy for a moment before timing, so the timed
 * parallel runs do not start on descheduled (virtual) cores.
 */
void
warmUpCores(int threads)
{
    (void)measureFmaGflops(threads);
}

/** Timed rounds over the set for about @p seconds, per thread count. */
std::vector<Samples>
measure(ChainSet &set, const std::vector<Tensor> &golden, int threads,
        double seconds, Report &report)
{
    std::vector<Samples> samples(set.size());
    const auto rounds = [&](const exec::ExecOptions &options, double budget,
                            std::vector<double> Samples::*into) {
        const double end = nowSeconds() + budget;
        for (int round = 0; round < kMinRounds || nowSeconds() < end;
             ++round) {
            for (std::size_t i = 0; i < set.size(); ++i) {
                (samples[i].*into)
                    .push_back(timedRun(*set[i], options, golden[i], report));
            }
        }
    };
    // Each thread count runs as one contiguous block: on a virtualized
    // host, interleaving serial runs lets idle vCPUs be descheduled and
    // the parallel runs then pay for waking them.
    warmUpCores(threads);
    rounds(exec::ExecOptions{threads, nullptr},
           threads > 1 ? seconds / 2 : seconds, &Samples::parallel);
    if (threads > 1) {
        rounds(exec::ExecOptions{1, nullptr}, seconds / 2, &Samples::serial);
    } else {
        for (Samples &s : samples) {
            s.serial = s.parallel;
        }
    }
    return samples;
}

std::vector<double>
perChain(const std::vector<Samples> &samples,
         std::vector<double> Samples::*which, double q)
{
    std::vector<double> out;
    for (const Samples &s : samples) {
        out.push_back(percentile(s.*which, q));
    }
    return out;
}

/** Geomean fused GFLOP/s over the set from per-chain median seconds. */
double
geomeanGflops(const ChainSet &set, const std::vector<double> &seconds)
{
    std::vector<double> rates;
    for (std::size_t i = 0; i < set.size(); ++i) {
        rates.push_back(set[i]->chain.totalFlops() / seconds[i] / 1e9);
    }
    return geomean(rates);
}

/**
 * Eq.-3 bound of @p m's plan against this run's ceilings: one on-chip
 * level of the planner's per-worker budget filled at the measured
 * streaming bandwidth, compute at the measured nproc FMA peak.
 */
double
boundSeconds(const Member &m, double fmaGflops, double streamGBps,
             int threads)
{
    obs::Span span(obs::trace(), "model.bound", "model");
    model::MachineModel machine;
    machine.name = "measured-host";
    machine.cores = threads;
    machine.peakFlops = fmaGflops * 1e9;
    machine.computeEfficiency = 1.0;
    machine.levels = {{"on-chip", kCapacityBytes * threads, streamGBps * 1e9,
                       model::LevelScope::Shared}};
    return model::evaluateMultiLevel(m.chain, machine,
                                     {{m.plan.perm, m.plan.tiles}}, {},
                                     threads)
        .boundSeconds;
}

/**
 * The traced run's extra per-layer measurements (untraced part); returns
 * the 1-thread FMA peak the kernel probe is normalized by.
 */
double
layerMetrics(ChainSet &set, const std::vector<Samples> &untraced,
             int threads, Report &report)
{
    const exec::ExecOptions parallel{threads, nullptr};
    const double fma1 = measureFmaGflops(1);
    const double fmaN = measureFmaGflops(threads);
    const StreamResult stream = measureStreamBandwidth(threads);
    report.metric("machine.fma_gflops_1t", fma1, "GFLOP/s");
    report.metric("machine.fma_gflops", fmaN, "GFLOP/s");
    report.metric("machine.stream_gbps", stream.gbPerSecond, "GB/s");
    report.metric("machine.llc_mb", stream.llcMb, "MB");
    report.metric("machine.stream_array_mb", stream.arrayMb, "MB");
    std::printf("ceilings: FMA %.1f GFLOP/s (1 thread), %.1f GFLOP/s (%d "
                "threads); stream %.1f GB/s over a %.0f MB array (LLC %.0f "
                "MB)\n",
                fma1, fmaN, threads, stream.gbPerSecond, stream.arrayMb,
                stream.llcMb);

    const std::vector<double> fusedPar =
        perChain(untraced, &Samples::parallel, 0.5);
    const std::vector<double> fusedSer =
        perChain(untraced, &Samples::serial, 0.5);
    std::vector<double> speedups;
    std::vector<double> scaling;
    std::vector<double> busy;
    for (std::size_t i = 0; i < set.size(); ++i) {
        Member &m = *set[i];
        std::vector<double> unfused;
        for (int r = 0; r < kMinRounds; ++r) {
            const double start = nowSeconds();
            m.unfused(parallel);
            unfused.push_back(nowSeconds() - start);
        }
        const double unfusedSeconds = median(unfused);
        exec::ChunkProfile profile(threads);
        const exec::ExecOptions profiled{threads, nullptr, nullptr, &profile};
        const double start = nowSeconds();
        m.fused(profiled);
        const double wall = nowSeconds() - start;

        report.metric("exec.fused_ms." + m.name, fusedPar[i] * 1e3, "ms");
        report.metric("exec.unfused_ms." + m.name, unfusedSeconds * 1e3,
                      "ms");
        report.metric("exec.model_ratio." + m.name,
                      fusedPar[i] /
                          boundSeconds(m, fmaN, stream.gbPerSecond, threads),
                      "ratio");
        report.metric("model.dv_bytes." + m.name,
                      m.plan.predictedVolumeBytes, "bytes");
        speedups.push_back(unfusedSeconds / fusedPar[i]);
        scaling.push_back(fusedSer[i] / (threads * fusedPar[i]));
        busy.push_back(profile.totalBusySeconds() / (threads * wall));
    }
    report.metric("exec.fusion_speedup", geomean(speedups), "ratio");
    report.metric("pool.scaling_eff", geomean(scaling), "ratio");
    report.metric("pool.busy_frac", geomean(busy), "ratio");
    return fma1;
}

} // namespace

void
runFusedExec(const Options &options, Report &report)
{
    const int threads = options.threads;
    // Inputs are the benchmark's, made untimed; set-up is what a user of
    // the library pays before the first run: planning the set.
    ChainSet set = buildChainSet(options.seed);
    std::vector<plan::ExecutionPlan> plans;
    SetupTimer setup;
    setup.blockAcrossCpus([&] { plans = planSet(set, threads); });
    for (std::size_t i = 0; i < set.size(); ++i) {
        set[i]->plan = plans[i];
    }

    // Correctness gate: each chain against its naive oracle, and the
    // 1-thread run bitwise against the nproc-thread run. Every timed run
    // after this is compared bitwise against the validated output.
    std::vector<Tensor> golden;
    for (const auto &m : set) {
        Tensor expected(m->output->shape());
        m->reference(expected);
        m->fused(exec::ExecOptions{threads, nullptr});
        report.check(allClose(*m->output, expected, 5e-3f, 5e-3f),
                     m->name + ": fused output differs from the oracle");
        golden.push_back(*m->output);
        m->fused(exec::ExecOptions{1, nullptr});
        report.check(bitwiseEqual(*m->output, golden.back()),
                     m->name + ": 1-thread output differs bitwise from the "
                               "nproc-thread output");
    }

    const double untracedSeconds =
        options.traced ? options.seconds / 2 : options.seconds;
    const std::vector<Samples> samples =
        measure(set, golden, threads, untracedSeconds, report);
    const std::vector<double> medPar =
        perChain(samples, &Samples::parallel, 0.5);
    report.metric(
        "op_ms_p75",
        geomean(perChain(samples, &Samples::parallel, 0.75)) * 1e3, "ms");
    report.metric(
        "op_ms_p90",
        geomean(perChain(samples, &Samples::parallel, 0.9)) * 1e3, "ms");
    report.metric("exec_gflops", geomeanGflops(set, medPar), "GFLOP/s");
    report.metric(
        "exec_gflops_1t",
        geomeanGflops(set, perChain(samples, &Samples::serial, 0.5)),
        "GFLOP/s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    std::printf("fused-exec: %zu rounds over %zu chains at %d threads\n",
                samples[0].parallel.size(), set.size(), threads);

    // The second set-up block, now that the measured phase is done.
    setup.blockAcrossCpus([&] { plans = planSet(set, threads); });
    report.metric("setup_s", setup.medianSeconds(), "s");

    if (!options.traced) {
        return;
    }
    const double fma1 = layerMetrics(set, samples, threads, report);

    int kc = 256;
    for (int a = 0; a < set[0]->chain.numAxes(); ++a) {
        if (set[0]->chain.axes()[static_cast<std::size_t>(a)].name == "k") {
            kc = static_cast<int>(set[0]->plan.tiles[static_cast<std::size_t>(a)]);
        }
    }
    obs::TraceRecorder *tracer = obs::TraceRecorder::enableGlobal();
    const std::int64_t begin = obs::nowNanos();
    double kernelGflops = 0.0;
    {
        obs::Span span(tracer, "kernels.micro", "kernels");
        kernelGflops = measureMicroKernelGflops(kc);
    }
    const std::vector<Samples> traced =
        measure(set, golden, threads, options.seconds / 2, report);
    report.traceWindow(begin, obs::nowNanos());
    tracer->writeJson(options.traceFile);

    report.metric("kernels.gflops", kernelGflops, "GFLOP/s");
    report.metric("kernels.peak_frac", kernelGflops / fma1, "ratio");
    std::vector<double> overhead;
    const std::vector<double> tracedPar =
        perChain(traced, &Samples::parallel, 0.5);
    for (std::size_t i = 0; i < set.size(); ++i) {
        overhead.push_back(tracedPar[i] / medPar[i]);
    }
    report.metric("trace_overhead_frac", geomean(overhead) - 1.0, "ratio");
}

} // namespace perfbench
