/**
 * @file
 * Figure 5a/5b reproduction (CPU): batch GEMM chain fusion, without and
 * with the softmax intermediate, on the Table IV workloads G1-G12.
 *
 * Baseline mapping (DESIGN.md §2):
 *  - "Relay"   -> unfused, scalar micro kernel, fixed tiles
 *                 (template-grade per-op kernels, no tuning);
 *  - "PyTorch" -> unfused, best micro kernel, fixed 64^3 tiles
 *                 (library-grade per-op kernels, no chain fusion);
 *  - "Ansor"   -> unfused, best micro kernel, analytically solved
 *                 per-GEMM tiles (well-tuned per-op schedules);
 *  - "Chimera" -> fused, planner-chosen order and tiles.
 *
 * Every row is validated against the naive oracle before timing.
 * Speedups are normalized to the PyTorch proxy as in the paper.
 */

#include <cstdio>
#include <cstring>

#include <algorithm>

#include "analysis/dependence.hpp"
#include "analysis/static_safety.hpp"
#include "bench_common.hpp"
#include "support/mathutil.hpp"
#include "support/thread_pool.hpp"

namespace chimera::bench {
namespace {

/** Bench knobs shared by the two figure families. */
struct RunOptions
{
    int threads = 0;  ///< --threads N (0 = CHIMERA_THREADS / hardware)
    bool quick = false; ///< --quick: first four Table IV workloads only
};

void
runFamily(ir::Epilogue epilogue, const char *title, const RunOptions &run)
{
    const exec::ComputeEngine best = exec::ComputeEngine::best();
    const exec::ComputeEngine scalar = exec::ComputeEngine::scalar();
    const exec::ExecOptions parOptions{run.threads, nullptr};
    const int workers = resolveThreadCount(run.threads);

    AsciiTable table({"Chain", "Relay (ms)", "PyTorch (ms)", "Ansor (ms)",
                      "Chimera 1T (ms)",
                      "Chimera " + std::to_string(workers) + "T (ms)",
                      "order", "vs PyTorch", "vs Ansor", "scaling"});
    std::vector<double> speedupsPt;
    std::vector<double> speedupsAnsor;
    std::vector<double> scalings;
    const auto &loads = ir::tableIvWorkloads();
    const std::size_t count =
        run.quick ? std::min<std::size_t>(4, loads.size()) : loads.size();
    for (std::size_t w = 0; w < count; ++w) {
        ir::GemmChainConfig cfg = loads[w].config;
        cfg.epilogue = epilogue;
        const ir::Chain chain = ir::makeGemmChain(cfg);
        const plan::ExecutionPlan plan = planCpu(chain);
        // The thread-aware plan the parallel column runs:
        // per-worker LLC budgets plus the task-grid refinement.
        const plan::ExecutionPlan planPar =
            workers > 1 ? planCpuThreaded(chain, workers) : plan;
        GemmChainData data(cfg);

        // Correctness gate: fused output must match the oracle, and the
        // parallel fused run of the thread-aware plan must match its
        // serial run bitwise.
        Tensor expected(exec::gemmChainShapeE(cfg));
        exec::referenceGemmChain(cfg, data.a, data.b, data.d, expected);
        exec::runFusedGemmChain(cfg, planPar, best, data.a, data.b,
                                data.d, data.e);
        if (!allClose(data.e, expected, 5e-3f, 5e-3f)) {
            std::printf("VALIDATION FAILED for %s\n", cfg.name.c_str());
            return;
        }
        Tensor serialOut = data.e;
        exec::runFusedGemmChain(cfg, planPar, best, data.a, data.b,
                                data.d, data.e, parOptions);
        if (std::memcmp(serialOut.data(), data.e.data(),
                        static_cast<std::size_t>(serialOut.numel()) *
                            sizeof(float)) != 0) {
            std::printf("PARALLEL DETERMINISM FAILED for %s\n",
                        cfg.name.c_str());
            return;
        }

        const exec::GemmTiles fixed{64, 64, 64};
        const exec::GemmTiles tuned1 =
            solvedGemmTiles(cfg.batch, cfg.m, cfg.l, cfg.k);
        const exec::GemmTiles tuned2 =
            solvedGemmTiles(cfg.batch, cfg.m, cfg.n, cfg.l);

        const double tRelay =
            timeUnfusedGemmChain(cfg, scalar, data, fixed, fixed);
        const double tPytorch =
            timeUnfusedGemmChain(cfg, best, data, fixed, fixed);
        const double tAnsor =
            timeUnfusedGemmChain(cfg, best, data, tuned1, tuned2);
        const double tChimera =
            timeFusedGemmChain(cfg, plan, best, data, kRepeats,
                               exec::ExecOptions{1, nullptr});
        const double tChimeraPar = timeFusedGemmChain(
            cfg, planPar, best, data, kRepeats, parOptions);

        speedupsPt.push_back(tPytorch / tChimeraPar);
        speedupsAnsor.push_back(tAnsor / tChimeraPar);
        scalings.push_back(tChimera / tChimeraPar);
        table.addRow({cfg.name, AsciiTable::num(tRelay * 1e3, 2),
                      AsciiTable::num(tPytorch * 1e3, 2),
                      AsciiTable::num(tAnsor * 1e3, 2),
                      AsciiTable::num(tChimera * 1e3, 2),
                      AsciiTable::num(tChimeraPar * 1e3, 2),
                      plan::orderString(chain, planPar.perm),
                      AsciiTable::num(tPytorch / tChimeraPar, 2) + "x",
                      AsciiTable::num(tAnsor / tChimeraPar, 2) + "x",
                      AsciiTable::num(tChimera / tChimeraPar, 2) + "x"});
    }
    std::printf("--- %s ---\n%s", title, table.render().c_str());
    std::printf("geomean speedup vs PyTorch proxy: %.2fx, vs Ansor proxy:"
                " %.2fx, serial->%dT scaling: %.2fx\n\n",
                geometricMean(speedupsPt), geometricMean(speedupsAnsor),
                workers, geometricMean(scalings));
}

/**
 * Planner-cost split over the Table IV workloads: time of the
 * dependence analysis (which the planner runs once per finished plan to
 * attach the axis-concurrency table) and of the static safety analyzer
 * (which certifies the winner's SB01-SB04 rules) against the full
 * planning cost. The lines are machine-parseable;
 * scripts/bench_scaling.sh lifts them into BENCH_scaling.json.
 */
void
reportAnalysisOverhead()
{
    double planMs = 0.0;
    double analysisMs = 0.0;
    double safetyMs = 0.0;
    for (const auto &load : ir::tableIvWorkloads()) {
        const ir::Chain chain = ir::makeGemmChain(load.config);
        const WallTimer planTimer;
        const plan::ExecutionPlan plan = planCpu(chain);
        planMs += planTimer.milliseconds();
        const WallTimer analysisTimer;
        (void)analysis::analyzeConcurrency(chain, plan.tiles);
        analysisMs += analysisTimer.milliseconds();
        analysis::SafetyOptions so;
        so.memCapacityBytes = hw::kPlanningBudgetBytes;
        const analysis::SafetyAnalysis sa = analysis::analyzeSafety(
            chain, plan.tiles, plan::effectiveConcurrency(chain, plan),
            std::max(1, plan.plannedThreads),
            analysis::ShapeDomain::concrete(chain), so);
        safetyMs += sa.totalSeconds * 1e3;
    }
    std::printf("analysis overhead: dependence analysis %.3f ms vs"
                " planning %.3f ms (%.2f%% of planning)\n",
                analysisMs, planMs,
                planMs > 0.0 ? 100.0 * analysisMs / planMs : 0.0);
    std::printf("analysis overhead: static safety %.3f ms vs"
                " planning %.3f ms (%.2f%% of planning)\n\n",
                safetyMs, planMs,
                planMs > 0.0 ? 100.0 * safetyMs / planMs : 0.0);
}

} // namespace
} // namespace chimera::bench

int
main(int argc, char **argv)
{
    using namespace chimera;
    bench::RunOptions run;
    run.threads = bench::threadsFromArgs(argc, argv);
    run.quick = bench::flagInArgs(argc, argv, "--quick");
    bench::printHeader(
        "Figure 5a/5b — CPU batch GEMM chain fusion (measured)",
        "AVX-512 fp32 (--threads N or CHIMERA_THREADS selects the worker"
        " count; Chimera timed serial and parallel); note the substrate's"
        " compute/bandwidth balance (~6 Flop/byte) is far below the"
        " paper's 18-core fp16 Xeon (92 Flop/byte), which compresses"
        " memory-bound gaps (see EXPERIMENTS.md).");
    bench::runFamily(ir::Epilogue::None, "Figure 5a: BGEMM + BGEMM", run);
    bench::runFamily(ir::Epilogue::Softmax,
                     "Figure 5b: BGEMM + softmax + BGEMM", run);
    bench::reportAnalysisOverhead();
    return 0;
}
