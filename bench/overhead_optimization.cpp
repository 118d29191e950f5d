/**
 * @file
 * §VI-E "Optimization Overhead" reproduction: Chimera's analytical
 * planning time versus the profiling-driven random tuner (the Ansor
 * proxy), and the quality of the schedules each finds. The paper
 * reports Chimera optimizing 21.89x faster while achieving 1.39x better
 * performance.
 */

#include <cstdio>

#include "baselines/random_tuner.hpp"
#include "bench_common.hpp"
#include "support/mathutil.hpp"

int
main()
{
    using namespace chimera;
    using namespace chimera::bench;
    bench::printHeader(
        "§VI-E — optimization overhead: analytical planning vs tuning",
        "Random tuner measures 30 candidates on hardware per chain; "
        "Chimera's planner never executes a kernel. The warm column "
        "replans through the plan cache (the deployed steady state).");

    const exec::ComputeEngine engine = exec::ComputeEngine::best();
    plan::PlanCache cache(""); // in-memory: isolates runs from ~/.cache
    AsciiTable table({"Chain", "plan cold (ms)", "plan warm (ms)",
                      "cold/warm", "tune (ms)", "tune/plan",
                      "Chimera run (ms)", "tuned run (ms)", "perf ratio"});
    std::vector<double> overheadRatios;
    std::vector<double> perfRatios;
    std::vector<double> warmSpeedups;
    for (std::size_t i : {1u, 4u, 7u, 9u, 11u}) {
        const ir::GemmChainConfig cfg = ir::tableIvWorkloads()[i].config;
        const ir::Chain chain = ir::makeGemmChain(cfg);
        GemmChainData data(cfg);

        const plan::ExecutionPlan plan = planCpuCached(chain, cache);
        const plan::ExecutionPlan warm = planCpuCached(chain, cache);
        if (warm.perm != plan.perm || warm.tiles != plan.tiles) {
            std::fprintf(stderr,
                         "FATAL: warm cache plan differs from cold plan "
                         "for %s\n",
                         cfg.name.c_str());
            return 1;
        }
        warmSpeedups.push_back(plan.planSeconds / warm.planSeconds);
        const double tChimera = timeFusedGemmChain(cfg, plan, engine, data);

        baselines::TunerOptions tunerOptions;
        tunerOptions.memCapacityBytes = hw::kPlanningBudgetBytes;
        tunerOptions.trials = 30;
        tunerOptions.seed = 5;
        tunerOptions.constraints =
            exec::cpuChainConstraints(chain, hostKernel());
        const baselines::TunerResult tuned = baselines::randomSearchPlan(
            chain, tunerOptions, [&](const plan::ExecutionPlan &p) {
                return bestOfSeconds(
                    [&] {
                        exec::runFusedGemmChain(cfg, p, engine, data.a,
                                                data.b, data.d, data.e);
                    },
                    1, 0);
            });
        const double tTuned =
            timeFusedGemmChain(cfg, tuned.plan, engine, data);

        overheadRatios.push_back(tuned.tuneSeconds / plan.planSeconds);
        perfRatios.push_back(tTuned / tChimera);
        table.addRow(
            {cfg.name, AsciiTable::num(plan.planSeconds * 1e3, 2),
             AsciiTable::num(warm.planSeconds * 1e3, 4),
             AsciiTable::num(plan.planSeconds / warm.planSeconds, 0) +
                 "x",
             AsciiTable::num(tuned.tuneSeconds * 1e3, 1),
             AsciiTable::num(tuned.tuneSeconds / plan.planSeconds, 1) +
                 "x",
             AsciiTable::num(tChimera * 1e3, 2),
             AsciiTable::num(tTuned * 1e3, 2),
             AsciiTable::num(tTuned / tChimera, 2) + "x"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("geomean: tuning costs %.1fx more time than planning; "
                "planned kernels run %.2fx faster than tuned ones "
                "(paper: 21.89x and 1.39x); a warm plan-cache hit is "
                "%.0fx faster than cold planning.\n",
                geometricMean(overheadRatios), geometricMean(perfRatios),
                geometricMean(warmSpeedups));
    return 0;
}
