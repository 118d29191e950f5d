/**
 * @file
 * Extension experiment (beyond the paper's evaluation): fusing chains
 * of THREE batch GEMMs, the "more compute-intensive operators"
 * generalization §IV-B claims. Both intermediates stay on chip (the
 * middle one as a panel pinned by the planner's cycle analysis).
 * Measured wall-clock fused vs unfused, plus the model's DRAM-volume
 * comparison.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "model/data_movement.hpp"
#include "support/mathutil.hpp"
#include "support/str.hpp"

int
main()
{
    using namespace chimera;
    using namespace chimera::bench;
    bench::printHeader(
        "Extension — three-GEMM chain fusion (measured, CPU)",
        "E = ((A x B) x D) x F with both intermediates on chip; MLP-"
        "Mixer-style shapes.");

    struct Shape
    {
        const char *name;
        std::int64_t batch, m, n, k, l, p;
    };
    const Shape shapes[] = {
        {"T1", 1, 512, 64, 64, 256, 64},
        {"T2", 1, 768, 64, 64, 384, 96},
        {"T3", 4, 256, 64, 64, 256, 64},
        {"T4", 8, 512, 64, 64, 512, 64},
    };

    const exec::ComputeEngine engine = exec::ComputeEngine::best();
    AsciiTable table({"Chain", "Unfused (ms)", "Chimera (ms)", "speedup",
                      "order", "DV fused", "DV unfused"});
    std::vector<double> speedups;
    for (const Shape &shape : shapes) {
        ir::GemmChain3Config cfg;
        cfg.name = shape.name;
        cfg.batch = shape.batch;
        cfg.m = shape.m;
        cfg.n = shape.n;
        cfg.k = shape.k;
        cfg.l = shape.l;
        cfg.p = shape.p;

        const ir::Chain chain = ir::makeGemmChain3(cfg);
        plan::PlannerOptions options;
        options.memCapacityBytes = hw::kPlanningBudgetBytes;
        options.constraints =
            exec::gemmChain3Constraints(chain, hostKernel());
        const plan::ExecutionPlan plan = plan::planChain(chain, options);

        Tensor a(exec::gemmChain3ShapeA(cfg));
        Tensor b(exec::gemmChain3ShapeB(cfg));
        Tensor d(exec::gemmChain3ShapeD(cfg));
        Tensor f(exec::gemmChain3ShapeF(cfg));
        Tensor e(exec::gemmChain3ShapeE(cfg));
        Tensor c1(cfg.batch > 1
                      ? Tensor({cfg.batch, cfg.m, cfg.l})
                      : Tensor({cfg.m, cfg.l}));
        Tensor c2(cfg.batch > 1
                      ? Tensor({cfg.batch, cfg.m, cfg.p})
                      : Tensor({cfg.m, cfg.p}));
        Rng rng(1);
        fillUniform(a, rng);
        fillUniform(b, rng);
        fillUniform(d, rng);
        fillUniform(f, rng);

        // Validate before timing.
        Tensor expected(exec::gemmChain3ShapeE(cfg));
        exec::referenceGemmChain3(cfg, a, b, d, f, expected);
        exec::runFusedGemmChain3(cfg, plan, engine, a, b, d, f, e);
        if (!allClose(e, expected, 5e-3f, 5e-3f)) {
            std::printf("VALIDATION FAILED for %s\n", cfg.name.c_str());
            return 1;
        }

        const double tFused = bestOfSeconds(
            [&] {
                exec::runFusedGemmChain3(cfg, plan, engine, a, b, d, f,
                                         e);
            },
            kRepeats);
        const double tUnfused = bestOfSeconds(
            [&] {
                exec::runUnfusedGemmChain3(cfg, engine, a, b, d, f, c1,
                                           c2, e, {64, 64, 64});
            },
            kRepeats);

        const auto dvFused =
            model::computeDataMovement(chain, plan.perm, plan.tiles);
        model::ModelOptions spilled;
        spilled.intermediatesAreIO = true;
        const auto dvUnfused = model::computeDataMovement(
            chain, plan.perm, plan.tiles, spilled);

        speedups.push_back(tUnfused / tFused);
        table.addRow({cfg.name, AsciiTable::num(tUnfused * 1e3, 2),
                      AsciiTable::num(tFused * 1e3, 2),
                      AsciiTable::num(tUnfused / tFused, 2) + "x",
                      plan::orderString(chain, plan.perm),
                      formatBytes(dvFused.volumeBytes),
                      formatBytes(dvUnfused.volumeBytes)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("geomean speedup %.2fx; both intermediates avoid DRAM "
                "round-trips entirely.\n",
                geometricMean(speedups));
    return 0;
}
