/**
 * @file
 * Order-sensitivity study: the inter-block claim checked against
 * wall-clock. For every *executable* block order of a Bert-style batch
 * GEMM chain, tiles are solved analytically, the fused kernel runs,
 * and the measured time is compared with the Algorithm-1 volume
 * prediction. If the model ranks orders correctly, the planner's pick
 * (minimum DV) should sit at or near the measured minimum.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "model/data_movement.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "support/str.hpp"

int
main()
{
    using namespace chimera;
    using namespace chimera::bench;
    bench::printHeader(
        "Order sensitivity — measured time vs predicted volume per "
        "block order",
        "G2-derived chain (batch 12, 512x512 scores, 64-dim heads); "
        "tiles solved per order under the L2 budget.");

    ir::GemmChainConfig cfg = ir::tableIvWorkloads()[1].config;
    cfg.epilogue = ir::Epilogue::Softmax;
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const exec::ComputeEngine engine = exec::ComputeEngine::best();
    GemmChainData data(cfg);

    struct Row
    {
        std::string order;
        double volumeMb;
        double ms;
    };
    std::vector<Row> rows;
    std::vector<double> volumes;
    std::vector<double> times;

    plan::PlannerOptions options;
    options.memCapacityBytes = hw::kPlanningBudgetBytes;
    options.constraints = exec::cpuChainConstraints(chain, hostKernel());

    const auto reorderable = chain.reorderableAxes();
    for (const auto &idx :
         allPermutations(static_cast<int>(reorderable.size()))) {
        std::vector<ir::AxisId> perm;
        for (int i : idx) {
            perm.push_back(reorderable[static_cast<std::size_t>(i)]);
        }
        if (!model::isExecutableOrder(chain, perm)) {
            continue;
        }
        plan::ExecutionPlan plan;
        try {
            plan = plan::planFixedOrder(chain, perm, options);
        } catch (const Error &) {
            continue;
        }
        const double ms =
            timeFusedGemmChain(cfg, plan, engine, data, 2) * 1e3;
        rows.push_back({plan::orderString(chain, perm),
                        plan.predictedVolumeBytes / 1e6, ms});
        volumes.push_back(plan.predictedVolumeBytes);
        times.push_back(ms);
    }

    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.ms < b.ms; });
    AsciiTable table({"Order (measured-fastest first)", "DV (MB)",
                      "time (ms)"});
    for (const Row &row : rows) {
        table.addRow({row.order, AsciiTable::num(row.volumeMb, 2),
                      AsciiTable::num(row.ms, 2)});
    }
    std::printf("%s\n", table.render().c_str());

    // Does the min-DV order land near the measured minimum?
    std::size_t bestDv = 0;
    for (std::size_t i = 1; i < volumes.size(); ++i) {
        if (volumes[i] < volumes[bestDv]) {
            bestDv = i;
        }
    }
    double bestTime = *std::min_element(times.begin(), times.end());
    std::printf("orders evaluated: %zu; min-DV order runs within %.1f%% "
                "of the measured-fastest order.\n",
                rows.size(),
                100.0 * (times[bestDv] / bestTime - 1.0));
    return 0;
}
