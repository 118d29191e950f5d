/**
 * @file
 * Golden plans: every listed shape is planned cold, and its plan
 * document plus Algorithm 1's predicted DV and MU must match
 * tests/fixtures/golden_plans.txt byte for byte.
 *
 * The shapes are the fused-exec benchmark chains (serial and at four
 * executor threads), Table IV and Table V, and a seeded stream over the
 * seven plan-churn families. Constraints come from kernel geometries
 * named here, never from the host's SIMD tier, so one fixture holds on
 * every build. A change meant to keep plans identical must pass this
 * unchanged; a change meant to alter plans replaces the fixture with the
 * golden_plans.actual.txt this test writes into its working directory on
 * a mismatch.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "exec/constraints.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "hw/machines.hpp"
#include "ir/workloads.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "support/rng.hpp"

namespace chimera {
namespace {

/** Budget of the figure benches and the benchmark workloads. */
constexpr double kCapacityBytes = 768.0 * 1024;

/** Seeded shapes drawn over the plan-churn families. */
constexpr int kSeededShapes = 240;

/** Only mr and nr reach the constraints; no kernel body runs here. */
kernels::MicroKernel
geometry(int mr, int nr)
{
    kernels::MicroKernel kernel;
    kernel.name = std::to_string(mr) + "x" + std::to_string(nr);
    kernel.mr = mr;
    kernel.nr = nr;
    return kernel;
}

const kernels::MicroKernel kScalar =
    geometry(kernels::kScalarMr, kernels::kScalarNr);
const kernels::MicroKernel kWide = geometry(6, 64);

struct Shape
{
    std::string label;
    ir::Chain chain;
    plan::PlannerOptions options;
};

plan::PlannerOptions
baseOptions(solver::TileConstraints constraints)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = kCapacityBytes;
    options.constraints = std::move(constraints);
    options.threads = 1;
    return options;
}

void
makeThreadAware(plan::PlannerOptions &options, int execThreads)
{
    options.execThreads = execThreads;
    options.topology = hw::multicoreCpuTopology();
}

std::string
kernelTag(const kernels::MicroKernel &kernel)
{
    return " kernel=" + kernel.name;
}

/** The fused-exec chain set, planned thread-aware as its set-up does. */
void
addFusedExecShapes(std::vector<Shape> &shapes)
{
    const auto &tableIv = ir::tableIvWorkloads();
    for (const kernels::MicroKernel *kernel : {&kScalar, &kWide}) {
        for (int threads : {1, 4}) {
            const std::string suffix = kernelTag(*kernel) +
                                       " exec-threads=" +
                                       std::to_string(threads);
            const auto addGemm = [&](const std::string &name,
                                     ir::GemmChainConfig cfg,
                                     ir::Epilogue epilogue) {
                cfg.name = name;
                cfg.epilogue = epilogue;
                ir::Chain chain = ir::makeGemmChain(cfg);
                plan::PlannerOptions options = baseOptions(
                    exec::cpuChainConstraints(chain, *kernel));
                makeThreadAware(options, threads);
                shapes.push_back({"fused-exec/" + name + suffix,
                                  std::move(chain), options});
            };
            addGemm("g2", tableIv[1].config, ir::Epilogue::None);
            addGemm("g2_softmax", tableIv[1].config, ir::Epilogue::Softmax);
            addGemm("g5", tableIv[4].config, ir::Epilogue::None);
            addGemm("g5_softmax", tableIv[4].config, ir::Epilogue::Softmax);
            addGemm("g11", tableIv[10].config, ir::Epilogue::None);

            ir::GemmChain3Config attn;
            attn.name = "attn4";
            attn.batch = 8;
            attn.m = 256;
            attn.k = 64;
            attn.l = 256;
            attn.p = 64;
            attn.n = 64;
            attn.epilogue = ir::Epilogue::Softmax;
            attn.softmaxScale = 0.125f;
            ir::Chain attnChain = ir::makeGemmChain3(attn);
            plan::PlannerOptions attnOptions = baseOptions(
                exec::gemmChain3Constraints(attnChain, *kernel));
            makeThreadAware(attnOptions, threads);
            shapes.push_back({"fused-exec/attn4" + suffix,
                              std::move(attnChain), attnOptions});

            for (std::size_t row : {2u, 5u}) {
                ir::ConvChainConfig cfg = ir::tableVWorkloads()[row].config;
                ir::Chain chain = ir::makeConvChain(cfg);
                plan::PlannerOptions options = baseOptions(
                    exec::cpuChainConstraints(chain, *kernel));
                makeThreadAware(options, threads);
                shapes.push_back({"fused-exec/" + cfg.name + suffix,
                                  std::move(chain), options});
            }
        }
    }
}

/** Table IV (no epilogue) and Table V (ReLU), serial. */
void
addTableShapes(std::vector<Shape> &shapes)
{
    for (const kernels::MicroKernel *kernel : {&kScalar, &kWide}) {
        for (const ir::GemmChainWorkload &row : ir::tableIvWorkloads()) {
            ir::Chain chain = ir::makeGemmChain(row.config);
            plan::PlannerOptions options =
                baseOptions(exec::cpuChainConstraints(chain, *kernel));
            shapes.push_back({"table-iv/" + row.config.name +
                                  kernelTag(*kernel),
                              std::move(chain), options});
        }
        for (const ir::ConvChainWorkload &row : ir::tableVWorkloads()) {
            ir::ConvChainConfig cfg = row.config;
            cfg.epilogue = ir::Epilogue::Relu;
            ir::Chain chain = ir::makeConvChain(cfg);
            plan::PlannerOptions options =
                baseOptions(exec::cpuChainConstraints(chain, *kernel));
            shapes.push_back({"table-v/" + cfg.name + kernelTag(*kernel),
                              std::move(chain), options});
        }
    }
}

std::int64_t
pick(Rng &rng, std::int64_t lo, std::int64_t hi, std::int64_t step)
{
    return lo + step * static_cast<std::int64_t>(rng.below(
                           static_cast<std::uint64_t>((hi - lo) / step + 1)));
}

std::int64_t
pickOf(Rng &rng, std::initializer_list<std::int64_t> values)
{
    return *(values.begin() + rng.below(values.size()));
}

/**
 * One draw over the plan-churn families, with the same extent ranges:
 * gemm2_none, gemm2_relu, gemm2_softmax, gemm3, attn4, conv, and
 * threaded (a 2-GEMM chain planned for four executor threads).
 */
Shape
drawShape(Rng &rng)
{
    static const char *const kFamilies[] = {
        "gemm2_none", "gemm2_relu", "gemm2_softmax", "gemm3",
        "attn4",      "conv",       "threaded"};
    const int family = static_cast<int>(rng.below(7));
    const kernels::MicroKernel &kernel = rng.below(2) == 0 ? kScalar : kWide;
    const std::string name = kFamilies[family];
    std::ostringstream label;
    label << name;
    if (family == 3 || family == 4) {
        ir::GemmChain3Config cfg;
        cfg.name = name;
        cfg.batch = pickOf(rng, {1, 2, 4});
        cfg.m = pick(rng, 64, 768, 32);
        cfg.l = pick(rng, 64, 512, 32);
        cfg.k = pick(rng, 32, 128, 16);
        cfg.p = pick(rng, 32, 128, 16);
        cfg.n = pick(rng, 32, 128, 16);
        if (family == 4) {
            cfg.epilogue = ir::Epilogue::Softmax;
            cfg.softmaxScale = 1.0f / std::sqrt(static_cast<float>(cfg.k));
        }
        label << " b=" << cfg.batch << " m=" << cfg.m << " l=" << cfg.l
              << " k=" << cfg.k << " p=" << cfg.p << " n=" << cfg.n
              << kernelTag(kernel);
        ir::Chain chain = ir::makeGemmChain3(cfg);
        plan::PlannerOptions options =
            baseOptions(exec::gemmChain3Constraints(chain, kernel));
        return {label.str(), std::move(chain), options};
    }
    if (family == 5) {
        ir::ConvChainConfig cfg;
        cfg.name = name;
        cfg.ic = pickOf(rng, {16, 32, 64, 128});
        cfg.h = cfg.w = pickOf(rng, {14, 28, 56});
        cfg.oc1 = pickOf(rng, {32, 64, 128, 256});
        cfg.oc2 = pickOf(rng, {32, 64, 128});
        const std::int64_t kind = pickOf(rng, {0, 1, 2});
        cfg.k1 = kind == 0 ? 3 : 1;
        cfg.k2 = kind == 1 ? 3 : 1;
        cfg.stride1 = static_cast<int>(pickOf(rng, {1, 1, 2}));
        label << " ic=" << cfg.ic << " hw=" << cfg.h << " oc1=" << cfg.oc1
              << " oc2=" << cfg.oc2 << " k1=" << cfg.k1 << " k2=" << cfg.k2
              << " stride1=" << cfg.stride1 << kernelTag(kernel);
        ir::Chain chain = ir::makeConvChain(cfg);
        plan::PlannerOptions options =
            baseOptions(exec::cpuChainConstraints(chain, kernel));
        return {label.str(), std::move(chain), options};
    }
    ir::GemmChainConfig cfg;
    cfg.name = name;
    cfg.batch = pickOf(rng, {1, 2, 4, 8});
    cfg.m = pick(rng, 64, 1024, 32);
    cfg.l = pick(rng, 64, 1024, 32);
    cfg.k = pick(rng, 32, 128, 16);
    cfg.n = pick(rng, 32, 128, 16);
    cfg.epilogue = family == 1   ? ir::Epilogue::Relu
                   : family == 2 ? ir::Epilogue::Softmax
                                 : ir::Epilogue::None;
    cfg.softmaxScale = 1.0f / std::sqrt(static_cast<float>(cfg.k));
    label << " b=" << cfg.batch << " m=" << cfg.m << " l=" << cfg.l
          << " k=" << cfg.k << " n=" << cfg.n << kernelTag(kernel);
    ir::Chain chain = ir::makeGemmChain(cfg);
    plan::PlannerOptions options =
        baseOptions(exec::cpuChainConstraints(chain, kernel));
    if (family == 6) {
        makeThreadAware(options, 4);
        label << " exec-threads=4";
    }
    return {label.str(), std::move(chain), options};
}

std::vector<Shape>
goldenShapes()
{
    std::vector<Shape> shapes;
    addFusedExecShapes(shapes);
    addTableShapes(shapes);
    Rng rng(20231);
    std::set<std::string> seen;
    int drawn = 0;
    while (drawn < kSeededShapes) {
        Shape shape = drawShape(rng);
        if (!seen.insert(shape.label).second) {
            continue;
        }
        char index[16];
        std::snprintf(index, sizeof index, "seeded/%03d ", drawn++);
        shape.label = index + shape.label;
        shapes.push_back(std::move(shape));
    }
    return shapes;
}

/** One fixture record: label, plan document, predicted DV and MU. */
std::string
record(const Shape &shape)
{
    const plan::ExecutionPlan plan =
        plan::planChain(shape.chain, shape.options);
    char model[96];
    std::snprintf(model, sizeof model, "model: dv=%.17g mu=%lld\n",
                  plan.predictedVolumeBytes,
                  static_cast<long long>(plan.memUsageBytes));
    return "== " + shape.label + "\n" +
           plan::serializePlan(shape.chain, plan) + model;
}

/** Splits fixture text into records, each starting at a "== " line. */
std::vector<std::string>
splitRecords(const std::string &text)
{
    std::vector<std::string> records;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t next = text.find("\n== ", start);
        next = next == std::string::npos ? text.size() : next + 1;
        records.push_back(text.substr(start, next - start));
        start = next;
    }
    return records;
}

TEST(PlannerGolden, ColdPlansMatchFixture)
{
    std::ifstream in(CHIMERA_GOLDEN_PLANS);
    ASSERT_TRUE(in) << "cannot open " << CHIMERA_GOLDEN_PLANS;
    std::ostringstream fixture;
    fixture << in.rdbuf();
    const std::vector<std::string> expected = splitRecords(fixture.str());

    std::string actualText;
    std::vector<std::string> actual;
    for (const Shape &shape : goldenShapes()) {
        actual.push_back(record(shape));
        actualText += actual.back();
    }
    if (actualText != fixture.str()) {
        std::ofstream("golden_plans.actual.txt") << actualText;
    }
    ASSERT_EQ(expected.size(), actual.size())
        << "fixture record count differs; this build's plans are in "
           "golden_plans.actual.txt";
    int mismatches = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (expected[i] != actual[i] && ++mismatches <= 5) {
            ADD_FAILURE() << "expected:\n"
                          << expected[i] << "planned:\n"
                          << actual[i];
        }
    }
    EXPECT_EQ(mismatches, 0)
        << "this build's plans are in golden_plans.actual.txt";
}

} // namespace
} // namespace chimera
