/**
 * @file
 * Determinism tests for the parallel executors: every fused/tiled
 * executor must produce bitwise-identical outputs at 1, 2, and 8
 * threads, because only dependence-free block loops are distributed and
 * every floating-point reduction keeps its serial ascending order.
 */

#include <gtest/gtest.h>

#include <cstring>

#include <algorithm>

#include "analysis/dependence.hpp"
#include "analysis/race_checker.hpp"
#include "exec/chunk_profile.hpp"
#include "exec/conv_chain_exec.hpp"
#include "exec/gemm_chain3_exec.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "exec/region_walk.hpp"
#include "hw/machines.hpp"
#include "graph/cnn.hpp"
#include "graph/transformer.hpp"
#include "ir/builders.hpp"
#include "obs/trace.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace chimera::exec {
namespace {

using ir::ConvChainConfig;
using ir::Epilogue;
using ir::GemmChainConfig;

constexpr int kThreadCounts[] = {1, 2, 8};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

plan::ExecutionPlan
planFor(const ir::Chain &chain, double capacityBytes)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = capacityBytes;
    return plan::planChain(chain, options);
}

TEST(ParallelExec, FusedGemmChainBitwiseIdenticalAcrossThreadCounts)
{
    for (Epilogue epi :
         {Epilogue::None, Epilogue::Relu, Epilogue::Softmax}) {
        GemmChainConfig cfg;
        cfg.batch = 3;
        cfg.m = 48;
        cfg.n = 24;
        cfg.k = 16;
        cfg.l = 40;
        cfg.epilogue = epi;
        cfg.softmaxScale = 0.25f;
        const ir::Chain chain = ir::makeGemmChain(cfg);
        const plan::ExecutionPlan plan = planFor(chain, 16.0 * 1024);
        const ComputeEngine engine = ComputeEngine::best();

        Tensor a(gemmChainShapeA(cfg));
        Tensor b(gemmChainShapeB(cfg));
        Tensor d(gemmChainShapeD(cfg));
        Rng rng(42);
        fillUniform(a, rng);
        fillUniform(b, rng);
        fillUniform(d, rng);

        Tensor serial(gemmChainShapeE(cfg));
        runFusedGemmChain(cfg, plan, engine, a, b, d, serial);
        for (int threads : kThreadCounts) {
            Tensor e(gemmChainShapeE(cfg));
            runFusedGemmChain(cfg, plan, engine, a, b, d, e,
                              ExecOptions{threads, nullptr});
            EXPECT_TRUE(bitwiseEqual(e, serial))
                << "epilogue " << static_cast<int>(epi) << " threads "
                << threads;
        }
    }
}

TEST(ParallelExec, TiledBatchGemmBitwiseIdenticalAcrossThreadCounts)
{
    Tensor a({3, 37, 29});
    Tensor b({3, 29, 23});
    Rng rng(7);
    fillUniform(a, rng);
    fillUniform(b, rng);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor serial({3, 37, 23});
    runTiledBatchGemm(engine, a, b, serial, GemmTiles{16, 8, 8});
    for (int threads : kThreadCounts) {
        Tensor c({3, 37, 23});
        runTiledBatchGemm(engine, a, b, c, GemmTiles{16, 8, 8},
                          ExecOptions{threads, nullptr});
        EXPECT_TRUE(bitwiseEqual(c, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, FusedGemmChain3BitwiseIdenticalAcrossThreadCounts)
{
    ir::GemmChain3Config cfg;
    cfg.batch = 2;
    cfg.m = 48;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 40;
    cfg.p = 20;
    cfg.epilogue = Epilogue::Relu;
    const ir::Chain chain = ir::makeGemmChain3(cfg);
    plan::PlannerOptions options;
    options.memCapacityBytes = 48.0 * 1024;
    options.constraints = gemmChain3Constraints(
        chain,
        kernels::MicroKernelRegistry::instance().select(detectSimdTier()));
    const plan::ExecutionPlan plan = plan::planChain(chain, options);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor a(gemmChain3ShapeA(cfg));
    Tensor b(gemmChain3ShapeB(cfg));
    Tensor d(gemmChain3ShapeD(cfg));
    Tensor f(gemmChain3ShapeF(cfg));
    Rng rng(5);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);
    fillUniform(f, rng);

    Tensor serial(gemmChain3ShapeE(cfg));
    runFusedGemmChain3(cfg, plan, engine, a, b, d, f, serial);
    for (int threads : kThreadCounts) {
        Tensor e(gemmChain3ShapeE(cfg));
        runFusedGemmChain3(cfg, plan, engine, a, b, d, f, e,
                           ExecOptions{threads, nullptr});
        EXPECT_TRUE(bitwiseEqual(e, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, FusedConvChainBitwiseIdenticalAcrossThreadCounts)
{
    ConvChainConfig cfg;
    cfg.batch = 2;
    cfg.ic = 6;
    cfg.h = 17;
    cfg.w = 17;
    cfg.oc1 = 9;
    cfg.oc2 = 7;
    cfg.k1 = 3;
    cfg.k2 = 3;
    cfg.stride1 = 1;
    cfg.stride2 = 2;
    cfg.epilogue = Epilogue::Relu;
    const ir::Chain chain = ir::makeConvChain(cfg);
    const plan::ExecutionPlan plan = planFor(chain, 24.0 * 1024);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor input(convChainShapeI(cfg));
    Tensor w1(convChainShapeW1(cfg));
    Tensor w2(convChainShapeW2(cfg));
    Rng rng(31);
    fillUniform(input, rng);
    fillUniform(w1, rng);
    fillUniform(w2, rng);

    Tensor serial(convChainShapeO(cfg));
    runFusedConvChain(cfg, plan, engine, input, w1, w2, serial);
    for (int threads : kThreadCounts) {
        Tensor output(convChainShapeO(cfg));
        runFusedConvChain(cfg, plan, engine, input, w1, w2, output,
                          ExecOptions{threads, nullptr});
        EXPECT_TRUE(bitwiseEqual(output, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, UnfusedConvChainBitwiseIdenticalAcrossThreadCounts)
{
    ConvChainConfig cfg;
    cfg.batch = 2;
    cfg.ic = 5;
    cfg.h = 13;
    cfg.w = 13;
    cfg.oc1 = 8;
    cfg.oc2 = 6;
    cfg.k1 = 3;
    cfg.k2 = 1;
    cfg.epilogue = Epilogue::Relu;
    const ComputeEngine engine = ComputeEngine::best();

    Tensor input(convChainShapeI(cfg));
    Tensor w1(convChainShapeW1(cfg));
    Tensor w2(convChainShapeW2(cfg));
    Rng rng(17);
    fillUniform(input, rng);
    fillUniform(w1, rng);
    fillUniform(w2, rng);

    Tensor serialScratch(convChainShapeT(cfg));
    Tensor serial(convChainShapeO(cfg));
    runUnfusedConvChain(cfg, engine, input, w1, w2, serialScratch, serial,
                        {4, 4}, {4, 4});
    for (int threads : kThreadCounts) {
        Tensor scratch(convChainShapeT(cfg));
        Tensor output(convChainShapeO(cfg));
        runUnfusedConvChain(cfg, engine, input, w1, w2, scratch, output,
                            {4, 4}, {4, 4},
                            ExecOptions{threads, nullptr});
        EXPECT_TRUE(bitwiseEqual(output, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, UnfusedGemmChainBitwiseIdenticalAcrossThreadCounts)
{
    // The proxy's scale, causal mask and softmax run row-parallel.
    GemmChainConfig cfg;
    cfg.batch = 3;
    cfg.m = 37;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 37;
    cfg.epilogue = Epilogue::Softmax;
    cfg.softmaxScale = 0.25f;
    cfg.causalMask = true;
    const ComputeEngine engine = ComputeEngine::best();

    Tensor a(gemmChainShapeA(cfg));
    Tensor b(gemmChainShapeB(cfg));
    Tensor d(gemmChainShapeD(cfg));
    Rng rng(19);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);

    const GemmTiles tiles{16, 8, 8};
    Tensor serialScratch(gemmChainShapeC(cfg));
    Tensor serial(gemmChainShapeE(cfg));
    runUnfusedGemmChain(cfg, engine, a, b, d, serialScratch, serial, tiles,
                        tiles, ExecOptions{1, nullptr});
    for (int threads : kThreadCounts) {
        Tensor scratch(gemmChainShapeC(cfg));
        Tensor e(gemmChainShapeE(cfg));
        runUnfusedGemmChain(cfg, engine, a, b, d, scratch, e, tiles, tiles,
                            ExecOptions{threads, nullptr});
        EXPECT_TRUE(bitwiseEqual(scratch, serialScratch))
            << "threads " << threads;
        EXPECT_TRUE(bitwiseEqual(e, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, UnfusedGemmChain3BitwiseIdenticalAcrossThreadCounts)
{
    ir::GemmChain3Config cfg;
    cfg.batch = 2;
    cfg.m = 37;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 40;
    cfg.p = 20;
    cfg.epilogue = Epilogue::Softmax;
    cfg.softmaxScale = 0.25f;
    const ComputeEngine engine = ComputeEngine::best();

    Tensor a(gemmChain3ShapeA(cfg));
    Tensor b(gemmChain3ShapeB(cfg));
    Tensor d(gemmChain3ShapeD(cfg));
    Tensor f(gemmChain3ShapeF(cfg));
    Rng rng(29);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);
    fillUniform(f, rng);

    auto run = [&](int threads) {
        Tensor c1({cfg.batch, cfg.m, cfg.l});
        Tensor c2({cfg.batch, cfg.m, cfg.p});
        Tensor e(gemmChain3ShapeE(cfg));
        runUnfusedGemmChain3(cfg, engine, a, b, d, f, c1, c2, e,
                             GemmTiles{16, 8, 8},
                             ExecOptions{threads, nullptr});
        return e;
    };
    const Tensor serial = run(1);
    for (int threads : kThreadCounts) {
        EXPECT_TRUE(bitwiseEqual(run(threads), serial))
            << "threads " << threads;
    }
}

plan::ExecutionPlan
threadAwarePlanFor(const ir::Chain &chain, double capacityBytes,
                   int execThreads)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = capacityBytes;
    options.execThreads = execThreads;
    options.topology = hw::multicoreCpuTopology();
    return plan::planChain(chain, options);
}

TEST(ParallelExec, ThreadAwareGemmPlanBitwiseIdenticalAcrossThreadCounts)
{
    // The fig5 workload family under a thread-aware plan: the pool's
    // dispatch of its region tasks must stay bitwise-identical at every
    // thread count and race-clean.
    for (Epilogue epi : {Epilogue::None, Epilogue::Softmax}) {
        GemmChainConfig cfg;
        cfg.batch = 3;
        cfg.m = 48;
        cfg.n = 24;
        cfg.k = 16;
        cfg.l = 40;
        cfg.epilogue = epi;
        cfg.softmaxScale = 0.25f;
        const ir::Chain chain = ir::makeGemmChain(cfg);
        const plan::ExecutionPlan plan =
            threadAwarePlanFor(chain, 16.0 * 1024, 8);
        EXPECT_EQ(plan.plannedThreads, 8);
        const ComputeEngine engine = ComputeEngine::best();

        Tensor a(gemmChainShapeA(cfg));
        Tensor b(gemmChainShapeB(cfg));
        Tensor d(gemmChainShapeD(cfg));
        Rng rng(42);
        fillUniform(a, rng);
        fillUniform(b, rng);
        fillUniform(d, rng);

        Tensor serial(gemmChainShapeE(cfg));
        runFusedGemmChain(cfg, plan, engine, a, b, d, serial);
        for (int threads : kThreadCounts) {
            analysis::RaceChecker checker(serial.numel());
            Tensor e(gemmChainShapeE(cfg));
            runFusedGemmChain(cfg, plan, engine, a, b, d, e,
                              ExecOptions{threads, nullptr, &checker});
            EXPECT_FALSE(checker.hasConflicts())
                << "threads " << threads << "\n" << checker.report();
            EXPECT_TRUE(bitwiseEqual(e, serial))
                << "epilogue " << static_cast<int>(epi) << " threads "
                << threads;
        }
    }
}

TEST(ParallelExec, ThreadAwareConvPlanBitwiseIdenticalAcrossThreadCounts)
{
    ConvChainConfig cfg;
    cfg.batch = 2;
    cfg.ic = 6;
    cfg.h = 17;
    cfg.w = 17;
    cfg.oc1 = 9;
    cfg.oc2 = 7;
    cfg.k1 = 3;
    cfg.k2 = 3;
    cfg.stride1 = 1;
    cfg.stride2 = 2;
    cfg.epilogue = Epilogue::Relu;
    const ir::Chain chain = ir::makeConvChain(cfg);
    const plan::ExecutionPlan plan =
        threadAwarePlanFor(chain, 24.0 * 1024, 8);
    EXPECT_EQ(plan.plannedThreads, 8);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor input(convChainShapeI(cfg));
    Tensor w1(convChainShapeW1(cfg));
    Tensor w2(convChainShapeW2(cfg));
    Rng rng(31);
    fillUniform(input, rng);
    fillUniform(w1, rng);
    fillUniform(w2, rng);

    Tensor serial(convChainShapeO(cfg));
    runFusedConvChain(cfg, plan, engine, input, w1, w2, serial);
    for (int threads : kThreadCounts) {
        analysis::RaceChecker checker(serial.numel());
        Tensor output(convChainShapeO(cfg));
        runFusedConvChain(cfg, plan, engine, input, w1, w2, output,
                          ExecOptions{threads, nullptr, &checker});
        EXPECT_FALSE(checker.hasConflicts())
            << "threads " << threads << "\n" << checker.report();
        EXPECT_TRUE(bitwiseEqual(output, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, ChunkedRunMatchesPlanWithoutChunking)
{
    // The planned thread count only shapes the tiles: stripping it from
    // the plan must not change a single bit.
    GemmChainConfig cfg;
    cfg.batch = 3;
    cfg.m = 48;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 40;
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const plan::ExecutionPlan threaded =
        threadAwarePlanFor(chain, 16.0 * 1024, 8);
    plan::ExecutionPlan flat = threaded;
    flat.plannedThreads = 1;
    const ComputeEngine engine = ComputeEngine::best();

    Tensor a(gemmChainShapeA(cfg));
    Tensor b(gemmChainShapeB(cfg));
    Tensor d(gemmChainShapeD(cfg));
    Rng rng(9);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);

    Tensor eThreaded(gemmChainShapeE(cfg));
    Tensor eFlat(gemmChainShapeE(cfg));
    runFusedGemmChain(cfg, threaded, engine, a, b, d, eThreaded,
                      ExecOptions{2, nullptr});
    runFusedGemmChain(cfg, flat, engine, a, b, d, eFlat,
                      ExecOptions{2, nullptr});
    EXPECT_TRUE(bitwiseEqual(eThreaded, eFlat));
}

TEST(ChunkProfile, FusedRunRecordsBusyTime)
{
    // A profiled serial fused run: every dispatch chunk (the region
    // walk's and the softmax division's) is charged once, so the busy
    // total is positive and cannot exceed the run's wall time.
    GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 48;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 40;
    cfg.epilogue = Epilogue::Softmax;
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const plan::ExecutionPlan plan =
        threadAwarePlanFor(chain, 16.0 * 1024, 4);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor a(gemmChainShapeA(cfg));
    Tensor b(gemmChainShapeB(cfg));
    Tensor d(gemmChainShapeD(cfg));
    Rng rng(13);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);
    Tensor e(gemmChainShapeE(cfg));

    ChunkProfile profile(4);
    ExecOptions options;
    options.threads = 1;
    options.profile = &profile;
    const std::int64_t start = obs::nowNanos();
    runFusedGemmChain(cfg, plan, engine, a, b, d, e, options);
    const double wall =
        static_cast<double>(obs::nowNanos() - start) * 1e-9;
    EXPECT_GT(profile.totalBusySeconds(), 0.0);
    EXPECT_LE(profile.totalBusySeconds(), wall);
}

TEST(ParallelExec, ExplicitPoolOverrideIsUsed)
{
    // Passing a pool directly (ignoring the thread count) must work and
    // stay bitwise-deterministic.
    Tensor a({2, 33, 21});
    Tensor b({2, 21, 19});
    Rng rng(3);
    fillUniform(a, rng);
    fillUniform(b, rng);
    const ComputeEngine engine = ComputeEngine::best();

    Tensor serial({2, 33, 19});
    runTiledBatchGemm(engine, a, b, serial, GemmTiles{8, 8, 8});

    ThreadPool pool(3);
    ExecOptions options;
    options.pool = &pool;
    Tensor c({2, 33, 19});
    runTiledBatchGemm(engine, a, b, c, GemmTiles{8, 8, 8}, options);
    EXPECT_TRUE(bitwiseEqual(c, serial));
}

TEST(ParallelExec, RaceCheckCleanOnTransformerAttentionChain)
{
    // The shipped transformer workload's own attention chain and plan
    // (scaled down for test time): with the race checker armed, every
    // thread count must claim conflict-free and stay bitwise-identical.
    graph::EncoderConfig enc;
    enc.seqLen = 64;
    enc.heads = 4;
    enc.headDim = 16;
    enc.ffDim = 64;
    const graph::TransformerEncoder encoder(enc, 24.0 * 1024);
    const GemmChainConfig &cfg = encoder.attentionChain();
    const plan::ExecutionPlan &plan = encoder.attentionPlan();
    const ComputeEngine engine = ComputeEngine::best();

    Tensor a(gemmChainShapeA(cfg));
    Tensor b(gemmChainShapeB(cfg));
    Tensor d(gemmChainShapeD(cfg));
    Rng rng(11);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);

    Tensor serial(gemmChainShapeE(cfg));
    runFusedGemmChain(cfg, plan, engine, a, b, d, serial);
    for (int threads : kThreadCounts) {
        analysis::RaceChecker checker(serial.numel());
        Tensor e(gemmChainShapeE(cfg));
        runFusedGemmChain(cfg, plan, engine, a, b, d, e,
                          ExecOptions{threads, nullptr, &checker});
        EXPECT_FALSE(checker.hasConflicts())
            << "threads " << threads << "\n" << checker.report();
        EXPECT_TRUE(bitwiseEqual(e, serial)) << "threads " << threads;
    }
}

TEST(ParallelExec, RaceCheckCleanOnCnnStageChains)
{
    // Every stage chain of the shipped CNN workload (spatially scaled
    // down), fused, race checker armed, at every thread count.
    graph::CnnConfig cnn = graph::squeezeNetLike();
    cnn.height = 20;
    cnn.width = 20;
    const graph::CnnBackbone backbone(cnn, 256.0 * 1024);
    const ComputeEngine engine = ComputeEngine::best();

    for (const ir::ConvChainConfig &cfg : backbone.stageChains()) {
        const ir::Chain chain = ir::makeConvChain(cfg);
        const plan::ExecutionPlan plan = planFor(chain, 256.0 * 1024);

        Tensor input(convChainShapeI(cfg));
        Tensor w1(convChainShapeW1(cfg));
        Tensor w2(convChainShapeW2(cfg));
        Rng rng(23);
        fillUniform(input, rng);
        fillUniform(w1, rng);
        fillUniform(w2, rng);

        Tensor serial(convChainShapeO(cfg));
        runFusedConvChain(cfg, plan, engine, input, w1, w2, serial);
        for (int threads : kThreadCounts) {
            analysis::RaceChecker checker(serial.numel());
            Tensor output(convChainShapeO(cfg));
            runFusedConvChain(cfg, plan, engine, input, w1, w2, output,
                              ExecOptions{threads, nullptr, &checker});
            EXPECT_FALSE(checker.hasConflicts())
                << cfg.name << " threads " << threads << "\n"
                << checker.report();
            EXPECT_TRUE(bitwiseEqual(output, serial))
                << cfg.name << " threads " << threads;
        }
    }
}

/**
 * @p text's plan with @p axis hand-set Parallel in its concurrency
 * table: a mis-declaration no document can express any more (tables
 * are derived on load), seeded in memory.
 */
plan::ExecutionPlan
misdeclaredParallel(const ir::Chain &chain, const std::string &text,
                    const std::string &axis)
{
    plan::ExecutionPlan plan = plan::deserializePlan(chain, text);
    auto &kind = plan.concurrency[static_cast<std::size_t>(
        ir::axisIdByName(chain, axis))];
    EXPECT_NE(kind, analysis::AxisConcurrency::Parallel);
    kind = analysis::AxisConcurrency::Parallel;
    return plan;
}

TEST(ParallelExec, SeededRaceInGemmPlanDetectedSerially)
{
    // A plan mis-declaring the contracted axis l as parallel: the
    // executor honors the plan's table, and the task-keyed shadow
    // memory must observe the conflicting writers even in a fully
    // serial run (a genuinely racy schedule is never executed
    // multithreaded just to prove it races).
    GemmChainConfig cfg;
    cfg.name = "check-gemm-chain";
    cfg.m = 64;
    cfg.n = 64;
    cfg.k = 64;
    cfg.l = 64;
    const ir::Chain chain = ir::makeGemmChain(cfg);
    const plan::ExecutionPlan plan =
        misdeclaredParallel(chain,
                            "chimera-plan v2\n"
                            "chain: check-gemm-chain\n"
                            "order: m,l,k,n\n"
                            "tiles: m=16 n=16 k=16 l=16\n",
                            "l");

    Tensor a(gemmChainShapeA(cfg));
    Tensor b(gemmChainShapeB(cfg));
    Tensor d(gemmChainShapeD(cfg));
    Rng rng(42);
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(d, rng);

    Tensor e(gemmChainShapeE(cfg));
    analysis::RaceChecker checker(e.numel());
    runFusedGemmChain(cfg, plan, ComputeEngine::best(), a, b, d, e,
                      ExecOptions{1, nullptr, &checker});
    EXPECT_TRUE(checker.hasConflicts());
}

TEST(ParallelExec, SeededRaceInConvPlanDetectedSerially)
{
    ir::ConvChainConfig cfg;
    cfg.name = "check-conv-chain";
    cfg.batch = 1;
    cfg.ic = 16;
    cfg.h = 16;
    cfg.w = 16;
    cfg.oc1 = 16;
    cfg.oc2 = 16;
    cfg.k1 = 3;
    cfg.k2 = 3;
    const ir::Chain chain = ir::makeConvChain(cfg);
    // oc1 is contracted by the second convolution; declaring it
    // parallel (with two oc1 blocks) makes distinct tasks accumulate
    // into the same output elements.
    const plan::ExecutionPlan plan = misdeclaredParallel(
        chain,
        "chimera-plan v2\n"
        "chain: check-conv-chain\n"
        "order: oh,ow,oc1,oc2,ic,kh2,kw2,kh1,kw1\n"
        "tiles: oc2=16 oh=16 ow=16 oc1=8 ic=16 kh2=3 kw2=3 kh1=3 "
        "kw1=3\n",
        "oc1");

    Tensor input(convChainShapeI(cfg));
    Tensor w1(convChainShapeW1(cfg));
    Tensor w2(convChainShapeW2(cfg));
    Rng rng(42);
    fillUniform(input, rng);
    fillUniform(w1, rng);
    fillUniform(w2, rng);

    Tensor output(convChainShapeO(cfg));
    analysis::RaceChecker checker(output.numel());
    runFusedConvChain(cfg, plan, ComputeEngine::best(), input, w1, w2,
                      output, ExecOptions{1, nullptr, &checker});
    EXPECT_TRUE(checker.hasConflicts());
}

/** The blessed axes must all be proven Parallel by the analysis. */
void
expectBlessedSubsetOfProven(const ir::Chain &chain,
                            const plan::ExecutionPlan &plan,
                            const std::vector<std::string> &blessed,
                            const std::vector<std::string> &expected)
{
    const analysis::ConcurrencyTable table =
        analysis::analyzeConcurrency(chain, plan.tiles);
    for (const std::string &name : blessed) {
        EXPECT_TRUE(table.isParallel(ir::axisIdByName(chain, name)))
            << chain.name() << " parallelizes unproven axis " << name;
    }
    std::vector<std::string> sortedBlessed = blessed;
    std::vector<std::string> sortedExpected = expected;
    std::sort(sortedBlessed.begin(), sortedBlessed.end());
    std::sort(sortedExpected.begin(), sortedExpected.end());
    EXPECT_EQ(sortedBlessed, sortedExpected) << chain.name();
}

TEST(ParallelExec, ExecutorParallelAxesMatchAnalysisExactly)
{
    // Cross-check per shipped workload: the axes each fused executor
    // distributes are exactly the region-loop axes the dependence
    // analysis classifies Parallel.
    {
        GemmChainConfig cfg;
        cfg.batch = 3;
        cfg.m = 48;
        cfg.n = 24;
        cfg.k = 16;
        cfg.l = 40;
        cfg.epilogue = Epilogue::Softmax;
        cfg.softmaxScale = 0.25f;
        const ir::Chain chain = ir::makeGemmChain(cfg);
        const plan::ExecutionPlan plan = planFor(chain, 16.0 * 1024);
        expectBlessedSubsetOfProven(
            chain, plan, fusedParallelAxes(chain, plan),
            {"b", "m"});
    }
    {
        ir::GemmChain3Config cfg;
        cfg.batch = 2;
        cfg.m = 48;
        cfg.n = 24;
        cfg.k = 16;
        cfg.l = 40;
        cfg.p = 20;
        const ir::Chain chain = ir::makeGemmChain3(cfg);
        const plan::ExecutionPlan plan = planFor(chain, 48.0 * 1024);
        expectBlessedSubsetOfProven(
            chain, plan, fusedParallelAxes(chain, plan),
            {"b", "m"});
    }
    {
        ConvChainConfig cfg;
        cfg.batch = 2;
        cfg.ic = 6;
        cfg.h = 17;
        cfg.w = 17;
        cfg.oc1 = 9;
        cfg.oc2 = 7;
        cfg.k1 = 3;
        cfg.k2 = 3;
        cfg.epilogue = Epilogue::Relu;
        const ir::Chain chain = ir::makeConvChain(cfg);
        const plan::ExecutionPlan plan = planFor(chain, 24.0 * 1024);
        expectBlessedSubsetOfProven(
            chain, plan, fusedParallelAxes(chain, plan),
            {"b", "oh", "ow"});
    }
}

} // namespace
} // namespace chimera::exec
