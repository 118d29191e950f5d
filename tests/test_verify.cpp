/**
 * @file
 * Tests for the chimera-check verifier subsystem: the chain IR rules
 * (CH*), the plan legality rules (PL*) including the brute-force
 * Algorithm-1 recount, the kernel-parameter rules (KP*), and the plan
 * cache's rejection of syntactically valid but illegal entries.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hw/machines.hpp"
#include "ir/builders.hpp"
#include "ir/workloads.hpp"
#include "kernels/kernel_params.hpp"
#include "model/data_movement.hpp"
#include "plan/plan_cache.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "verify/chain_verifier.hpp"
#include "verify/plan_verifier.hpp"

namespace chimera::verify {
namespace {

namespace fs = std::filesystem;

ir::Chain
gemmChainUnderTest()
{
    ir::GemmChainConfig cfg;
    cfg.batch = 4;
    cfg.m = 64;
    cfg.n = 32;
    cfg.k = 16;
    cfg.l = 48;
    cfg.name = "verify-test";
    return ir::makeGemmChain(cfg);
}

/** Minimal single-GEMM chain with a deliberate defect knob. */
ir::Chain
handBuiltGemm(bool dropReductionLoop)
{
    ir::Chain chain("hand-built");
    const ir::AxisId m = chain.addAxis("m", 8);
    const ir::AxisId n = chain.addAxis("n", 8);
    const ir::AxisId k = chain.addAxis("k", 8);

    ir::TensorDecl a;
    a.name = "A";
    a.kind = ir::TensorKind::Input;
    a.dims = {{{{m, 1}}}, {{{k, 1}}}};
    ir::TensorDecl b;
    b.name = "B";
    b.kind = ir::TensorKind::Input;
    b.dims = {{{{k, 1}}}, {{{n, 1}}}};
    ir::TensorDecl c;
    c.name = "C";
    c.kind = ir::TensorKind::Output;
    c.dims = {{{{m, 1}}}, {{{n, 1}}}};
    const int ta = chain.addTensor(a);
    const int tb = chain.addTensor(b);
    const int tc = chain.addTensor(c);

    ir::OpDecl op;
    op.name = "mm";
    op.loops = dropReductionLoop ? std::vector<ir::AxisId>{m, n}
                                 : std::vector<ir::AxisId>{m, n, k};
    op.tensorIds = {ta, tb, tc};
    op.outputTensorId = tc;
    op.iterDims = {{{{m, 1}}}, {{{n, 1}}}, {{{k, 1}}}};
    chain.addOp(op);
    return chain;
}

std::string
freshDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("chimera-verify-" + name);
    fs::remove_all(dir);
    return dir.string();
}

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

TEST(Diagnostics, ReportCollectsAndRenders)
{
    Report report;
    EXPECT_TRUE(report.empty());
    EXPECT_EQ(report.render(), "");

    report.error("PL04", "tiles.m", "tile 0 is outside [1, 64]");
    report.warning("CH06", "tensor X", "tensor is untouched");
    report.note("PL09", "volume-bytes", "recount skipped");

    EXPECT_EQ(report.errorCount(), 1);
    EXPECT_EQ(report.warningCount(), 1);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule("PL04"));
    EXPECT_TRUE(report.hasRule("PL09"));
    EXPECT_FALSE(report.hasRule("PL07"));

    const std::string rendered = report.render();
    EXPECT_NE(rendered.find("error: [PL04] tiles.m:"), std::string::npos);
    EXPECT_NE(rendered.find("warning: [CH06]"), std::string::npos);
    EXPECT_NE(rendered.find("note: [PL09]"), std::string::npos);

    Report other;
    other.error("PL07", "mem-bytes", "over capacity");
    report.merge(other);
    EXPECT_EQ(report.errorCount(), 2);
    EXPECT_TRUE(report.hasRule("PL07"));
}

TEST(ChainVerifier, PaperWorkloadsAreClean)
{
    for (const auto &load : ir::tableIvWorkloads()) {
        const Report report =
            verifyChain(ir::makeGemmChain(load.config));
        EXPECT_FALSE(report.hasErrors())
            << load.config.name << ":\n" << report.render();
    }
    for (const auto &load : ir::tableVWorkloads()) {
        const Report report =
            verifyChain(ir::makeConvChain(load.config));
        EXPECT_FALSE(report.hasErrors())
            << load.config.name << ":\n" << report.render();
    }
}

TEST(ChainVerifier, FlagsEmptyChain)
{
    const Report report = verifyChain(ir::Chain("empty"));
    EXPECT_TRUE(report.hasRule("CH01"));
    EXPECT_TRUE(report.hasErrors());
}

TEST(ChainVerifier, FlagsShapeMismatch)
{
    // The operator's nest lost its reduction loop: A and B are indexed
    // by k, which the operator cannot iterate.
    const Report report = verifyChain(handBuiltGemm(true));
    EXPECT_TRUE(report.hasRule("CH05")) << report.render();
    // ...and k is now in no operator's loops at all.
    EXPECT_TRUE(report.hasRule("CH07")) << report.render();

    EXPECT_FALSE(verifyChain(handBuiltGemm(false)).hasErrors());
}

TEST(ChainVerifier, FlagsDanglingReferences)
{
    ir::Chain chain = handBuiltGemm(false);
    ir::OpDecl ghost;
    ghost.name = "ghost";
    ghost.loops = {99};
    ghost.tensorIds = {42};
    ghost.outputTensorId = 42;
    chain.addOp(ghost);
    const Report report = verifyChain(chain);
    EXPECT_TRUE(report.hasRule("CH03")) << report.render();
}

TEST(ChainVerifier, FlagsDataflowDefects)
{
    // An intermediate that no operator produces, consumed by the only op.
    ir::Chain chain("broken-dataflow");
    const ir::AxisId m = chain.addAxis("m", 4);
    ir::TensorDecl phantom;
    phantom.name = "P";
    phantom.kind = ir::TensorKind::Intermediate;
    phantom.dims = {{{{m, 1}}}};
    ir::TensorDecl out;
    out.name = "O";
    out.kind = ir::TensorKind::Input; // wrong: last op must emit Output
    out.dims = {{{{m, 1}}}};
    const int tp = chain.addTensor(phantom);
    const int to = chain.addTensor(out);
    ir::OpDecl op;
    op.name = "use";
    op.loops = {m};
    op.tensorIds = {tp, to};
    op.outputTensorId = to;
    op.iterDims = {{{{m, 1}}}};
    chain.addOp(op);

    const Report report = verifyChain(chain);
    EXPECT_TRUE(report.hasRule("CH06")) << report.render();
    // Consumed-before-produced, never-produced, input-written and
    // non-Output-final are all CH06 findings; expect several.
    EXPECT_GE(report.errorCount(), 3) << report.render();
}

TEST(PlanVerifier, PlannerWinnersVerifyClean)
{
    for (const auto &load : ir::smallGemmWorkloads()) {
        const ir::Chain chain = ir::makeGemmChain(load.config);
        plan::PlannerOptions options;
        options.memCapacityBytes = 16.0 * 1024;
        const plan::ExecutionPlan plan = plan::planChain(chain, options);
        const Report report = verifyExecutionPlan(
            chain, plan, planVerifyOptions(options));
        EXPECT_FALSE(report.hasErrors())
            << load.config.name << ":\n" << report.render();
    }
}

TEST(PlanVerifier, FlagsZeroAndOversizedTiles)
{
    const ir::Chain chain = gemmChainUnderTest();
    plan::PlannerOptions po;
    po.memCapacityBytes = 32.0 * 1024;
    const plan::ExecutionPlan good = plan::planChain(chain, po);

    std::vector<std::int64_t> tiles = good.tiles;
    tiles[0] = 0;
    Report report =
        verifyPlan(chain, good.perm, tiles, planVerifyOptions(po));
    EXPECT_TRUE(report.hasRule("PL04")) << report.render();

    tiles = good.tiles;
    tiles[1] = chain.axes()[1].extent + 1;
    report = verifyPlan(chain, good.perm, tiles, planVerifyOptions(po));
    EXPECT_TRUE(report.hasRule("PL04")) << report.render();
}

TEST(PlanVerifier, FlagsStructuralDefects)
{
    const ir::Chain chain = gemmChainUnderTest();
    const PlanVerifyOptions vo;
    const std::vector<std::int64_t> tiles(
        static_cast<std::size_t>(chain.numAxes()), 1);

    // Truncated permutation.
    std::vector<ir::AxisId> shortPerm = {0, 1};
    Report report = verifyPlan(chain, shortPerm, tiles, vo);
    EXPECT_TRUE(report.hasRule("PL03")) << report.render();

    // Repeated axis.
    std::vector<ir::AxisId> dupPerm(
        static_cast<std::size_t>(chain.numAxes()), 0);
    report = verifyPlan(chain, dupPerm, tiles, vo);
    EXPECT_TRUE(report.hasRule("PL03")) << report.render();

    // Wrong tile arity.
    const std::vector<ir::AxisId> perm =
        plan::permFromOrderString(chain, "b,m,l,k,n");
    report = verifyPlan(chain, perm, {1, 1}, vo);
    EXPECT_TRUE(report.hasRule("PL05")) << report.render();
}

TEST(PlanVerifier, FlagsOverCapacity)
{
    const ir::Chain chain = gemmChainUnderTest();
    PlanVerifyOptions vo;
    vo.memCapacityBytes = 1024.0; // far below any full-extent footprint
    const std::vector<ir::AxisId> perm =
        plan::permFromOrderString(chain, "b,m,l,k,n");
    const Report report =
        verifyPlan(chain, perm, chain.fullExtents(), vo);
    EXPECT_TRUE(report.hasRule("PL07")) << report.render();
}

TEST(PlanVerifier, FlagsNonExecutableOrder)
{
    const ir::Chain chain = gemmChainUnderTest();
    // k (gemm1's reduction) outermost revisits the intermediate C's
    // regions after eviction; with every axis blocked this is the
    // canonical non-executable order.
    const std::vector<ir::AxisId> perm =
        plan::permFromOrderString(chain, "k,n,b,m,l");
    std::vector<std::int64_t> tiles(
        static_cast<std::size_t>(chain.numAxes()), 2);
    ASSERT_FALSE(model::isExecutableOrder(chain, perm, tiles));

    PlanVerifyOptions vo;
    Report report = verifyPlan(chain, perm, tiles, vo);
    EXPECT_TRUE(report.hasRule("PL06")) << report.render();

    // Baseline mode: the same schedule passes with the check off.
    vo.requireExecutableOrder = false;
    report = verifyPlan(chain, perm, tiles, vo);
    EXPECT_FALSE(report.hasRule("PL06")) << report.render();
}

/** Algorithm 1 and the brute-force recount agree on MU and per tensor. */
void
expectRecountMatches(const ir::Chain &chain,
                     const std::vector<ir::AxisId> &perm,
                     const std::vector<std::int64_t> &tiles,
                     const model::ModelOptions &options)
{
    std::ostringstream where;
    where << chain.name() << " order " << plan::orderString(chain, perm)
          << " tiles";
    for (std::int64_t tile : tiles) {
        where << " " << tile;
    }
    where << (options.intermediatesAreIO ? " spilled" : " on-chip");
    const model::DataMovement algo =
        model::computeDataMovement(chain, perm, tiles, options);
    const auto brute =
        bruteForceDataMovement(chain, perm, tiles, options, 1 << 20);
    ASSERT_TRUE(brute.has_value()) << where.str();
    EXPECT_EQ(brute->memUsageBytes, algo.memUsageBytes) << where.str();
    for (std::size_t t = 0; t < chain.tensors().size(); ++t) {
        EXPECT_NEAR(brute->perTensorBytes[t], algo.perTensorBytes[t], 0.5)
            << where.str() << " tensor " << chain.tensors()[t].name;
    }
}

ir::Chain
chain3UnderTest(ir::Epilogue epilogue)
{
    ir::GemmChain3Config cfg;
    cfg.batch = 2;
    cfg.m = 16;
    cfg.l = 12;
    cfg.k = 8;
    cfg.p = 8;
    cfg.n = 6;
    cfg.epilogue = epilogue;
    cfg.name = epilogue == ir::Epilogue::Softmax ? "attn" : "gemm3";
    return ir::makeGemmChain3(cfg);
}

ir::Chain
convUnderTest(int k1, int k2)
{
    ir::ConvChainConfig cfg;
    cfg.ic = 4;
    cfg.h = cfg.w = 9;
    cfg.oc1 = 8;
    cfg.oc2 = 6;
    cfg.k1 = k1;
    cfg.k2 = k2;
    cfg.stride1 = 2;
    cfg.name = "conv" + std::to_string(k1) + "x" + std::to_string(k1) +
               "-" + std::to_string(k2) + "x" + std::to_string(k2);
    return ir::makeConvChain(cfg);
}

TEST(PlanVerifier, RecountMatchesAlgorithmOne)
{
    const ir::Chain chain = gemmChainUnderTest();
    const std::vector<std::string> orders = {
        "b,m,l,k,n", "b,m,l,n,k", "m,b,l,k,n", "b,l,m,n,k",
        "k,n,b,m,l", // non-executable orders still obey Algorithm 1
    };
    const std::vector<std::int64_t> tileChoices = {1, 2, 3, 8};
    for (const std::string &order : orders) {
        const std::vector<ir::AxisId> perm =
            plan::permFromOrderString(chain, order);
        for (std::int64_t choice : tileChoices) {
            std::vector<std::int64_t> tiles;
            for (const ir::Axis &axis : chain.axes()) {
                tiles.push_back(std::min(choice, axis.extent));
            }
            expectRecountMatches(chain, perm, tiles, model::ModelOptions{});
        }
    }

    // Every chain family under random full orders (pinned kernel axes
    // included) and ragged random tiles, intermediates on chip and
    // spilled.
    const std::vector<ir::Chain> chains = {
        chain, chain3UnderTest(ir::Epilogue::None),
        chain3UnderTest(ir::Epilogue::Softmax), convUnderTest(3, 1),
        convUnderTest(1, 3)};
    Rng rng(27);
    for (const ir::Chain &c : chains) {
        for (int draw = 0; draw < 40; ++draw) {
            std::vector<ir::AxisId> perm;
            std::vector<std::int64_t> tiles;
            for (ir::AxisId a = 0; a < c.numAxes(); ++a) {
                perm.push_back(a);
                const std::int64_t extent =
                    c.axes()[static_cast<std::size_t>(a)].extent;
                tiles.push_back(1 + static_cast<std::int64_t>(rng.below(
                                        static_cast<std::uint64_t>(extent))));
            }
            for (std::size_t i = perm.size(); i > 1; --i) {
                std::swap(perm[i - 1], perm[rng.below(i)]);
            }
            for (bool spilled : {false, true}) {
                model::ModelOptions options;
                options.intermediatesAreIO = spilled;
                expectRecountMatches(c, perm, tiles, options);
            }
        }
    }
}

TEST(PlanVerifier, RecountSkipsHugeGrids)
{
    const ir::Chain chain = gemmChainUnderTest();
    const std::vector<ir::AxisId> perm =
        plan::permFromOrderString(chain, "b,m,l,k,n");
    const std::vector<std::int64_t> ones(
        static_cast<std::size_t>(chain.numAxes()), 1);
    EXPECT_FALSE(bruteForceDataMovement(chain, perm, ones,
                                        model::ModelOptions{}, 64)
                     .has_value());

    PlanVerifyOptions vo;
    vo.recountMaxBlocks = 64;
    const Report report = verifyPlan(chain, perm, ones, vo);
    EXPECT_FALSE(report.hasErrors()) << report.render();
    EXPECT_TRUE(report.hasRule("PL09")); // the "skipped" note
}

TEST(PlanVerifier, FlagsStalePredictions)
{
    const ir::Chain chain = gemmChainUnderTest();
    plan::PlannerOptions po;
    po.memCapacityBytes = 32.0 * 1024;
    plan::ExecutionPlan plan = plan::planChain(chain, po);

    plan.predictedVolumeBytes = 1.0;
    Report report =
        verifyExecutionPlan(chain, plan, planVerifyOptions(po));
    EXPECT_TRUE(report.hasRule("PL08")) << report.render();

    plan = plan::planChain(chain, po);
    plan.memUsageBytes += 4096;
    report = verifyExecutionPlan(chain, plan, planVerifyOptions(po));
    EXPECT_TRUE(report.hasRule("PL08")) << report.render();
}

TEST(PlanVerifier, FlagsTamperedDocument)
{
    const ir::Chain chain = gemmChainUnderTest();
    plan::PlannerOptions po;
    po.memCapacityBytes = 32.0 * 1024;
    const plan::ExecutionPlan plan = plan::planChain(chain, po);
    const std::string text =
        plan::serializePlan(chain, plan, "aaaabbbbccccdddd");
    const plan::ParsedPlanDoc doc = plan::parsePlanDocument(text);
    const PlanVerifyOptions vo = planVerifyOptions(po);
    Report report = verifyPlanDocument(chain, doc, "aaaabbbbccccdddd", vo);
    EXPECT_FALSE(report.hasErrors()) << report.render();

    // A fingerprint that does not match the expected key.
    report = verifyPlanDocument(chain, doc, "ffffffffffffffff", vo);
    EXPECT_TRUE(report.hasRule("PL10")) << report.render();

    // Tiles swapped for full extents: legal-looking, but over capacity.
    std::string tampered = text;
    const std::size_t pos = tampered.find("tiles: ");
    ASSERT_NE(pos, std::string::npos);
    tampered.replace(pos, tampered.find('\n', pos) - pos,
                     "tiles: b=4 m=64 n=32 k=16 l=48");
    report = verifyPlanDocument(chain, plan::parsePlanDocument(tampered),
                                "aaaabbbbccccdddd", vo);
    EXPECT_TRUE(report.hasRule("PL07")) << report.render();
}

TEST(PlanVerifier, ThreadAwareWinnersVerifyClean)
{
    const ir::Chain chain = gemmChainUnderTest();
    plan::PlannerOptions po;
    po.memCapacityBytes = 32.0 * 1024;
    po.execThreads = 8;
    po.topology = hw::multicoreCpuTopology();
    const plan::ExecutionPlan plan = plan::planChain(chain, po);
    EXPECT_EQ(plan.plannedThreads, 8);
    const Report report =
        verifyExecutionPlan(chain, plan, planVerifyOptions(po));
    EXPECT_FALSE(report.hasErrors()) << report.render();
}

TEST(PlanVerifier, FlagsChunkingDefects)
{
    const ir::Chain chain = gemmChainUnderTest();
    plan::PlannerOptions po;
    po.memCapacityBytes = 32.0 * 1024;
    const plan::ExecutionPlan good = plan::planChain(chain, po);
    const PlanVerifyOptions vo = planVerifyOptions(po);

    // Non-positive planned thread count.
    plan::ExecutionPlan bad = good;
    bad.plannedThreads = 0;
    const Report report = verifyExecutionPlan(chain, bad, vo);
    EXPECT_TRUE(report.hasRule("PL13")) << report.render();
}

TEST(PlanVerifier, FlagsFootprintOverPerWorkerShare)
{
    // A serially-planned footprint that eight workers cannot all keep
    // resident in a small shared cache.
    const ir::Chain chain = gemmChainUnderTest();
    plan::PlannerOptions po;
    po.memCapacityBytes = 32.0 * 1024;
    const plan::ExecutionPlan plan = plan::planChain(chain, po);

    plan::PlannerOptions threaded = po;
    threaded.execThreads = 8;
    threaded.topology.name = "tiny";
    threaded.topology.cores = 8;
    threaded.topology.levels = {
        {"LLC", 64.0 * 1024, 1e11, model::LevelScope::Shared}};
    const Report report = verifyExecutionPlan(
        chain, plan, planVerifyOptions(threaded));
    EXPECT_TRUE(report.hasRule("PL13")) << report.render();
}

TEST(PlanVerifier, FlagsBrokenMultiLevelNesting)
{
    const ir::Chain chain = gemmChainUnderTest();
    model::MachineModel machine;
    machine.name = "toy";
    machine.levels.push_back({"L1", 8.0 * 1024, 1e12});
    machine.levels.push_back({"L2", 64.0 * 1024, 1e11});
    machine.peakFlops = 1e12;

    plan::PlannerOptions po;
    po.memCapacityBytes = 8.0 * 1024;
    const plan::MultiLevelPlan good =
        plan::planChainMultiLevel(chain, machine, po);
    PlanVerifyOptions vo;
    vo.recount = false;
    Report report =
        verifyMultiLevelPlan(chain, machine, good.levels, vo);
    EXPECT_FALSE(report.hasErrors()) << report.render();

    // Wrong level count.
    std::vector<model::LevelSchedule> truncated = {good.levels[0]};
    report = verifyMultiLevelPlan(chain, machine, truncated, vo);
    EXPECT_TRUE(report.hasRule("PL11")) << report.render();

    // Inner tiles poking out of the enclosing level's tiles.
    std::vector<model::LevelSchedule> inverted = good.levels;
    std::swap(inverted[0].tiles, inverted[1].tiles);
    const bool nested = inverted[0].tiles == inverted[1].tiles;
    if (!nested) {
        report = verifyMultiLevelPlan(chain, machine, inverted, vo);
        EXPECT_TRUE(report.hasErrors()) << report.render();
    }
}

TEST(KernelParams, SelectedParamsSatisfyTheBudget)
{
    for (int registers : {16, 32}) {
        const Report report = verifyKernelParams(
            kernels::selectCpuKernelParams(registers), registers);
        EXPECT_FALSE(report.hasErrors())
            << registers << " registers:\n" << report.render();
    }
}

TEST(KernelParams, FlagsBudgetAndStructureViolations)
{
    kernels::CpuKernelParams params;
    params.mi = 8;
    params.ni = 8;
    params.mii = 2;
    Report report = verifyKernelParams(params, 16); // 8*8+8+2 = 74 > 16
    EXPECT_TRUE(report.hasRule("KP01")) << report.render();

    params.mi = 6;
    params.ni = 4;
    params.mii = 4; // does not divide 6
    report = verifyKernelParams(params, 32);
    EXPECT_TRUE(report.hasRule("KP02")) << report.render();

    params.mii = 1; // cannot hide the broadcast latency
    report = verifyKernelParams(params, 32);
    EXPECT_TRUE(report.hasRule("KP02")) << report.render();

    params.mi = 0;
    report = verifyKernelParams(params, 32);
    EXPECT_TRUE(report.hasRule("KP03")) << report.render();
}

TEST(PlanCacheVerify, RejectsLegalLookingButIllegalEntry)
{
    const ir::Chain chain = gemmChainUnderTest();
    plan::PlannerOptions options;
    options.memCapacityBytes = 32.0 * 1024;
    const std::string dir = freshDir("reject");

    {
        plan::PlanCache writer(dir);
        options.cache = &writer;
        plan::planChain(chain, options);
    }

    // Replace the tiles with full extents, keeping the valid fingerprint:
    // the document still parses, binds and fingerprint-matches, but its
    // footprint blows the 32 KiB capacity — only the verifier catches it.
    const fs::path entry = onlyEntry(dir);
    std::string text;
    {
        std::ifstream in(entry);
        std::ostringstream contents;
        contents << in.rdbuf();
        text = contents.str();
    }
    const std::size_t pos = text.find("tiles: ");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t eol = text.find('\n', pos);
    text.replace(pos, eol - pos, "tiles: b=4 m=64 n=32 k=16 l=48");
    {
        std::ofstream out(entry, std::ios::trunc);
        out << text;
    }

    plan::PlanCache reader(dir);
    options.cache = &reader;
    const plan::ExecutionPlan replanned = plan::planChain(chain, options);
    EXPECT_GT(replanned.candidatesExamined, 0); // not served from cache
    EXPECT_EQ(reader.stats().rejectedPlans, 1);
    EXPECT_EQ(reader.stats().diskHits, 0);
    EXPECT_LE(static_cast<double>(replanned.memUsageBytes),
              options.memCapacityBytes);

    // The store after replanning healed the entry.
    plan::PlanCache healed(dir);
    options.cache = &healed;
    EXPECT_EQ(plan::planChain(chain, options).candidatesExamined, 0);
    EXPECT_EQ(healed.stats().diskHits, 1);
    EXPECT_EQ(healed.stats().rejectedPlans, 0);
}

} // namespace
} // namespace chimera::verify
