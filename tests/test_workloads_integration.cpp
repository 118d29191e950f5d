/**
 * @file
 * Integration tests over the full published workload tables: every
 * Table IV / Table V entry must plan feasibly under the CPU budget,
 * choose an executable order, and beat the spilled-intermediate volume.
 * Also covers Chain::validate's rejection of malformed IR.
 */

#include <gtest/gtest.h>

#include "exec/constraints.hpp"
#include "hw/machines.hpp"
#include "ir/workloads.hpp"
#include "model/data_movement.hpp"
#include "plan/planner.hpp"
#include "support/error.hpp"

namespace chimera {
namespace {

plan::PlannerOptions
cpuOptions(const ir::Chain &chain)
{
    plan::PlannerOptions options;
    options.memCapacityBytes = hw::kPlanningBudgetBytes;
    options.constraints = exec::cpuChainConstraints(
        chain,
        kernels::MicroKernelRegistry::instance().select(detectSimdTier()));
    return options;
}

class TableIvPlanning : public ::testing::TestWithParam<int>
{
};

TEST_P(TableIvPlanning, PlansFeasiblyAndBeatsSpilledVolume)
{
    const auto &load =
        ir::tableIvWorkloads()[static_cast<std::size_t>(GetParam())];
    for (ir::Epilogue epi : {ir::Epilogue::None, ir::Epilogue::Softmax}) {
        ir::GemmChainConfig cfg = load.config;
        cfg.epilogue = epi;
        const ir::Chain chain = ir::makeGemmChain(cfg);
        const plan::ExecutionPlan plan =
            plan::planChain(chain, cpuOptions(chain));

        EXPECT_LE(static_cast<double>(plan.memUsageBytes),
                  hw::kPlanningBudgetBytes);
        EXPECT_TRUE(model::isExecutableOrder(chain, plan.perm));

        model::ModelOptions spilled;
        spilled.intermediatesAreIO = true;
        const auto unfused = model::computeDataMovement(
            chain, plan.perm, plan.tiles, spilled);
        EXPECT_LT(plan.predictedVolumeBytes, unfused.volumeBytes)
            << cfg.name;
        // The chain volume can never undercut compulsory IO.
        EXPECT_GE(plan.predictedVolumeBytes,
                  static_cast<double>(chain.ioBytes()) - 0.5);
    }
}

INSTANTIATE_TEST_SUITE_P(AllRows, TableIvPlanning,
                         ::testing::Range(0, 12));

class TableVPlanning : public ::testing::TestWithParam<int>
{
};

TEST_P(TableVPlanning, PlansFeasiblyAndBeatsSpilledVolume)
{
    ir::ConvChainConfig cfg =
        ir::tableVWorkloads()[static_cast<std::size_t>(GetParam())].config;
    cfg.epilogue = ir::Epilogue::Relu;
    const ir::Chain chain = ir::makeConvChain(cfg);
    const plan::ExecutionPlan plan =
        plan::planChain(chain, cpuOptions(chain));

    EXPECT_LE(static_cast<double>(plan.memUsageBytes),
              hw::kPlanningBudgetBytes);
    EXPECT_TRUE(model::isExecutableOrder(chain, plan.perm));

    model::ModelOptions spilled;
    spilled.intermediatesAreIO = true;
    const auto unfused =
        model::computeDataMovement(chain, plan.perm, plan.tiles, spilled);
    EXPECT_LT(plan.predictedVolumeBytes, unfused.volumeBytes) << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(AllRows, TableVPlanning, ::testing::Range(0, 8));

TEST(ChainValidation, RejectsMalformedIr)
{
    // No operators.
    {
        ir::Chain chain("bad");
        chain.addAxis("m", 4);
        EXPECT_THROW(chain.validate(), Error);
    }
    // Operator with no loops.
    {
        ir::Chain chain("bad");
        chain.addAxis("m", 4);
        const int t = chain.addTensor(ir::TensorDecl{
            "T", ir::TensorKind::Output,
            {ir::AccessDim{{ir::AccessTerm{0, 1}}}}, 4});
        chain.addOp(ir::OpDecl{"op", ir::OpKind::Gemm, {}, {t}, t, {}});
        EXPECT_THROW(chain.validate(), Error);
    }
    // Access term referencing an unknown axis.
    {
        ir::Chain chain("bad");
        chain.addAxis("m", 4);
        const int t = chain.addTensor(ir::TensorDecl{
            "T", ir::TensorKind::Output,
            {ir::AccessDim{{ir::AccessTerm{7, 1}}}}, 4});
        chain.addOp(ir::OpDecl{"op", ir::OpKind::Gemm, {0}, {t}, t, {}});
        EXPECT_THROW(chain.validate(), Error);
    }
    // Last operator does not produce the chain output.
    {
        ir::Chain chain("bad");
        chain.addAxis("m", 4);
        const int tIn = chain.addTensor(ir::TensorDecl{
            "I", ir::TensorKind::Input,
            {ir::AccessDim{{ir::AccessTerm{0, 1}}}}, 4});
        const int tMid = chain.addTensor(ir::TensorDecl{
            "M", ir::TensorKind::Intermediate,
            {ir::AccessDim{{ir::AccessTerm{0, 1}}}}, 4});
        chain.addOp(ir::OpDecl{"op", ir::OpKind::Gemm, {0}, {tIn, tMid},
                               tMid, {}});
        EXPECT_THROW(chain.validate(), Error);
    }
    // Non-positive axis extent is rejected at creation.
    {
        ir::Chain chain("bad");
        EXPECT_THROW(chain.addAxis("m", 0), Error);
    }
}

TEST(ChainValidation, SetElementSizeChecksValue)
{
    ir::Chain chain = ir::makeSingleGemm(1, 4, 4, 4);
    EXPECT_THROW(chain.setElementSize(3), Error);
    chain.setElementSize(2);
    for (const auto &tensor : chain.tensors()) {
        EXPECT_EQ(tensor.elementSize, 2);
    }
}

} // namespace
} // namespace chimera
