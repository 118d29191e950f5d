/**
 * @file
 * chimera-plan: command-line planner. Describes a chain from arguments,
 * runs the inter-block optimizer, and prints the chosen schedule, the
 * per-tensor data movement breakdown, and optionally the generated C
 * kernel or a serialized plan document.
 *
 * Usage:
 *   chimera-plan gemm  <batch> <M> <N> <K> <L> [options]
 *   chimera-plan conv  <batch> <IC> <H> <W> <OC1> <OC2> <k1> <k2> \
 *                      <stride1> <stride2> [options]
 * Options:
 *   --softmax | --relu      fuse that epilogue on the intermediate
 *   --capacity <bytes>      on-chip memory budget (default
 *                           hw::kPlanningBudgetBytes)
 *   --threads <N>           planner threads (0 = CHIMERA_THREADS/auto)
 *   --emit-c                print the generated C kernel (GEMM chains)
 *   --emit-plan             print the serialized plan document
 *   --cache | --no-cache    use/skip the persistent plan cache (on by
 *                           default; a warm entry skips enumeration)
 *   --cache-dir <dir>       cache location (default CHIMERA_PLAN_CACHE
 *                           or ~/.cache/chimera)
 *   --verify                audit the winning plan with the legality
 *                           verifier (see chimera-check); exit 1 on
 *                           any error finding
 *   --trace                 record planner spans; write Chrome trace
 *                           JSON to chimera-plan-trace.json on exit
 *   --trace-out <file>      like --trace, to <file> (an unwritable
 *                           path is a usage error: exit 2)
 *
 * A malformed number anywhere on the command line is a usage error
 * (exit 2); planning failures exit 1.
 */

#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codegen/c_emitter.hpp"
#include "hw/machines.hpp"
#include "ir/dsl.hpp"
#include "codegen/conv_emitter.hpp"
#include "exec/constraints.hpp"
#include "model/data_movement.hpp"
#include "obs/trace.hpp"
#include "plan/plan_cache.hpp"
#include "plan/plan_io.hpp"
#include "plan/planner.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "verify/plan_verifier.hpp"

namespace {

using namespace chimera;

struct CliOptions
{
    double capacityBytes = hw::kPlanningBudgetBytes;
    ir::Epilogue epilogue = ir::Epilogue::None;
    int threads = 0;
    bool emitC = false;
    bool emitPlan = false;
    bool useCache = true;
    bool verify = false;
    std::string cacheDir; // empty = PlanCache::defaultDirectory()
};

/** Trace output path chosen by --trace/--trace-out ("" = disabled).
 * File-scope so main() can flush it after any mode branch. */
std::string gTraceOutPath;

/**
 * Arms tracing for the rest of the process. The path is probed
 * immediately — `--trace-out /no/such/dir/t.json` is a usage error
 * (exit 2) discovered before any planning work, not a crash at exit.
 */
void
armTrace(const std::string &path)
{
    std::FILE *probe = std::fopen(path.c_str(), "wb");
    if (probe == nullptr) {
        std::fprintf(stderr,
                     "error: cannot write trace output to %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::fclose(probe);
    gTraceOutPath = path;
    obs::TraceRecorder::enableGlobal();
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: chimera-plan gemm <batch> <M> <N> <K> <L> [options]\n"
        "       chimera-plan conv <batch> <IC> <H> <W> <OC1> <OC2>"
        " <k1> <k2> <st1> <st2> [options]\n"
        "       chimera-plan dsl '<einsum statements>' idx=extent..."
        " [options]\n"
        "options: --softmax --relu --capacity <bytes> --threads <N>"
        " --emit-c --emit-plan --cache --no-cache --cache-dir <dir>"
        " --verify --trace --trace-out <file>\n");
    std::exit(2);
}

/**
 * Reads one numeric argument with a strict parser from support/str.hpp;
 * a malformed value is a usage error (exit 2), not a planning failure.
 */
template <typename Parse>
auto
numericArg(Parse parse, const std::string &text, const std::string &what)
{
    try {
        return parse(text, what);
    } catch (const Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        usage();
    }
}

CliOptions
parseOptions(int argc, char **argv, int firstOption)
{
    CliOptions options;
    for (int i = firstOption; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--softmax") {
            options.epilogue = ir::Epilogue::Softmax;
        } else if (arg == "--relu") {
            options.epilogue = ir::Epilogue::Relu;
        } else if (arg == "--capacity" && i + 1 < argc) {
            options.capacityBytes =
                numericArg(parseDoubleStrict, argv[++i], arg);
        } else if (arg == "--threads" && i + 1 < argc) {
            options.threads = numericArg(parseIntStrict, argv[++i], arg);
        } else if (arg == "--emit-c") {
            options.emitC = true;
        } else if (arg == "--emit-plan") {
            options.emitPlan = true;
        } else if (arg == "--cache") {
            options.useCache = true;
        } else if (arg == "--no-cache") {
            options.useCache = false;
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            options.cacheDir = argv[++i];
        } else if (arg == "--verify") {
            options.verify = true;
        } else if (arg == "--trace") {
            armTrace("chimera-plan-trace.json");
        } else if (arg == "--trace-out" && i + 1 < argc) {
            armTrace(argv[++i]);
        } else {
            usage();
        }
    }
    return options;
}

/** Instantiates the plan cache the CLI flags ask for (or none). */
plan::PlanCache *
makeCache(const CliOptions &options,
          std::unique_ptr<plan::PlanCache> &holder)
{
    if (!options.useCache) {
        return nullptr;
    }
    holder = std::make_unique<plan::PlanCache>(
        options.cacheDir.empty() ? plan::PlanCache::defaultDirectory()
                                 : options.cacheDir);
    return holder.get();
}

void
printPlanReport(const ir::Chain &chain, const plan::ExecutionPlan &plan)
{
    std::printf("chain: %s (%d axes, %.2f MFLOP, IO %s)\n",
                chain.name().c_str(), chain.numAxes(),
                chain.totalFlops() / 1e6,
                formatBytes(static_cast<double>(chain.ioBytes())).c_str());
    std::printf("order: %s\n",
                plan::orderString(chain, plan.perm).c_str());
    std::printf("tiles: ");
    for (int a = 0; a < chain.numAxes(); ++a) {
        std::printf("%s%s=%ld",
                    a == 0 ? "" : " ",
                    chain.axes()[static_cast<std::size_t>(a)].name.c_str(),
                    static_cast<long>(
                        plan.tiles[static_cast<std::size_t>(a)]));
    }
    const std::string provenance =
        plan.candidatesExamined == 0
            ? "warm plan cache hit"
            : std::to_string(plan.candidatesExamined) +
                  " candidates solved";
    std::printf("\npredicted movement: %s  on-chip: %s  "
                "(%s, %.3f ms)\n",
                formatBytes(plan.predictedVolumeBytes).c_str(),
                formatBytes(static_cast<double>(plan.memUsageBytes))
                    .c_str(),
                provenance.c_str(), plan.planSeconds * 1e3);

    const model::DataMovement dm =
        model::computeDataMovement(chain, plan.perm, plan.tiles);
    AsciiTable table({"tensor", "kind", "movement"});
    for (std::size_t t = 0; t < chain.tensors().size(); ++t) {
        const ir::TensorDecl &tensor = chain.tensors()[t];
        const char *kind =
            tensor.kind == ir::TensorKind::Input
                ? "input"
                : (tensor.kind == ir::TensorKind::Output ? "output"
                                                         : "on-chip");
        table.addRow({tensor.name, kind,
                      formatBytes(dm.perTensorBytes[t])});
    }
    std::printf("%s", table.render().c_str());
}

/** --verify: audits the winner; returns the process exit code. */
int
auditPlan(const ir::Chain &chain, const plan::ExecutionPlan &plan,
          double capacityBytes)
{
    verify::PlanVerifyOptions vo;
    vo.memCapacityBytes = capacityBytes;
    const verify::Report report =
        verify::verifyExecutionPlan(chain, plan, vo);
    const std::string rendered = report.render();
    if (!rendered.empty()) {
        std::printf("%s\n", rendered.c_str());
    }
    if (report.hasErrors()) {
        std::printf("verify: %d error(s)\n", report.errorCount());
        return 1;
    }
    std::printf("verify: clean\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
    }
    const std::string mode = argv[1];
    const auto &kernel =
        kernels::MicroKernelRegistry::instance().select(detectSimdTier());

    int rc = 0;
    try {
        if (mode == "gemm" && argc >= 7) {
            const CliOptions options = parseOptions(argc, argv, 7);
            ir::GemmChainConfig cfg;
            cfg.name = "cli-gemm-chain";
            cfg.batch = numericArg(parseInt64Strict, argv[2], "batch");
            cfg.m = numericArg(parseInt64Strict, argv[3], "m");
            cfg.n = numericArg(parseInt64Strict, argv[4], "n");
            cfg.k = numericArg(parseInt64Strict, argv[5], "k");
            cfg.l = numericArg(parseInt64Strict, argv[6], "l");
            cfg.epilogue = options.epilogue;
            if (cfg.epilogue == ir::Epilogue::Softmax) {
                cfg.softmaxScale =
                    1.0f / std::sqrt(static_cast<float>(cfg.k));
            }
            const ir::Chain chain = ir::makeGemmChain(cfg);
            plan::PlannerOptions po;
            po.memCapacityBytes = options.capacityBytes;
            po.constraints = exec::cpuChainConstraints(chain, kernel);
            po.threads = options.threads;
            std::unique_ptr<plan::PlanCache> cache;
            po.cache = makeCache(options, cache);
            const plan::ExecutionPlan plan = plan::planChain(chain, po);
            printPlanReport(chain, plan);
            if (options.verify) {
                rc = auditPlan(chain, plan, options.capacityBytes);
            }
            if (options.emitPlan) {
                std::printf("\n%s",
                            plan::serializePlan(chain, plan).c_str());
            }
            if (options.emitC) {
                std::printf("\n%s",
                            codegen::emitGemmChainC(cfg, plan).c_str());
            }
        } else if (mode == "conv" && argc >= 12) {
            const CliOptions options = parseOptions(argc, argv, 12);
            ir::ConvChainConfig cfg;
            cfg.name = "cli-conv-chain";
            cfg.batch = numericArg(parseInt64Strict, argv[2], "batch");
            cfg.ic = numericArg(parseInt64Strict, argv[3], "ic");
            cfg.h = numericArg(parseInt64Strict, argv[4], "h");
            cfg.w = numericArg(parseInt64Strict, argv[5], "w");
            cfg.oc1 = numericArg(parseInt64Strict, argv[6], "oc1");
            cfg.oc2 = numericArg(parseInt64Strict, argv[7], "oc2");
            cfg.k1 = numericArg(parseIntStrict, argv[8], "k1");
            cfg.k2 = numericArg(parseIntStrict, argv[9], "k2");
            cfg.stride1 = numericArg(parseIntStrict, argv[10], "stride1");
            cfg.stride2 = numericArg(parseIntStrict, argv[11], "stride2");
            cfg.epilogue = options.epilogue;
            const ir::Chain chain = ir::makeConvChain(cfg);
            plan::PlannerOptions po;
            po.memCapacityBytes = options.capacityBytes;
            po.constraints = exec::cpuChainConstraints(chain, kernel);
            po.threads = options.threads;
            std::unique_ptr<plan::PlanCache> cache;
            po.cache = makeCache(options, cache);
            const plan::ExecutionPlan plan = plan::planChain(chain, po);
            printPlanReport(chain, plan);
            if (options.verify) {
                rc = auditPlan(chain, plan, options.capacityBytes);
            }
            if (options.emitPlan) {
                std::printf("\n%s",
                            plan::serializePlan(chain, plan).c_str());
            }
            if (options.emitC) {
                std::printf("\n%s",
                            codegen::emitConvChainC(cfg, plan).c_str());
            }
        } else if (mode == "dsl" && argc >= 3) {
            std::map<std::string, std::int64_t> extents;
            int firstOption = argc;
            for (int i = 3; i < argc; ++i) {
                const std::string arg = argv[i];
                const std::size_t eq = arg.find('=');
                if (arg.rfind("--", 0) == 0) {
                    firstOption = i;
                    break;
                }
                if (eq == std::string::npos) {
                    usage();
                }
                extents[arg.substr(0, eq)] =
                    numericArg(parseInt64Strict, arg.substr(eq + 1), arg);
            }
            const CliOptions options =
                parseOptions(argc, argv, firstOption);
            const ir::Chain chain =
                ir::parseEinsumChain(argv[2], extents, "cli-dsl-chain");
            plan::PlannerOptions po;
            po.memCapacityBytes = options.capacityBytes;
            po.constraints = plan::alphaConstraints(chain, 16);
            po.threads = options.threads;
            std::unique_ptr<plan::PlanCache> cache;
            po.cache = makeCache(options, cache);
            const plan::ExecutionPlan plan = plan::planChain(chain, po);
            printPlanReport(chain, plan);
            if (options.verify) {
                rc = auditPlan(chain, plan, options.capacityBytes);
            }
            if (options.emitPlan) {
                std::printf("\n%s",
                            plan::serializePlan(chain, plan).c_str());
            }
        } else {
            usage();
        }
    } catch (const chimera::Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    if (!gTraceOutPath.empty()) {
        try {
            obs::TraceRecorder *recorder = obs::trace();
            if (recorder != nullptr) {
                recorder->writeJson(gTraceOutPath);
                std::printf("trace: %s (%lld events)\n",
                            gTraceOutPath.c_str(),
                            static_cast<long long>(
                                recorder->eventCount()));
            }
        } catch (const chimera::Error &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }
    return rc;
}
