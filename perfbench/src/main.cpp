/**
 * @file
 * perfbench: the layered wall-clock benchmark binary (see
 * perfbench/METHODOLOGY.md). One invocation runs one seeded workload for
 * a fixed measured time, checks every output, and writes a result
 * document that perfbench/run.py turns into the benchmark's result line.
 *
 *   perfbench --workload fused-exec|plan-churn|serve-open --seed N
 *             --seconds S --trace 0|1 --threads T --result FILE
 *             [--work-dir DIR] [--trace-file FILE]
 *
 * Exit status: 0 clean, 1 when any check failed, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload fused-exec|plan-churn|"
                 "serve-open --seed N --seconds S --trace 0|1 --threads T "
                 "--result FILE [--work-dir DIR] [--trace-file FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    std::string resultPath;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            options.traced = value == "1";
        } else if (flag == "--threads") {
            options.threads = std::atoi(value.c_str());
        } else if (flag == "--result") {
            resultPath = value;
        } else if (flag == "--work-dir") {
            options.workDir = value;
        } else if (flag == "--trace-file") {
            options.traceFile = value;
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || resultPath.empty() || options.seconds <= 0.0 ||
        options.threads < 1 || (options.traced && options.traceFile.empty())) {
        return usage();
    }

    Report report;
    try {
        if (options.workload == "fused-exec") {
            runFusedExec(options, report);
        } else if (options.workload == "plan-churn") {
            runPlanChurn(options, report);
        } else if (options.workload == "serve-open") {
            runServeOpen(options, report);
        } else {
            return usage();
        }
    } catch (const std::exception &e) {
        report.check(false, std::string("workload aborted: ") + e.what());
    }

    std::ofstream out(resultPath);
    out << report.json(options);
    if (!out.flush()) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     resultPath.c_str());
        return 2;
    }
    return report.failed() == 0 ? 0 : 1;
}
