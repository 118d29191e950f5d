/**
 * @file
 * chimera-serve: the plan-and-serve daemon CLI.
 *
 * Usage:
 *   chimera-serve --socket <path> [options]   run the daemon
 *   chimera-serve --check [options]           deterministic replay check
 *
 * Options:
 *   --socket <path>         Unix-domain socket to listen on (daemon mode)
 *   --executors <N>         executor threads (default 2)
 *   --exec-threads <N>      worker threads per executed group (default 1)
 *   --max-batch <N>         max total slices per batch group (default 8;
 *                           1 serves every request alone)
 *   --capacity <bytes>      planning memory budget (default
 *                           hw::kPlanningBudgetBytes)
 *   --cache-dir <dir>       plan-cache directory (default
 *                           CHIMERA_PLAN_CACHE or ~/.cache/chimera)
 *   --no-cache              memory-only plan cache
 *   --verify                audit plans with the legality verifier
 *   --trace-out <file>      record spans across the daemon's whole
 *                           lifecycle and write Chrome trace JSON to
 *                           <file> at shutdown (unwritable path: exit 2)
 *   --metrics-dump <file>   write the merged metrics registry (JSON:
 *                           counters, gauges, latency histograms) to
 *                           <file> at shutdown
 *
 * `--check` runs the built-in deterministic workload twice through the
 * daemon's own planner gate and batcher — every request alone, then
 * coalesced — with a memory-only cache and a serial executor, verifies
 * the two passes produce bitwise-identical outputs, and prints a stable
 * digest of the batched responses. Two runs of `chimera-serve --check`
 * must print the same digest; a mismatch between passes exits 1.
 *
 * In daemon mode the process runs until a client sends a Shutdown
 * request or SIGINT/SIGTERM arrives, drains gracefully, and prints the
 * final stats document to stdout.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "hw/machines.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace {

using namespace chimera;

std::atomic<bool> gStop{false};

void
onSignal(int)
{
    gStop.store(true);
}

/** Probes @p path for writability; a bad path is a usage error (exit
 * 2) caught at startup, not a crash after hours of serving. */
void
probeWritable(const std::string &path, const char *what)
{
    std::FILE *probe = std::fopen(path.c_str(), "wb");
    if (probe == nullptr) {
        std::fprintf(stderr, "error: cannot write %s to %s\n", what,
                     path.c_str());
        std::exit(2);
    }
    std::fclose(probe);
}

/** Writes the trace and/or metrics files requested on the command
 * line; @p server may be null (--check mode: global registry only). */
void
flushObservability(const std::string &traceOut,
                   const std::string &metricsDump,
                   const serve::Server *server)
{
    if (!traceOut.empty()) {
        if (obs::TraceRecorder *recorder = obs::trace()) {
            recorder->writeJson(traceOut);
            std::fprintf(stderr, "trace written to %s (%lld events)\n",
                         traceOut.c_str(),
                         static_cast<long long>(recorder->eventCount()));
        }
    }
    if (!metricsDump.empty()) {
        const std::string json =
            server != nullptr ? server->metricsJson()
                              : obs::Registry::global().renderJson();
        std::FILE *out = std::fopen(metricsDump.c_str(), "wb");
        if (out == nullptr) {
            std::fprintf(stderr, "error: cannot write metrics to %s\n",
                         metricsDump.c_str());
            std::exit(2);
        }
        std::fwrite(json.data(), 1, json.size(), out);
        std::fclose(out);
        std::fprintf(stderr, "metrics written to %s\n",
                     metricsDump.c_str());
    }
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: chimera-serve --socket <path> [options]\n"
        "       chimera-serve --check [options]\n"
        "options:\n"
        "  --executors <N>        executor threads (default 2)\n"
        "  --exec-threads <N>     workers per executed group (default 1)\n"
        "  --max-batch <N>        max slices per batch group (default 8;\n"
        "                         1 serves every request alone)\n"
        "  --capacity <bytes>     planning budget (default %.0f)\n"
        "  --cache-dir <dir>      plan-cache directory\n"
        "  --no-cache             memory-only plan cache\n"
        "  --verify               audit plans with the verifier\n"
        "  --trace-out <file>     write Chrome trace JSON at shutdown\n"
        "  --metrics-dump <file>  write metrics registry JSON at "
        "shutdown\n",
        hw::kPlanningBudgetBytes);
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerOptions options;
    bool check = false;
    std::string traceOut;
    std::string metricsDump;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // Strict numbers: a malformed value is a usage error (exit 2).
        const auto number = [&](auto parse) {
            const char *text = value();
            try {
                return parse(text, arg);
            } catch (const Error &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                std::exit(2);
            }
        };
        if (arg == "--socket") {
            options.socketPath = value();
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--executors") {
            options.executors = number(parseIntStrict);
        } else if (arg == "--exec-threads") {
            options.execThreads = number(parseIntStrict);
        } else if (arg == "--max-batch") {
            options.maxBatch = number(parseInt64Strict);
        } else if (arg == "--capacity") {
            options.capacityBytes = number(parseDoubleStrict);
        } else if (arg == "--cache-dir") {
            options.cacheDir = value();
        } else if (arg == "--no-cache") {
            options.cacheDir = "-";
        } else if (arg == "--verify") {
            options.verifyPlans = true;
        } else if (arg == "--trace-out") {
            traceOut = value();
        } else if (arg == "--metrics-dump") {
            metricsDump = value();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
            usage();
            return 2;
        }
    }

    if (!traceOut.empty()) {
        probeWritable(traceOut, "trace output");
        obs::TraceRecorder::enableGlobal();
    }
    if (!metricsDump.empty()) {
        probeWritable(metricsDump, "metrics dump");
    }

    try {
        if (check) {
            const serve::CheckResult result = serve::runCheckReplay(
                serve::builtinCheckWorkload(), options.maxBatch,
                options.capacityBytes);
            std::printf("chimera-serve check\n");
            std::printf("requests: %lld\n",
                        static_cast<long long>(result.requests));
            std::printf("groups: %lld\n",
                        static_cast<long long>(result.groups));
            std::printf("identical: %s\n",
                        result.identical ? "yes" : "NO");
            std::printf("digest: %016llx\n",
                        static_cast<unsigned long long>(result.digest));
            if (!result.identical) {
                std::fprintf(stderr,
                             "error: batched outputs differ from "
                             "individually-executed outputs\n");
                return 1;
            }
            std::printf("check: ok\n");
            flushObservability(traceOut, metricsDump, nullptr);
            return 0;
        }

        if (options.socketPath.empty()) {
            usage();
            return 2;
        }
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);

        serve::Server server(options);
        server.start();
        while (!gStop.load() && !server.shutdownRequested()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        server.stop();
        std::fputs(server.statsText().c_str(), stdout);
        flushObservability(traceOut, metricsDump, &server);
        return 0;
    } catch (const Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
