/**
 * @file
 * serve_loadgen: open-loop traffic generator for chimera-serve.
 *
 * Offers requests at a fixed rate R on an open-loop schedule: request i
 * is *due* at start + i/R regardless of how fast the daemon answers, and
 * its reported latency runs from that due time to response receipt — so
 * queueing delay from an overloaded daemon shows up in the tail instead
 * of silently throttling the offered load (closed-loop coordinated
 * omission). A sender thread walks the schedule while the main thread
 * collects responses, which may arrive out of order; they are matched
 * by request id.
 *
 * The workload cycles through a fixed set of small GEMM-chain classes
 * (the same shapes as `chimera-serve --check`), so consecutive requests
 * of one class are batchable and the daemon's coalescing shows up in
 * the measured batch-group sizes.
 *
 * Results go to stdout (human-readable) and --out (default
 * BENCH_serving.json): offered rate, achieved throughput, latency
 * p50/p90/p99/mean/max, error counters, and the daemon's own stats
 * document captured after the run. Stats-version-2 daemons also expose
 * their server-side HDR latency histogram (`latency-*` keys); those
 * surface as a dedicated `server_latency_seconds` block so client-
 * observed and server-measured percentiles sit side by side — the gap
 * between them is socket + queueing time.
 *
 * Usage:
 *   serve_loadgen --socket <path> [--rate R] [--requests N]
 *                 [--classes C] [--out file.json] [--quick]
 *
 * Exit status is non-zero on any connection failure, protocol error,
 * or error response.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "exec/gemm_chain_exec.hpp"
#include "serve/protocol.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace {

using namespace chimera;
using Clock = std::chrono::steady_clock;

struct Options
{
    std::string socketPath;
    double rate = 200.0; // requests per second
    int requests = 512;
    int classes = 3;
    std::string outPath = "BENCH_serving.json";
};

/** The request classes offered, cycled round-robin. */
std::vector<ir::GemmChainConfig>
workloadClasses(int count)
{
    std::vector<ir::GemmChainConfig> classes;
    ir::GemmChainConfig relu;
    relu.m = 96;
    relu.n = 64;
    relu.k = 48;
    relu.l = 80;
    relu.epilogue = ir::Epilogue::Relu;
    classes.push_back(relu);

    ir::GemmChainConfig attention;
    attention.m = 64;
    attention.n = 64;
    attention.k = 64;
    attention.l = 64;
    attention.epilogue = ir::Epilogue::Softmax;
    attention.softmaxScale = 0.125f;
    attention.causalMask = true;
    classes.push_back(attention);

    ir::GemmChainConfig plain;
    plain.m = 80;
    plain.n = 48;
    plain.k = 32;
    plain.l = 56;
    plain.epilogue = ir::Epilogue::None;
    classes.push_back(plain);

    classes.resize(static_cast<std::size_t>(
        std::clamp(count, 1, static_cast<int>(classes.size()))));
    return classes;
}

#ifdef __unix__

int
connectSocket(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    CHIMERA_CHECK(fd >= 0,
                  std::string("socket() failed: ") + std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    CHIMERA_CHECK(path.size() < sizeof(addr.sun_path),
                  "socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    // The daemon may still be binding when we launch right after it;
    // retry briefly before giving up.
    for (int attempt = 0; attempt < 100; ++attempt) {
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            return fd;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::close(fd);
    CHIMERA_CHECK(false, "cannot connect to " + path);
    return -1;
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const auto index = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(index, sorted.size() - 1)];
}

int
run(const Options &options)
{
    const std::vector<ir::GemmChainConfig> classes =
        workloadClasses(options.classes);

    // Pre-encode one payload per class; per-request we only patch the
    // id field (offset 8 in the header) so the send path is allocation-
    // and encode-free.
    std::vector<std::string> templates;
    for (const ir::GemmChainConfig &config : classes) {
        serve::ExecuteRequest request;
        request.config = config;
        request.a = Tensor(exec::gemmChainShapeA(config));
        request.b = Tensor(exec::gemmChainShapeB(config));
        request.d = Tensor(exec::gemmChainShapeD(config));
        fillPattern(request.a);
        fillPattern(request.b);
        fillPattern(request.d);
        templates.push_back(serve::encodeExecuteRequest(request));
    }

    const int fd = connectSocket(options.socketPath);
    const int total = options.requests;
    const auto start = Clock::now();
    const auto secondsSince = [&](Clock::time_point t) {
        return std::chrono::duration<double>(t - start).count();
    };

    std::atomic<bool> sendFailed{false};
    std::thread sender([&] {
        try {
            std::string payload;
            for (int i = 0; i < total; ++i) {
                const auto due =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    static_cast<double>(i) / options.rate));
                std::this_thread::sleep_until(due);
                payload = templates[static_cast<std::size_t>(i) %
                                    templates.size()];
                const auto id = static_cast<std::uint64_t>(i) + 1;
                for (int byte = 0; byte < 8; ++byte) {
                    payload[8 + byte] = static_cast<char>(
                        (id >> (8 * byte)) & 0xffu);
                }
                serve::writeFrame(fd, payload);
            }
        } catch (const Error &e) {
            std::fprintf(stderr, "send failed: %s\n", e.what());
            sendFailed.store(true);
        }
    });

    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(total));
    double sumBatchGroup = 0.0;
    double sumServerSeconds = 0.0;
    std::int64_t responseErrors = 0;
    std::int64_t protocolErrors = 0;
    double lastCompletion = 0.0;
    for (int received = 0; received < total; ++received) {
        std::optional<std::string> payload;
        try {
            payload = serve::readFrame(fd);
        } catch (const Error &e) {
            std::fprintf(stderr, "read failed: %s\n", e.what());
            ++protocolErrors;
            break;
        }
        if (!payload) {
            std::fprintf(stderr, "daemon closed the connection early\n");
            ++protocolErrors;
            break;
        }
        serve::Response response;
        try {
            response = serve::decodeResponse(*payload);
        } catch (const Error &e) {
            std::fprintf(stderr, "bad response: %s\n", e.what());
            ++protocolErrors;
            continue;
        }
        const double completion = secondsSince(Clock::now());
        lastCompletion = completion;
        if (response.status != serve::Status::Ok) {
            ++responseErrors;
            continue;
        }
        // Open-loop latency: from the request's *scheduled* send time,
        // so daemon-side queueing is charged to the tail.
        const double due =
            static_cast<double>(response.id - 1) / options.rate;
        latencies.push_back(completion - due);
        sumBatchGroup += response.execute.batchGroupSize;
        sumServerSeconds += response.execute.serverSeconds;
    }
    sender.join();

    // Fetch the daemon's own counters; ours is the only connection
    // with traffic left, so the next frame is the stats response.
    std::map<std::string, std::string> serverStats;
    try {
        serve::writeFrame(fd, serve::encodeStatsRequest(0));
        if (std::optional<std::string> payload = serve::readFrame(fd)) {
            const serve::Response response =
                serve::decodeResponse(*payload);
            std::istringstream lines(response.statsText);
            std::string line;
            while (std::getline(lines, line)) {
                const std::size_t colon = line.find(": ");
                if (colon != std::string::npos) {
                    serverStats[line.substr(0, colon)] =
                        line.substr(colon + 2);
                }
            }
        }
    } catch (const Error &e) {
        std::fprintf(stderr, "stats fetch failed: %s\n", e.what());
        ++protocolErrors;
    }
    ::close(fd);

    const auto completed = static_cast<std::int64_t>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentile(latencies, 0.50);
    const double p90 = percentile(latencies, 0.90);
    const double p99 = percentile(latencies, 0.99);
    const double maxLatency = latencies.empty() ? 0.0 : latencies.back();
    double mean = 0.0;
    for (const double l : latencies) {
        mean += l;
    }
    mean = completed > 0 ? mean / static_cast<double>(completed) : 0.0;
    const double throughput =
        lastCompletion > 0.0 ? static_cast<double>(completed) / lastCompletion
                             : 0.0;
    const double meanBatchGroup =
        completed > 0 ? sumBatchGroup / static_cast<double>(completed) : 0.0;
    const double meanServerSeconds =
        completed > 0 ? sumServerSeconds / static_cast<double>(completed)
                      : 0.0;

    std::printf("serve_loadgen: %lld/%d responses ok\n",
                static_cast<long long>(completed), total);
    std::printf("offered rate:      %.1f req/s\n", options.rate);
    std::printf("throughput:        %.1f req/s\n", throughput);
    std::printf("latency p50:       %.3f ms\n", p50 * 1e3);
    std::printf("latency p90:       %.3f ms\n", p90 * 1e3);
    std::printf("latency p99:       %.3f ms\n", p99 * 1e3);
    std::printf("latency mean:      %.3f ms\n", mean * 1e3);
    std::printf("mean batch group:  %.2f\n", meanBatchGroup);
    std::printf("protocol errors:   %lld\n",
                static_cast<long long>(protocolErrors));
    std::printf("response errors:   %lld\n",
                static_cast<long long>(responseErrors));

    std::ofstream json(options.outPath);
    json << "{\n"
         << "  \"bench\": \"serving\",\n"
         << "  \"requests\": " << total << ",\n"
         << "  \"completed\": " << completed << ",\n"
         << "  \"classes\": " << classes.size() << ",\n"
         << "  \"offered_rate_rps\": " << options.rate << ",\n"
         << "  \"achieved_throughput_rps\": " << throughput << ",\n"
         << "  \"latency_seconds\": {\n"
         << "    \"p50\": " << p50 << ",\n"
         << "    \"p90\": " << p90 << ",\n"
         << "    \"p99\": " << p99 << ",\n"
         << "    \"mean\": " << mean << ",\n"
         << "    \"max\": " << maxLatency << "\n"
         << "  },\n"
         << "  \"mean_batch_group_size\": " << meanBatchGroup << ",\n"
         << "  \"mean_server_seconds\": " << meanServerSeconds << ",\n"
         << "  \"protocol_errors\": " << protocolErrors << ",\n"
         << "  \"response_errors\": " << responseErrors << ",\n";

    // stats-version >= 2: the daemon's own HDR latency histogram gets a
    // dedicated block mirroring latency_seconds above, so one file
    // answers "where does client p99 exceed server p99" directly.
    const auto statValue = [&](const std::string &key) {
        const auto it = serverStats.find(key);
        return it != serverStats.end() ? it->second : std::string("0");
    };
    const int statsVersion = std::atoi(statValue("stats-version").c_str());
    json << "  \"server_stats_version\": " << statsVersion << ",\n";
    if (statsVersion >= 2) {
        json << "  \"server_latency_seconds\": {\n"
             << "    \"count\": " << statValue("latency-count") << ",\n"
             << "    \"p50\": " << statValue("latency-p50-seconds")
             << ",\n"
             << "    \"p90\": " << statValue("latency-p90-seconds")
             << ",\n"
             << "    \"p99\": " << statValue("latency-p99-seconds")
             << ",\n"
             << "    \"p999\": " << statValue("latency-p999-seconds")
             << ",\n"
             << "    \"mean\": " << statValue("latency-mean-seconds")
             << ",\n"
             << "    \"max\": " << statValue("latency-max-seconds")
             << "\n  },\n";
    }
    json << "  \"server\": {";
    bool first = true;
    for (const auto &[key, value] : serverStats) {
        if (key == "server" || key == "stats-version" ||
            key.rfind("latency-", 0) == 0) {
            continue; // banner / version / dedicated-block lines
        }
        json << (first ? "\n" : ",\n") << "    \"" << key << "\": " << value;
        first = false;
    }
    json << "\n  }\n}\n";
    json.close();
    std::printf("wrote %s\n", options.outPath.c_str());

    const bool ok = completed == static_cast<std::int64_t>(total) &&
                    protocolErrors == 0 && responseErrors == 0 &&
                    !sendFailed.load();
    return ok ? 0 : 1;
}

#else // !__unix__

int
run(const Options &)
{
    std::fprintf(stderr,
                 "serve_loadgen requires a Unix-domain socket platform\n");
    return 1;
}

#endif // __unix__

} // namespace

int
main(int argc, char **argv)
{
    Options options;
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
            } catch (const chimera::Error &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                std::exit(2);
            }
        };
        if (arg == "--socket") {
            options.socketPath = value();
        } else if (arg == "--rate") {
            options.rate = number(chimera::parseDoubleStrict);
        } else if (arg == "--requests") {
            options.requests = number(chimera::parseIntStrict);
        } else if (arg == "--classes") {
            options.classes = number(chimera::parseIntStrict);
        } else if (arg == "--out") {
            options.outPath = value();
        } else if (arg == "--quick") {
            options.requests = 64;
            options.rate = 400.0;
        } else {
            std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
            return 2;
        }
    }
    if (options.socketPath.empty() || options.rate <= 0.0 ||
        options.requests <= 0) {
        std::fprintf(stderr,
                     "usage: serve_loadgen --socket <path> [--rate R] "
                     "[--requests N] [--classes C] [--out file] "
                     "[--quick]\n");
        return 2;
    }
    try {
        return run(options);
    } catch (const chimera::Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
