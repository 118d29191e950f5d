/**
 * @file
 * serve-open workload: an open-loop client in this process drives an
 * in-process serve::Server over its Unix socket. Requests arrive on a
 * seeded Poisson schedule at a fixed rate; each one's latency runs from
 * its due time, so a stalled daemon (or a lagging generator) is charged
 * to the tail rather than silently lowering the offered load. One hot
 * class makes batches form; a small seeded share of novel shapes sends
 * requests down the planner gate's cold single-flight path. A stepped-
 * rate phase then finds the knee: the highest rate whose p99 meets
 * kLatencyLimitMs with every response back within that limit after the
 * step (no growing backlog).
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <tuple>

#include "common.hpp"
#include "exec/gemm_chain_exec.hpp"
#include "obs/trace.hpp"
#include "serve/planner_gate.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace chimera;
namespace fs = std::filesystem;

constexpr double kFixedRate = 2000.0; ///< requests/s of the fixed phase
constexpr double kLatencyLimitMs = 20.0; ///< knee criterion on p99
constexpr double kStepFactor = 1.5; ///< knee rates: kFixedRate * 1.5^i
constexpr int kKneeSteps = 10; ///< up to ~115 000 requests/s
constexpr double kMinStepSeconds = 0.25;
constexpr double kWarmUpSeconds = 1.0;
constexpr double kHotShare = 0.6;
constexpr double kNovelShare = 0.003;
/** Requests in flight past which a knee step is abandoned as overload. */
constexpr std::int64_t kMaxOutstanding = 1024;
constexpr double kDrainTimeoutSeconds = 30.0;
constexpr double kCapacityBytes = 768.0 * 1024;

/** One request kind: its encoded-on-send request and expected output. */
struct RequestClass
{
    serve::ExecuteRequest request;
    Tensor expected;
};

/** Per-request record, indexed by id - 1. */
struct Slot
{
    int cls = 0;
    double due = 0.0; ///< seconds after its phase start
    double lag = 0.0; ///< generator wake-up minus due time
    double sent = 0.0; ///< absolute, after the frame was written
    double encode = 0.0;
    double recv = 0.0; ///< absolute
    double decode = 0.0;
    double server = 0.0;
    std::uint32_t group = 0;
    bool done = false;
};

ir::GemmChainConfig
gemmConfig(std::int64_t m, std::int64_t n, std::int64_t k, std::int64_t l,
           ir::Epilogue epilogue)
{
    ir::GemmChainConfig cfg;
    cfg.m = m;
    cfg.n = n;
    cfg.k = k;
    cfg.l = l;
    cfg.epilogue = epilogue;
    cfg.softmaxScale = 1.0f / std::sqrt(static_cast<float>(k));
    return cfg;
}

RequestClass
makeClass(const ir::GemmChainConfig &cfg, Rng &rng)
{
    RequestClass c;
    c.request.config = cfg;
    c.request.a = Tensor(exec::gemmChainShapeA(cfg));
    c.request.b = Tensor(exec::gemmChainShapeB(cfg));
    c.request.d = Tensor(exec::gemmChainShapeD(cfg));
    fillUniform(c.request.a, rng);
    fillUniform(c.request.b, rng);
    fillUniform(c.request.d, rng);
    return c;
}

/** Regular classes (class 0 is hot), then seeded novel shapes. */
std::vector<RequestClass>
makeClasses(std::uint64_t seed, std::size_t novel)
{
    Rng rng(seed ^ 0x73657276652d6f70ULL);
    std::vector<RequestClass> classes;
    ir::GemmChainConfig attention =
        gemmConfig(64, 64, 64, 64, ir::Epilogue::Softmax);
    attention.causalMask = true;
    classes.push_back(makeClass(attention, rng));
    classes.push_back(
        makeClass(gemmConfig(96, 64, 48, 80, ir::Epilogue::Relu), rng));
    classes.push_back(
        makeClass(gemmConfig(80, 48, 32, 56, ir::Epilogue::None), rng));
    std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t,
                        std::int64_t, int>>
        seen;
    while (classes.size() < 3 + novel) {
        const auto pick = [&](std::int64_t lo, std::int64_t hi) {
            return lo + 16 * static_cast<std::int64_t>(rng.below(
                                 static_cast<std::uint64_t>((hi - lo) / 16 + 1)));
        };
        const std::int64_t m = pick(32, 128);
        const std::int64_t n = pick(16, 64);
        const std::int64_t k = pick(16, 64);
        const std::int64_t l = pick(32, 128);
        const int epilogue = static_cast<int>(rng.below(3));
        if (seen.insert({m, n, k, l, epilogue}).second) {
            classes.push_back(makeClass(
                gemmConfig(m, n, k, l, static_cast<ir::Epilogue>(epilogue)),
                rng));
        }
    }
    return classes;
}

int
connectTo(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    CHIMERA_CHECK(fd >= 0, "socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    CHIMERA_CHECK(path.size() < sizeof(addr.sun_path),
                  "socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        CHIMERA_CHECK(false, "cannot connect to " + path);
    }
    return fd;
}

/** A running daemon plus the client connections to it. */
struct Daemon
{
    std::unique_ptr<serve::Server> server;
    std::vector<int> fds;

    void stop()
    {
        for (const int fd : fds) {
            ::shutdown(fd, SHUT_RDWR);
        }
        if (server) {
            server->stop();
        }
        for (const int fd : fds) {
            ::close(fd);
        }
        fds.clear();
        server.reset();
    }
};

/** Measured outcome of one rate phase. */
struct PhaseResult
{
    double rate = 0.0;
    std::vector<double> latency, lag, server, wait, encode, decode;
    bool aborted = false; ///< outstanding requests passed kMaxOutstanding
    bool drained = false; ///< every response back within the limit
    // Daemon counter deltas over the phase.
    double requests = 0, batches = 0, batchedRequests = 0;
    double gateLed = 0, gateJoined = 0, cacheHits = 0, cacheMisses = 0;

    double p99Ms() const { return percentile(latency, 0.99) * 1e3; }
    bool meetsLimit() const
    {
        return !aborted && drained && !latency.empty() &&
               p99Ms() <= kLatencyLimitMs;
    }
};

class OpenLoopClient
{
  public:
    OpenLoopClient(std::vector<RequestClass> &classes, Report &report)
        : classes_(classes), report_(report)
    {
    }

    /** Seeds the Poisson schedule of one phase; returns its slot range. */
    std::pair<std::size_t, std::size_t> schedule(Rng &rng, double rate,
                                                 double seconds,
                                                 std::size_t &nextNovel)
    {
        const std::size_t begin = slots_.size();
        double t = 0.0;
        while (true) {
            t += -std::log(1.0 - rng.uniform()) / rate;
            if (t >= seconds) {
                break;
            }
            Slot slot;
            slot.due = t;
            const double u = rng.uniform();
            if (u < kNovelShare && nextNovel < classes_.size()) {
                slot.cls = static_cast<int>(nextNovel++);
            } else if (u < kNovelShare + kHotShare) {
                slot.cls = 0;
            } else {
                slot.cls = 1 + static_cast<int>(rng.below(2));
            }
            slots_.push_back(slot);
        }
        return {begin, slots_.size()};
    }

    /** Starts one receiver thread per connection. */
    void attach(const std::vector<int> &fds)
    {
        fds_ = fds;
        for (const int fd : fds_) {
            receivers_.emplace_back([this, fd] { receive(fd); });
        }
    }

    /** Stops the receivers once the daemon has closed or been shut. */
    void detach()
    {
        for (std::thread &t : receivers_) {
            t.join();
        }
        receivers_.clear();
    }

    PhaseResult run(std::pair<std::size_t, std::size_t> range, double rate,
                    serve::Server &server)
    {
        PhaseResult result;
        result.rate = rate;
        const serve::ServerStats statsBefore = server.stats();
        const serve::PlannerGateStats gateBefore = server.gate().stats();
        const double start = nowSeconds() + 0.01;
        std::thread sender([&] { send(range, start, result.aborted); });
        sender.join();
        const std::int64_t target = sent_.load();
        const double lastSend = nowSeconds();
        waitFor(target, lastSend + kLatencyLimitMs / 1e3);
        result.drained = received_.load(std::memory_order_acquire) >= target;
        if (!waitFor(target, lastSend + kDrainTimeoutSeconds)) {
            report_.check(false, "serve-open: responses missing after " +
                                     std::to_string(kDrainTimeoutSeconds) +
                                     " s drain");
        }
        for (std::size_t i = range.first; i < range.second; ++i) {
            const Slot &s = slots_[i];
            if (!s.done) {
                continue;
            }
            result.latency.push_back(s.recv - (start + s.due));
            result.lag.push_back(s.lag);
            result.server.push_back(s.server);
            result.wait.push_back(s.recv - s.sent - s.server);
            result.encode.push_back(s.encode);
            result.decode.push_back(s.decode);
        }
        const serve::ServerStats after = server.stats();
        result.requests = after.requests - statsBefore.requests;
        result.batches = after.batches - statsBefore.batches;
        result.batchedRequests =
            after.batchedRequests - statsBefore.batchedRequests;
        const serve::PlannerGateStats gate = server.gate().stats();
        result.gateLed = gate.flightsLed - gateBefore.flightsLed;
        result.gateJoined = gate.flightsJoined - gateBefore.flightsJoined;
        result.cacheHits = gate.cache.hits() - gateBefore.cache.hits();
        result.cacheMisses = gate.cache.misses - gateBefore.cache.misses;
        return result;
    }

  private:
    void send(std::pair<std::size_t, std::size_t> range, double start,
              bool &aborted)
    {
        using Clock = std::chrono::steady_clock;
        for (std::size_t i = range.first; i < range.second; ++i) {
            Slot &slot = slots_[i];
            // nowSeconds() is steady_clock time since its epoch.
            std::this_thread::sleep_until(Clock::time_point(
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(start + slot.due))));
            if (sent_.load() - received_.load() > kMaxOutstanding) {
                aborted = true;
                return;
            }
            const double wake = nowSeconds();
            slot.lag = wake - (start + slot.due);
            serve::ExecuteRequest &request =
                classes_[static_cast<std::size_t>(slot.cls)].request;
            request.id = static_cast<std::uint64_t>(i) + 1;
            std::string payload;
            {
                obs::Span span(obs::trace(), "protocol.encode", "protocol");
                payload = serve::encodeExecuteRequest(request);
            }
            slot.encode = nowSeconds() - wake;
            try {
                obs::Span span(obs::trace(), "protocol.write", "protocol");
                serve::writeFrame(fds_[i % fds_.size()], payload);
            } catch (const Error &e) {
                report_.check(false,
                              std::string("serve-open: send: ") + e.what());
                aborted = true;
                return;
            }
            slot.sent = nowSeconds();
            sent_.fetch_add(1, std::memory_order_release);
        }
    }

    void receive(int fd)
    {
        while (true) {
            std::optional<std::string> payload;
            try {
                payload = serve::readFrame(fd);
            } catch (const Error &) {
                return; // connection shut down by stop()
            }
            if (!payload) {
                return;
            }
            const double recv = nowSeconds();
            serve::Response response;
            bool ok = false;
            {
                obs::Span span(obs::trace(), "protocol.decode", "protocol");
                try {
                    response = serve::decodeResponse(*payload);
                    ok = true;
                } catch (const Error &) {
                }
            }
            const double decoded = nowSeconds();
            const std::size_t index = response.id - 1;
            if (!ok || response.id == 0 || index >= slots_.size() ||
                slots_[index].done) {
                report_.check(false, "serve-open: undecodable, unknown or "
                                     "duplicate response");
                continue;
            }
            Slot &slot = slots_[index];
            bool correct = false;
            {
                obs::Span span(obs::trace(), "bench.check", "bench");
                const Tensor &expected =
                    classes_[static_cast<std::size_t>(slot.cls)].expected;
                const Tensor &e = response.execute.e;
                correct = response.status == serve::Status::Ok &&
                          e.shape() == expected.shape() &&
                          std::memcmp(e.data(), expected.data(),
                                      static_cast<std::size_t>(e.bytes())) ==
                              0;
            }
            report_.check(correct, "serve-open: response " +
                                       std::to_string(response.id) +
                                       " is an error or differs bitwise "
                                       "from the local canonical run");
            slot.recv = recv;
            slot.decode = decoded - recv;
            slot.server = response.execute.serverSeconds;
            slot.group = response.execute.batchGroupSize;
            slot.done = true;
            received_.fetch_add(1, std::memory_order_release);
        }
    }

    bool waitFor(std::int64_t target, double deadline)
    {
        while (received_.load(std::memory_order_acquire) < target) {
            if (nowSeconds() > deadline) {
                return false;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return true;
    }

    std::vector<RequestClass> &classes_;
    Report &report_;
    std::vector<Slot> slots_;
    std::vector<int> fds_;
    std::vector<std::thread> receivers_;
    std::atomic<std::int64_t> sent_{0};
    std::atomic<std::int64_t> received_{0};
};

/**
 * Set-up: start the daemon, connect, and serve one request of each
 * regular class (their cold plans land in the daemon's cache).
 */
Daemon
startDaemon(const Options &options, const std::vector<RequestClass> &classes,
            const std::string &socket, const std::string &cacheDir,
            int connections)
{
    fs::remove_all(cacheDir);
    serve::ServerOptions so;
    so.socketPath = socket;
    so.executors = std::max(1, std::min(2, options.threads / 2));
    so.execThreads = 1;
    so.cacheDir = cacheDir;
    so.capacityBytes = kCapacityBytes;
    Daemon daemon;
    daemon.server = std::make_unique<serve::Server>(so);
    daemon.server->start();
    for (int c = 0; c < connections; ++c) {
        daemon.fds.push_back(connectTo(socket));
    }
    for (std::size_t c = 0; c < 3; ++c) {
        serve::ExecuteRequest request = classes[c].request;
        request.id = 1;
        serve::writeFrame(daemon.fds[0], serve::encodeExecuteRequest(request));
        const std::optional<std::string> payload =
            serve::readFrame(daemon.fds[0]);
        CHIMERA_CHECK(payload && serve::decodeResponse(*payload).status ==
                                     serve::Status::Ok,
                      "warm-up request failed");
    }
    return daemon;
}

void
reportFixed(const PhaseResult &fixed, bool layers, Report &report)
{
    const double p50 = median(fixed.latency) * 1e3;
    const double p99 = fixed.p99Ms();
    if (!layers) {
        report.metric("op_ms_p75", percentile(fixed.latency, 0.75) * 1e3,
                      "ms");
        report.metric("op_ms_p90", percentile(fixed.latency, 0.9) * 1e3,
                      "ms");
        report.metric("serve_p50_ms", p50, "ms");
        report.metric("serve_p99_ms", p99, "ms");
        return;
    }
    report.metric("serve.server_ms_p50", median(fixed.server) * 1e3, "ms");
    report.metric("serve.server_ms_p99", percentile(fixed.server, 0.99) * 1e3,
                  "ms");
    report.metric("serve.wait_ms_p99", percentile(fixed.wait, 0.99) * 1e3,
                  "ms");
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    report.metric("serve.batch_mean", ratio(fixed.requests, fixed.batches),
                  "count");
    report.metric("serve.batched_frac",
                  ratio(fixed.batchedRequests, fixed.requests), "ratio");
    report.metric("serve.gate_led", fixed.gateLed, "count");
    report.metric("serve.gate_joined", fixed.gateJoined, "count");
    report.metric("serve.cache_hit_frac",
                  ratio(fixed.cacheHits, fixed.cacheHits + fixed.cacheMisses),
                  "ratio");
    report.metric("protocol.encode_us", median(fixed.encode) * 1e6, "us");
    report.metric("protocol.decode_us", median(fixed.decode) * 1e6, "us");
    report.metric("serve.gen_lag_ms_p99", percentile(fixed.lag, 0.99) * 1e3,
                  "ms");
}

} // namespace

void
runServeOpen(const Options &options, Report &report)
{
    const std::string socket = options.workDir + "/serve.sock";
    const std::string cacheDir = options.workDir + "/serve-cache";
    // At most nproc client threads: one sender plus one receiver per
    // connection.
    const int connections = std::max(1, std::min(2, options.threads - 1));
    const double fixedSeconds = options.seconds * (options.traced ? 0.3 : 0.6);
    const double kneeSeconds = options.seconds * (options.traced ? 0.2 : 0.4);
    const double stepSeconds =
        std::max(kMinStepSeconds, kneeSeconds / kKneeSteps);

    const double tracedSeconds = options.traced ? options.seconds * 0.5 : 0.0;

    // Novel shapes go to the fixed-rate phases only: the knee steps send
    // up to ~100x as many requests, and a novel pool sized for them would
    // make the client's own inputs dominate set-up time and peak RSS.
    const auto novel = static_cast<std::size_t>(
                           kFixedRate * (fixedSeconds + tracedSeconds) *
                           kNovelShare * 1.5) +
                       8;

    std::vector<RequestClass> classes;
    Daemon daemon;
    SetupTimer setup;
    const auto setUp = [&] {
        classes = makeClasses(options.seed, novel);
        daemon = startDaemon(options, classes, socket, cacheDir, connections);
    };
    const auto tearDown = [&] { daemon.stop(); };
    setup.block(setUp, tearDown);

    // What the daemon must return, bit for bit: each request executed
    // locally under its class's canonical plan.
    {
        serve::PlannerGateOptions go;
        go.capacityBytes = kCapacityBytes;
        go.cacheDir = "-";
        serve::PlannerGate gate(go);
        const exec::ComputeEngine engine = exec::ComputeEngine::best();
        for (RequestClass &c : classes) {
            const ir::GemmChainConfig &cfg = c.request.config;
            c.expected = Tensor(exec::gemmChainShapeE(cfg));
            exec::runFusedGemmChain(cfg, gate.canonicalPlan(cfg), engine,
                                    c.request.a, c.request.b, c.request.d,
                                    c.expected, exec::ExecOptions{1, nullptr});
        }
    }

    // Every phase is scheduled before the receivers start, so the slot
    // table never reallocates under them.
    OpenLoopClient client(classes, report);
    Rng rng(options.seed);
    std::size_t nextNovel = 3;
    // An unrecorded warm-up at the fixed rate derives the batched plans
    // of the regular classes before anything is timed.
    std::size_t noNovel = classes.size();
    const auto warmUpRange =
        client.schedule(rng, kFixedRate, kWarmUpSeconds, noNovel);
    const auto fixedRange =
        client.schedule(rng, kFixedRate, fixedSeconds, nextNovel);
    std::vector<std::pair<std::size_t, std::size_t>> stepRanges;
    for (int s = 1; s <= kKneeSteps; ++s) {
        stepRanges.push_back(client.schedule(
            rng, kFixedRate * std::pow(kStepFactor, s), stepSeconds,
            noNovel));
    }
    const auto tracedRange =
        client.schedule(rng, kFixedRate, tracedSeconds, nextNovel);
    client.attach(daemon.fds);

    (void)client.run(warmUpRange, kFixedRate, *daemon.server);
    const PhaseResult fixed = client.run(fixedRange, kFixedRate, *daemon.server);
    reportFixed(fixed, false, report);
    report.metric("peak_rss_mb", peakRssMb(), "MB");

    double knee = fixed.meetsLimit() ? kFixedRate : 0.0;
    for (int s = 1; s <= kKneeSteps && knee > 0.0; ++s) {
        const double rate = kFixedRate * std::pow(kStepFactor, s);
        const PhaseResult step = client.run(
            stepRanges[static_cast<std::size_t>(s - 1)], rate,
            *daemon.server);
        std::printf("knee step %.0f req/s: p99 %.2f ms%s%s\n", rate,
                    step.p99Ms(), step.aborted ? ", overload" : "",
                    step.drained ? "" : ", backlog");
        if (!step.meetsLimit()) {
            break;
        }
        knee = rate;
    }
    report.metric("serve_knee_rps", knee, "1/s");
    std::printf("serve-open: %zu requests at %.0f req/s (p99 limit %.0f ms)\n",
                fixed.latency.size(), kFixedRate, kLatencyLimitMs);

    obs::TraceRecorder *tracer = nullptr;
    if (options.traced) {
        tracer = obs::TraceRecorder::enableGlobal();
        const std::int64_t begin = obs::nowNanos();
        const PhaseResult traced =
            client.run(tracedRange, kFixedRate, *daemon.server);
        report.traceWindow(begin, obs::nowNanos());
        reportFixed(traced, true, report);
        report.metric("trace_overhead_frac",
                      median(traced.latency) / median(fixed.latency) - 1.0,
                      "ratio");
    }
    daemon.stop();
    client.detach();
    if (tracer != nullptr) {
        tracer->writeJson(options.traceFile);
    }

    // The second set-up block, once the client is done with the daemon.
    setup.block(setUp, tearDown);
    daemon.stop();
    report.metric("setup_s", setup.medianSeconds(), "s");
    fs::remove_all(cacheDir);
}

} // namespace perfbench
