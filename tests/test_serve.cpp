/**
 * @file
 * Tests for the chimera-serve stack: wire protocol strictness, batch
 * grouping, single-flight planning, the bitwise batched == individual
 * execution contract, and an end-to-end daemon round trip over a real
 * Unix-domain socket.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "exec/gemm_chain_exec.hpp"
#include "serve/batcher.hpp"
#include "serve/planner_gate.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"

namespace chimera::serve {
namespace {

ir::GemmChainConfig
smallConfig(std::int64_t batch = 1,
            ir::Epilogue epilogue = ir::Epilogue::Relu)
{
    ir::GemmChainConfig cfg;
    cfg.batch = batch;
    cfg.m = 32;
    cfg.n = 24;
    cfg.k = 16;
    cfg.l = 20;
    cfg.epilogue = epilogue;
    return cfg;
}

ExecuteRequest
makeRequest(std::uint64_t id, const ir::GemmChainConfig &config)
{
    ExecuteRequest request;
    request.id = id;
    request.config = config;
    request.a = Tensor(exec::gemmChainShapeA(config));
    request.b = Tensor(exec::gemmChainShapeB(config));
    request.d = Tensor(exec::gemmChainShapeD(config));
    fillPattern(request.a);
    fillPattern(request.b);
    fillPattern(request.d);
    return request;
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ExecuteRequestRoundTrip)
{
    ir::GemmChainConfig cfg = smallConfig(3, ir::Epilogue::Softmax);
    cfg.l = cfg.m; // causal needs m == l
    cfg.softmaxScale = 0.125f;
    cfg.causalMask = true;
    const ExecuteRequest request = makeRequest(42, cfg);

    const Request decoded = decodeRequest(encodeExecuteRequest(request));
    EXPECT_EQ(decoded.type, MessageType::Execute);
    EXPECT_EQ(decoded.id, 42u);
    const ExecuteRequest &e = decoded.execute;
    EXPECT_EQ(e.config.batch, cfg.batch);
    EXPECT_EQ(e.config.m, cfg.m);
    EXPECT_EQ(e.config.n, cfg.n);
    EXPECT_EQ(e.config.k, cfg.k);
    EXPECT_EQ(e.config.l, cfg.l);
    EXPECT_EQ(e.config.epilogue, cfg.epilogue);
    EXPECT_EQ(e.config.softmaxScale, cfg.softmaxScale);
    EXPECT_TRUE(e.config.causalMask);
    ASSERT_EQ(e.a.numel(), request.a.numel());
    EXPECT_EQ(std::memcmp(e.a.data(), request.a.data(),
                          static_cast<std::size_t>(request.a.bytes())),
              0);
    EXPECT_EQ(std::memcmp(e.d.data(), request.d.data(),
                          static_cast<std::size_t>(request.d.bytes())),
              0);
}

TEST(ServeProtocol, ResponseRoundTrips)
{
    ExecuteResponse ok;
    ok.id = 7;
    ok.batchGroupSize = 3;
    ok.serverSeconds = 0.25;
    ok.e = Tensor({4, 5});
    fillPattern(ok.e);
    const Response decodedOk = decodeResponse(encodeExecuteResponse(ok));
    EXPECT_EQ(decodedOk.type, MessageType::Execute);
    EXPECT_EQ(decodedOk.id, 7u);
    EXPECT_EQ(decodedOk.status, Status::Ok);
    EXPECT_EQ(decodedOk.execute.batchGroupSize, 3u);
    EXPECT_EQ(decodedOk.execute.serverSeconds, 0.25);
    EXPECT_EQ(std::memcmp(decodedOk.execute.e.data(), ok.e.data(),
                          static_cast<std::size_t>(ok.e.bytes())),
              0);

    const Response decodedErr = decodeResponse(
        encodeErrorResponse(MessageType::Execute, 9, "no feasible plan"));
    EXPECT_EQ(decodedErr.status, Status::Error);
    EXPECT_EQ(decodedErr.id, 9u);
    EXPECT_EQ(decodedErr.error, "no feasible plan");

    const Response stats =
        decodeResponse(encodeStatsResponse(3, "requests: 5\n"));
    EXPECT_EQ(stats.type, MessageType::Stats);
    EXPECT_EQ(stats.statsText, "requests: 5\n");

    const Response bye = decodeResponse(encodeShutdownResponse(4));
    EXPECT_EQ(bye.type, MessageType::Shutdown);
    EXPECT_EQ(bye.id, 4u);

    EXPECT_EQ(decodeRequest(encodeStatsRequest(11)).type,
              MessageType::Stats);
    EXPECT_EQ(decodeRequest(encodeShutdownRequest(12)).type,
              MessageType::Shutdown);
}

TEST(ServeProtocol, EveryTruncationIsRejected)
{
    const std::string payload =
        encodeExecuteRequest(makeRequest(1, smallConfig()));
    for (std::size_t len = 0; len < payload.size(); ++len) {
        EXPECT_THROW((void)decodeRequest(payload.substr(0, len)), Error)
            << "prefix of length " << len << " decoded";
    }
    EXPECT_THROW((void)decodeRequest(payload + '\0'), Error)
        << "trailing byte accepted";
}

TEST(ServeProtocol, BadHeaderFieldsRejected)
{
    const std::string good =
        encodeExecuteRequest(makeRequest(1, smallConfig()));

    std::string badMagic = good;
    badMagic[0] = 'X';
    EXPECT_THROW((void)decodeRequest(badMagic), Error);

    // A response magic on the request path is equally dead.
    EXPECT_THROW((void)decodeRequest(encodeShutdownResponse(1)), Error);
    EXPECT_THROW((void)decodeResponse(encodeShutdownRequest(1)), Error);

    std::string badVersion = good;
    badVersion[4] = 0x7f;
    EXPECT_THROW((void)decodeRequest(badVersion), Error);

    std::string badType = good;
    badType[6] = 0x7f;
    EXPECT_THROW((void)decodeRequest(badType), Error);
}

TEST(ServeProtocol, PeekRequestHeaderBestEffort)
{
    const std::string good =
        encodeExecuteRequest(makeRequest(77, smallConfig()));
    MessageType type = MessageType::Shutdown;
    std::uint64_t id = 0;
    EXPECT_TRUE(peekRequestHeader(good, type, id));
    EXPECT_EQ(type, MessageType::Execute);
    EXPECT_EQ(id, 77u);

    // A corrupt body does not stop the header from peeking: this is
    // what lets the daemon echo the request id on decode errors.
    std::string badBody = good;
    badBody[56] = 9; // unknown epilogue code
    EXPECT_THROW((void)decodeRequest(badBody), Error);
    MessageType bodyType = MessageType::Shutdown;
    std::uint64_t bodyId = 0;
    EXPECT_TRUE(peekRequestHeader(badBody, bodyType, bodyId));
    EXPECT_EQ(bodyType, MessageType::Execute);
    EXPECT_EQ(bodyId, 77u);

    std::string badMagic = good;
    badMagic[0] = 'X';
    EXPECT_FALSE(peekRequestHeader(badMagic, type, id));
    std::string badVersion = good;
    badVersion[4] = 0x7f;
    EXPECT_FALSE(peekRequestHeader(badVersion, type, id));
    std::string badType = good;
    badType[6] = 0x7f;
    EXPECT_FALSE(peekRequestHeader(badType, type, id));
    EXPECT_FALSE(peekRequestHeader("short", type, id));
}

#ifdef __unix__

TEST(ServeProtocol, FramePrefixIsLittleEndianOnTheWire)
{
    // A pipe, not a socket: also exercises the write() fallback behind
    // writeFrame's MSG_NOSIGNAL send path.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload = encodeStatsRequest(5);
    writeFrame(fds[1], payload);

    unsigned char prefix[4];
    ASSERT_EQ(::read(fds[0], prefix, sizeof prefix),
              static_cast<ssize_t>(sizeof prefix));
    const std::uint32_t length =
        static_cast<std::uint32_t>(prefix[0]) |
        (static_cast<std::uint32_t>(prefix[1]) << 8) |
        (static_cast<std::uint32_t>(prefix[2]) << 16) |
        (static_cast<std::uint32_t>(prefix[3]) << 24);
    EXPECT_EQ(length, payload.size())
        << "length prefix must be little-endian like the payload";

    std::string body(payload.size(), '\0');
    ASSERT_EQ(::read(fds[0], body.data(), body.size()),
              static_cast<ssize_t>(body.size()));
    EXPECT_EQ(body, payload);
    ::close(fds[1]);
    EXPECT_FALSE(readFrame(fds[0]).has_value());
    ::close(fds[0]);
}

#endif // __unix__

TEST(ServeProtocol, InvalidConfigRejected)
{
    const std::string good =
        encodeExecuteRequest(makeRequest(1, smallConfig()));

    std::string zeroM = good;
    std::memset(&zeroM[24], 0, 8); // m is the second i64 after the header
    EXPECT_THROW((void)decodeRequest(zeroM), Error);

    std::string badEpilogue = good;
    badEpilogue[56] = 9;
    EXPECT_THROW((void)decodeRequest(badEpilogue), Error);

    std::string causalNoSoftmax = good; // epilogue stays Relu
    causalNoSoftmax[57] = 1;
    EXPECT_THROW((void)decodeRequest(causalNoSoftmax), Error);

    ir::GemmChainConfig oversized = smallConfig();
    oversized.k = kMaxExtent + 1;
    EXPECT_THROW(validateExecuteConfig(oversized), Error);
    ir::GemmChainConfig negative = smallConfig();
    negative.batch = 0;
    EXPECT_THROW(validateExecuteConfig(negative), Error);
}

// ----------------------------------------------------------------- batcher

ServeJob
jobOf(std::uint64_t id, const ir::GemmChainConfig &config)
{
    ServeJob job;
    job.request = makeRequest(id, config);
    job.complete = [](ExecuteResponse &&) {};
    return job;
}

std::vector<std::vector<std::uint64_t>>
idsOf(const std::vector<std::vector<ServeJob>> &groups)
{
    std::vector<std::vector<std::uint64_t>> ids;
    for (const auto &group : groups) {
        ids.emplace_back();
        for (const ServeJob &job : group) {
            ids.back().push_back(job.request.id);
        }
    }
    return ids;
}

TEST(ServeBatcher, KeyIgnoresBatchCountOnly)
{
    const ir::GemmChainConfig one = smallConfig(1);
    const ir::GemmChainConfig many = smallConfig(5);
    EXPECT_EQ(compatibilityKey(one), compatibilityKey(many));

    ir::GemmChainConfig scaled = smallConfig(1, ir::Epilogue::Softmax);
    ir::GemmChainConfig rescaled = scaled;
    rescaled.softmaxScale = scaled.softmaxScale + 1e-7f;
    EXPECT_NE(compatibilityKey(scaled), compatibilityKey(rescaled))
        << "softmax scale must compare by bit pattern";

    ir::GemmChainConfig otherShape = smallConfig(1);
    otherShape.n += 8;
    EXPECT_NE(compatibilityKey(one), compatibilityKey(otherShape));
}

TEST(ServeBatcher, GroupsByClassInArrivalOrder)
{
    const ir::GemmChainConfig classA = smallConfig();
    ir::GemmChainConfig classB = smallConfig();
    classB.n += 8;

    std::deque<ServeJob> jobs;
    jobs.push_back(jobOf(1, classA));
    jobs.push_back(jobOf(2, classA));
    jobs.push_back(jobOf(3, classB));
    jobs.push_back(jobOf(4, classA));
    jobs.push_back(jobOf(5, classB));
    jobs.push_back(jobOf(6, classA));

    const auto ids = idsOf(groupCompatible(std::move(jobs), 2));
    const std::vector<std::vector<std::uint64_t>> expected = {
        {1, 2}, {3, 5}, {4, 6}};
    EXPECT_EQ(ids, expected)
        << "classes coalesce across interleaving, close at the cap";
}

TEST(ServeBatcher, MultiSliceAndOversizedRequests)
{
    const ir::GemmChainConfig classA = smallConfig();

    std::deque<ServeJob> jobs;
    jobs.push_back(jobOf(1, smallConfig(3))); // 3 slices
    jobs.push_back(jobOf(2, classA)); // +1 -> 4, group full
    jobs.push_back(jobOf(3, classA));
    const auto ids = idsOf(groupCompatible(std::move(jobs), 4));
    const std::vector<std::vector<std::uint64_t>> expected = {{1, 2}, {3}};
    EXPECT_EQ(ids, expected);

    // A single request larger than the cap still executes, alone.
    std::deque<ServeJob> big;
    big.push_back(jobOf(7, smallConfig(9)));
    big.push_back(jobOf(8, classA));
    const auto bigIds = idsOf(groupCompatible(std::move(big), 4));
    const std::vector<std::vector<std::uint64_t>> bigExpected = {{7}, {8}};
    EXPECT_EQ(bigIds, bigExpected);
}

TEST(ServeBatcher, NoBatchingMeansSingletons)
{
    std::deque<ServeJob> jobs;
    jobs.push_back(jobOf(1, smallConfig()));
    jobs.push_back(jobOf(2, smallConfig()));
    const auto ids = idsOf(groupCompatible(std::move(jobs), 1));
    const std::vector<std::vector<std::uint64_t>> expected = {{1}, {2}};
    EXPECT_EQ(ids, expected);
}

TEST(ServeBatcher, TakeGroupLeavesTheRestInArrivalOrder)
{
    const ir::GemmChainConfig classA = smallConfig();
    ir::GemmChainConfig classB = smallConfig();
    classB.n += 8;

    std::deque<ServeJob> jobs;
    jobs.push_back(jobOf(1, classA));
    jobs.push_back(jobOf(2, classB));
    jobs.push_back(jobOf(3, classA));
    jobs.push_back(jobOf(4, classB));
    jobs.push_back(jobOf(5, classA));
    const auto ids = [](const auto &jobList) {
        std::vector<std::uint64_t> out;
        for (const ServeJob &job : jobList) {
            out.push_back(job.request.id);
        }
        return out;
    };
    EXPECT_EQ(ids(takeGroup(jobs, 2)), (std::vector<std::uint64_t>{1, 3}));
    EXPECT_EQ(ids(jobs), (std::vector<std::uint64_t>{2, 4, 5}))
        << "the jobs left behind keep their arrival order";
}

TEST(ServeBatcher, ThrowingCompleteMidScatterFailsOnlySuffix)
{
    PlannerGateOptions gateOptions;
    gateOptions.cacheDir = "-";
    PlannerGate gate(gateOptions);
    const exec::ComputeEngine engine = exec::ComputeEngine::best();

    // Three compatible jobs execute as one batched group; the middle
    // one's complete callback throws (a stand-in for any mid-scatter
    // failure). The contract: every complete runs exactly once — the
    // already-delivered prefix must not be re-completed as an error.
    std::vector<ServeJob> group;
    group.push_back(jobOf(1, smallConfig()));
    group.push_back(jobOf(2, smallConfig()));
    group.push_back(jobOf(3, smallConfig()));
    int calls1 = 0;
    int calls2 = 0;
    int calls3 = 0;
    Status status1 = Status::Error;
    Status status3 = Status::Ok;
    group[0].complete = [&](ExecuteResponse &&response) {
        ++calls1;
        status1 = response.status;
    };
    group[1].complete = [&](ExecuteResponse &&) {
        ++calls2;
        throw std::runtime_error("client vanished");
    };
    group[2].complete = [&](ExecuteResponse &&response) {
        ++calls3;
        status3 = response.status;
    };

    const GroupResult result = executeGroup(
        group, gate, engine, exec::ExecOptions{}, [] { return 0.0; });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(calls1, 1) << "delivered job must not be completed again";
    EXPECT_EQ(status1, Status::Ok);
    EXPECT_EQ(calls2, 1) << "throwing complete must not be retried";
    EXPECT_EQ(calls3, 1);
    EXPECT_EQ(status3, Status::Error)
        << "jobs after the failure point get the group error";
}

TEST(ServeBatcher, BatchedExecutionBitwiseMatchesIndividual)
{
    const CheckResult first = runCheckReplay(builtinCheckWorkload(), 4);
    EXPECT_TRUE(first.identical);
    EXPECT_GT(first.requests, 0);
    EXPECT_LT(first.groups, first.requests) << "nothing coalesced";

    // Same workload, same grouping, same bits: the digest is stable.
    const CheckResult second = runCheckReplay(builtinCheckWorkload(), 4);
    EXPECT_EQ(first.digest, second.digest);

    // A different cap changes grouping but must not change outputs.
    const CheckResult unbatched = runCheckReplay(builtinCheckWorkload(), 1);
    EXPECT_TRUE(unbatched.identical);
}

// -------------------------------------------------------------------- gate

TEST(ServeGate, ColdStampedePlansOnce)
{
    PlannerGateOptions options;
    options.cacheDir = "-";
    PlannerGate gate(options);
    const ir::GemmChainConfig cfg = smallConfig();

    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<plan::ExecutionPlan> plans(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            plans[static_cast<std::size_t>(t)] = gate.canonicalPlan(cfg);
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }

    const PlannerGateStats stats = gate.stats();
    EXPECT_EQ(stats.flightsLed, 1) << "the planner must run exactly once";
    EXPECT_EQ(stats.cache.stores, 1);
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(plans[static_cast<std::size_t>(t)].perm, plans[0].perm);
        EXPECT_EQ(plans[static_cast<std::size_t>(t)].tiles,
                  plans[0].tiles);
    }
}

/** A fresh scratch directory named after @p name and this process. */
std::filesystem::path
scratchRoot(const std::string &name)
{
    const std::filesystem::path root =
        std::filesystem::temp_directory_path() /
        ("chimera-" + name + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(root);
    return root;
}

/** The file name of @p config's canonical-plan entry in a plan cache,
 * from a gate that plans the key once in @p probeDir. */
std::string
cacheEntryOf(const ir::GemmChainConfig &config, const std::string &probeDir)
{
    PlannerGateOptions probe;
    probe.cacheDir = probeDir;
    PlannerGate gate(probe);
    (void)gate.canonicalPlan(config);
    std::string entry;
    for (const auto &file : std::filesystem::directory_iterator(probeDir)) {
        entry = file.path().filename().string();
    }
    return entry;
}

/**
 * A FIFO at a plan-cache entry: a lookup of that entry, past its memory
 * miss, blocks reading the FIFO for as long as this holds its writer
 * open. Destruction releases the reader, so a failed assertion cannot
 * leave a thread parked.
 */
class FifoHold
{
  public:
    explicit FifoHold(std::string path) : path_(std::move(path))
    {
        made_ = ::mkfifo(path_.c_str(), 0600) == 0;
    }
    ~FifoHold() { release(); }
    FifoHold(const FifoHold &) = delete;
    FifoHold &operator=(const FifoHold &) = delete;

    bool made() const { return made_; }

    /** Waits up to ten seconds for a reader; true once one is held. A
     * non-blocking writer opens only once a reader has the FIFO open,
     * and the reader then blocks until the writer closes. */
    bool awaitReader()
    {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while ((writer_ = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK)) <
                   0 &&
               errno == ENXIO &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
        }
        return writer_ >= 0;
    }

    /** Removes the FIFO, so later lookups miss the disk; a held
     * reader stays held. True when this call removed it. */
    bool unlink()
    {
        if (!made_) {
            return false;
        }
        made_ = false;
        return ::unlink(path_.c_str()) == 0;
    }

    /** Unlinks, then lets the held reader read an empty entry (a
     * miss). */
    void release()
    {
        unlink();
        if (writer_ >= 0) {
            ::close(writer_);
            writer_ = -1;
        }
    }

  private:
    std::string path_;
    bool made_ = false;
    int writer_ = -1;
};

TEST(ServeGate, MissBeforeTheStoreTakesTheFinishedFlightsPlan)
{
    // Request A misses the cache before the leader stores, and reaches
    // the flight table only after the leader's flight has finished: it
    // must take the stored plan, not plan the key a second time. A FIFO
    // at the key's cache entry holds A inside its disk lookup (past the
    // memory miss).
    const ir::GemmChainConfig cfg = smallConfig();
    const std::filesystem::path root = scratchRoot("late-miss");
    const std::string entry = cacheEntryOf(cfg, (root / "probe").string());
    ASSERT_FALSE(entry.empty());

    PlannerGateOptions options;
    options.cacheDir = (root / "gate").string();
    std::filesystem::create_directories(options.cacheDir);
    FifoHold hold(options.cacheDir + "/" + entry);
    ASSERT_TRUE(hold.made()) << std::strerror(errno);
    PlannerGate gate(options);

    plan::ExecutionPlan late;
    std::thread a([&] { late = gate.canonicalPlan(cfg); });
    EXPECT_TRUE(hold.awaitReader()) << std::strerror(errno);
    // With the FIFO gone the leader's lookup misses the disk, and the
    // leader plans, stores and ends its flight while A is still held.
    EXPECT_TRUE(hold.unlink());
    const plan::ExecutionPlan led = gate.canonicalPlan(cfg);
    // A reads an empty entry, counts a miss and goes on to the flight
    // table.
    hold.release();
    a.join();

    EXPECT_EQ(gate.stats().flightsLed, 1)
        << "a miss that raced the store must not plan again";
    EXPECT_EQ(late.perm, led.perm);
    EXPECT_EQ(late.tiles, led.tiles);
    std::filesystem::remove_all(root);
}

TEST(ServeGate, BatchedPlanPinsCanonicalSchedule)
{
    PlannerGateOptions options;
    options.cacheDir = "-";
    PlannerGate gate(options);
    const ir::GemmChainConfig cfg = smallConfig();

    const plan::ExecutionPlan canonical = gate.canonicalPlan(cfg);
    ir::GemmChainConfig batchedCfg = canonicalSlice(cfg);
    batchedCfg.batch = 4;
    const plan::ExecutionPlan batched = gate.batchedPlan(batchedCfg, 4);

    const ir::Chain sliceChain = ir::makeGemmChain(canonicalSlice(cfg));
    ir::GemmChainConfig named = canonicalSlice(cfg);
    named.batch = 4;
    named.name = "serve-batched";
    const ir::Chain batchedChain = ir::makeGemmChain(named);

    // b leads the order with tile 1...
    const ir::AxisId b = ir::axisIdByName(batchedChain, "b");
    ASSERT_FALSE(batched.perm.empty());
    EXPECT_EQ(batched.perm.front(), b);
    EXPECT_EQ(batched.tiles[static_cast<std::size_t>(b)], 1);

    // ...and every slice axis keeps its canonical tile and position.
    for (ir::AxisId axis = 0; axis < sliceChain.numAxes(); ++axis) {
        const std::string &name =
            sliceChain.axes()[static_cast<std::size_t>(axis)].name;
        const ir::AxisId mapped = ir::axisIdByName(batchedChain, name);
        EXPECT_EQ(batched.tiles[static_cast<std::size_t>(mapped)],
                  canonical.tiles[static_cast<std::size_t>(axis)])
            << "tile of axis " << name;
    }
    for (std::size_t i = 0; i < canonical.perm.size(); ++i) {
        const std::string &name =
            sliceChain
                .axes()[static_cast<std::size_t>(canonical.perm[i])]
                .name;
        EXPECT_EQ(batched.perm[i + 1],
                  ir::axisIdByName(batchedChain, name))
            << "order position " << i;
    }
    EXPECT_EQ(gate.stats().derivedPlans, 1);
}

TEST(ServeGate, InfeasibleCapacityThrows)
{
    PlannerGateOptions options;
    options.cacheDir = "-";
    options.capacityBytes = 1.0; // nothing fits
    PlannerGate gate(options);
    EXPECT_THROW((void)gate.canonicalPlan(smallConfig()), Error);
}

// ------------------------------------------------------------------ daemon

#ifdef __unix__

int
connectTo(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0)
        << "connect to " << path << ": " << std::strerror(errno);
    return fd;
}

std::string
socketPathFor(const std::string &name)
{
    // Short absolute path: sun_path caps at ~108 bytes.
    return "/tmp/chimera-test-" + name + "-" +
           std::to_string(::getpid()) + ".sock";
}

std::string
statsValue(const std::string &text, const std::string &key)
{
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind(key + ": ", 0) == 0) {
            return line.substr(key.size() + 2);
        }
    }
    return "";
}

TEST(ServeDaemon, EndToEndExecuteStatsShutdown)
{
    ServerOptions options;
    options.socketPath = socketPathFor("e2e");
    options.cacheDir = "-";
    options.executors = 2;
    options.maxBatch = 4;
    Server server(options);
    server.start();

    const int fd = connectTo(options.socketPath);
    const ExecuteRequest r1 = makeRequest(1, smallConfig());
    const ExecuteRequest r2 = makeRequest(2, smallConfig());
    writeFrame(fd, encodeExecuteRequest(r1));
    writeFrame(fd, encodeExecuteRequest(r2));

    // What the daemon must return, bit for bit: the canonical-plan
    // execution of each request (computed locally through the same
    // serve stack).
    PlannerGateOptions gateOptions;
    gateOptions.cacheDir = "-";
    PlannerGate gate(gateOptions);
    const exec::ComputeEngine engine = exec::ComputeEngine::best();
    Tensor expected1, expected2;
    for (const ExecuteRequest *request : {&r1, &r2}) {
        std::vector<ServeJob> group(1);
        group[0].request = *request;
        Tensor *out = request->id == 1 ? &expected1 : &expected2;
        group[0].complete = [out](ExecuteResponse &&response) {
            *out = std::move(response.e);
        };
        const GroupResult result = executeGroup(
            group, gate, engine, exec::ExecOptions{}, [] { return 0.0; });
        ASSERT_TRUE(result.ok) << result.error;
    }

    bool saw1 = false;
    bool saw2 = false;
    for (int i = 0; i < 2; ++i) {
        std::optional<std::string> payload = readFrame(fd);
        ASSERT_TRUE(payload.has_value());
        const Response response = decodeResponse(*payload);
        ASSERT_EQ(response.status, Status::Ok) << response.error;
        const Tensor &expected =
            response.id == 1 ? expected1 : expected2;
        (response.id == 1 ? saw1 : saw2) = true;
        ASSERT_EQ(response.execute.e.numel(), expected.numel());
        EXPECT_EQ(std::memcmp(response.execute.e.data(), expected.data(),
                              static_cast<std::size_t>(expected.bytes())),
                  0)
            << "daemon output differs from local canonical execution";
        EXPECT_GE(response.execute.batchGroupSize, 1u);
    }
    EXPECT_TRUE(saw1 && saw2);

    writeFrame(fd, encodeStatsRequest(50));
    std::optional<std::string> statsPayload = readFrame(fd);
    ASSERT_TRUE(statsPayload.has_value());
    const Response stats = decodeResponse(*statsPayload);
    ASSERT_EQ(stats.type, MessageType::Stats);
    EXPECT_EQ(statsValue(stats.statsText, "requests"), "2");
    EXPECT_EQ(statsValue(stats.statsText, "protocol-errors"), "0");

    writeFrame(fd, encodeShutdownRequest(51));
    std::optional<std::string> ack = readFrame(fd);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(decodeResponse(*ack).type, MessageType::Shutdown);
    server.wait();
    server.stop();
    ::close(fd);
    EXPECT_FALSE(std::ifstream(options.socketPath).good())
        << "socket file must be unlinked on shutdown";
}

TEST(ServeDaemon, MalformedPayloadRejectedConnectionSurvives)
{
    ServerOptions options;
    options.socketPath = socketPathFor("malformed");
    options.cacheDir = "-";
    Server server(options);
    server.start();

    const int fd = connectTo(options.socketPath);
    std::string bad = encodeExecuteRequest(makeRequest(1, smallConfig()));
    bad[56] = 9; // unknown epilogue code
    writeFrame(fd, bad);

    std::optional<std::string> payload = readFrame(fd);
    ASSERT_TRUE(payload.has_value());
    const Response rejection = decodeResponse(*payload);
    EXPECT_EQ(rejection.status, Status::Error);
    EXPECT_FALSE(rejection.error.empty());
    EXPECT_EQ(rejection.type, MessageType::Execute);
    EXPECT_EQ(rejection.id, 1u)
        << "the error must echo the request id from the parsed header";

    // The same connection still serves well-formed traffic.
    writeFrame(fd, encodeExecuteRequest(makeRequest(2, smallConfig())));
    payload = readFrame(fd);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(decodeResponse(*payload).status, Status::Ok);

    writeFrame(fd, encodeStatsRequest(3));
    payload = readFrame(fd);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(statsValue(decodeResponse(*payload).statsText,
                         "protocol-errors"),
              "1");
    ::close(fd);
    server.stop();
}

TEST(ServeDaemon, HalfClosedClientStillGetsItsResponses)
{
    ServerOptions options;
    options.socketPath = socketPathFor("halfclose");
    options.cacheDir = "-";
    options.executors = 2;
    Server server(options);
    server.start();

    // The batch-client pattern: send everything, close the send side,
    // then collect. The daemon must keep the connection alive until
    // every in-flight response has been written, even though its
    // reader sees EOF immediately.
    const int fd = connectTo(options.socketPath);
    constexpr int kRequests = 3;
    for (std::uint64_t i = 1; i <= kRequests; ++i) {
        writeFrame(fd, encodeExecuteRequest(makeRequest(i, smallConfig())));
    }
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

    std::set<std::uint64_t> ids;
    for (int i = 0; i < kRequests; ++i) {
        std::optional<std::string> payload = readFrame(fd);
        ASSERT_TRUE(payload.has_value())
            << "response " << i << " lost after client half-close";
        const Response response = decodeResponse(*payload);
        EXPECT_EQ(response.status, Status::Ok) << response.error;
        ids.insert(response.id);
    }
    EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRequests));
    EXPECT_FALSE(readFrame(fd).has_value())
        << "the daemon should close the drained connection cleanly";
    ::close(fd);
    server.stop();
}

TEST(ServeDaemon, ColdStampedePlansOnceAcrossConnections)
{
    ServerOptions options;
    options.socketPath = socketPathFor("stampede");
    options.cacheDir = "-";
    options.maxBatch = 1; // one group per request: max planner load
    options.executors = 4;
    Server server(options);
    server.start();

    // Eight connections fire one identical cold request each, as close
    // to simultaneously as threads allow.
    constexpr int kClients = 8;
    std::atomic<int> ready{0};
    std::vector<std::thread> clients;
    std::atomic<int> okResponses{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const int fd = connectTo(options.socketPath);
            const std::string payload = encodeExecuteRequest(
                makeRequest(static_cast<std::uint64_t>(c) + 1,
                            smallConfig()));
            ready.fetch_add(1);
            while (ready.load() < kClients) {
            }
            writeFrame(fd, payload);
            if (std::optional<std::string> response = readFrame(fd)) {
                if (decodeResponse(*response).status == Status::Ok) {
                    okResponses.fetch_add(1);
                }
            }
            ::close(fd);
        });
    }
    for (std::thread &t : clients) {
        t.join();
    }
    EXPECT_EQ(okResponses.load(), kClients);

    const int fd = connectTo(options.socketPath);
    writeFrame(fd, encodeStatsRequest(99));
    std::optional<std::string> payload = readFrame(fd);
    ASSERT_TRUE(payload.has_value());
    const std::string text = decodeResponse(*payload).statsText;
    EXPECT_EQ(statsValue(text, "plans-led"), "1")
        << "eight concurrent cold requests must plan exactly once:\n"
        << text;
    EXPECT_EQ(statsValue(text, "requests"), "8");
    ::close(fd);
    server.stop();
}

TEST(ServeDaemon, StatsTextHammeredUnderTraffic)
{
    // The stats path (statsText/stats/metricsJson) runs concurrently
    // with readers, executors, and planning flights. Every counter it
    // reads — including the gate's flightsLed/flightsJoined, which
    // used to be plain ints — must be an atomic, or TSan flags this
    // test. Hammer the snapshots from several threads while clients
    // drive real traffic.
    ServerOptions options;
    options.socketPath = socketPathFor("statshammer");
    options.cacheDir = "-";
    options.executors = 2;
    Server server(options);
    server.start();

    std::atomic<bool> stop{false};
    constexpr int kHammerThreads = 3;
    std::vector<std::thread> hammers;
    std::atomic<std::int64_t> snapshots{0};
    for (int t = 0; t < kHammerThreads; ++t) {
        hammers.emplace_back([&] {
            while (!stop.load()) {
                const std::string text = server.statsText();
                EXPECT_FALSE(statsValue(text, "stats-version").empty());
                (void)server.stats();
                (void)server.metricsJson();
                snapshots.fetch_add(1);
            }
        });
    }

    constexpr int kClients = 4;
    constexpr int kPerClient = 6;
    std::atomic<int> okResponses{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const int fd = connectTo(options.socketPath);
            for (int i = 0; i < kPerClient; ++i) {
                const auto id = static_cast<std::uint64_t>(
                    c * kPerClient + i + 1);
                writeFrame(fd,
                           encodeExecuteRequest(
                               makeRequest(id, smallConfig())));
                if (std::optional<std::string> response = readFrame(fd)) {
                    if (decodeResponse(*response).status == Status::Ok) {
                        okResponses.fetch_add(1);
                    }
                }
            }
            ::close(fd);
        });
    }
    for (std::thread &t : clients) {
        t.join();
    }
    stop.store(true);
    for (std::thread &t : hammers) {
        t.join();
    }
    EXPECT_EQ(okResponses.load(), kClients * kPerClient);
    EXPECT_GT(snapshots.load(), 0);

    const std::string text = server.statsText();
    EXPECT_EQ(statsValue(text, "requests"),
              std::to_string(kClients * kPerClient));
    server.stop();
}

TEST(ServeDaemon, StatsVersionTwoExposesLatencyHistogram)
{
    ServerOptions options;
    options.socketPath = socketPathFor("statsv2");
    options.cacheDir = "-";
    Server server(options);
    server.start();

    const int fd = connectTo(options.socketPath);
    constexpr int kRequests = 5;
    for (std::uint64_t i = 1; i <= kRequests; ++i) {
        writeFrame(fd, encodeExecuteRequest(makeRequest(i, smallConfig())));
        std::optional<std::string> payload = readFrame(fd);
        ASSERT_TRUE(payload.has_value());
        ASSERT_EQ(decodeResponse(*payload).status, Status::Ok);
    }

    writeFrame(fd, encodeStatsRequest(77));
    std::optional<std::string> payload = readFrame(fd);
    ASSERT_TRUE(payload.has_value());
    const std::string text = decodeResponse(*payload).statsText;
    ::close(fd);
    server.stop();

    EXPECT_EQ(statsValue(text, "stats-version"), "2");
    EXPECT_EQ(statsValue(text, "latency-count"),
              std::to_string(kRequests));
    // Every percentile key must be present and ordered: p50 <= p99 <=
    // max, all positive once requests have completed.
    const auto seconds = [&](const char *key) {
        const std::string value = statsValue(text, key);
        EXPECT_FALSE(value.empty()) << key << " missing from:\n" << text;
        return std::atof(value.c_str());
    };
    const double p50 = seconds("latency-p50-seconds");
    const double p90 = seconds("latency-p90-seconds");
    const double p99 = seconds("latency-p99-seconds");
    const double p999 = seconds("latency-p999-seconds");
    const double mean = seconds("latency-mean-seconds");
    const double max = seconds("latency-max-seconds");
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, p999);
    EXPECT_LE(p999, max * (1.0 + 1.0 / 32.0) + 1e-9);
    EXPECT_GT(mean, 0.0);
    EXPECT_LE(mean, max + 1e-9);

    // The batch-size histogram rides along, in raw slices.
    EXPECT_EQ(statsValue(text, "batch-slices-count"),
              std::to_string(kRequests));
    EXPECT_FALSE(statsValue(text, "batch-slices-p50").empty());
    EXPECT_FALSE(statsValue(text, "batch-slices-max").empty());

    // metricsJson merges the per-server registry with the global one:
    // the serve histogram and the planner counters share one document.
    const std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"chimera.serve.latency_seconds\""),
              std::string::npos);
    EXPECT_NE(json.find("\"chimera.serve.requests\": 5"),
              std::string::npos);
    EXPECT_NE(json.find("\"chimera.plan.planned\""), std::string::npos);
}

/** Polls @p done every millisecond for up to ten seconds. */
template <typename Done>
bool
eventually(Done done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline) {
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/** The cold request X that holds an executor: a class apart from
 * smallConfig's, so X never joins the queued group. */
ir::GemmChainConfig
holdingConfig()
{
    ir::GemmChainConfig cfg = smallConfig();
    cfg.n += 8;
    return cfg;
}

TEST(ServeDaemon, RequestsQueuedBehindABusyExecutorCoalesce)
{
    // Requests that queue while every executor is busy coalesce: the
    // one executor, once free, takes the four compatible requests as
    // one group, however far apart they arrived. A cold request X holds
    // the executor inside its disk lookup with a FIFO at X's entry.
    const std::filesystem::path root = scratchRoot("coalesce");
    ServerOptions options;
    options.socketPath = socketPathFor("coalesce");
    options.cacheDir = (root / "daemon").string();
    options.executors = 1;
    options.maxBatch = 4;
    const std::string entry =
        cacheEntryOf(holdingConfig(), (root / "probe").string());
    ASSERT_FALSE(entry.empty());
    std::filesystem::create_directories(options.cacheDir);
    Server server(options);
    FifoHold hold(options.cacheDir + "/" + entry);
    ASSERT_TRUE(hold.made()) << std::strerror(errno);
    server.start();

    const int fd = connectTo(options.socketPath);
    constexpr std::uint64_t kHeldId = 100;
    writeFrame(fd, encodeExecuteRequest(makeRequest(kHeldId, holdingConfig())));
    ASSERT_TRUE(hold.awaitReader()) << "the executor never reached X's entry";
    constexpr std::int64_t kQueued = 4;
    for (std::int64_t i = 1; i <= kQueued; ++i) {
        writeFrame(fd, encodeExecuteRequest(makeRequest(
                           static_cast<std::uint64_t>(i), smallConfig())));
        ASSERT_TRUE(eventually(
            [&] { return server.stats().requests == i + 1; }));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    hold.release();

    std::map<std::uint64_t, std::uint32_t> groupSize;
    for (std::int64_t i = 0; i <= kQueued; ++i) {
        std::optional<std::string> payload = readFrame(fd);
        ASSERT_TRUE(payload.has_value());
        const Response response = decodeResponse(*payload);
        ASSERT_EQ(response.status, Status::Ok) << response.error;
        groupSize[response.id] = response.execute.batchGroupSize;
    }
    EXPECT_EQ(groupSize[kHeldId], 1u);
    for (std::uint64_t id = 1; id <= kQueued; ++id) {
        EXPECT_EQ(groupSize[id], 4u)
            << "request " << id << " did not join the queued group";
    }
    ::close(fd);
    server.stop();
    std::filesystem::remove_all(root);
}

TEST(ServeDaemon, ClientGoneMidGroupLeavesTheRestServed)
{
    // Connections A and B share a group; A is gone by the time the
    // executor answers. The executor's write to A fails, B is still
    // answered exactly once, and B's connection keeps serving.
    const std::filesystem::path root = scratchRoot("client-gone");
    ServerOptions options;
    options.socketPath = socketPathFor("gone");
    options.cacheDir = (root / "daemon").string();
    options.executors = 1;
    options.maxBatch = 4;
    const std::string entry =
        cacheEntryOf(holdingConfig(), (root / "probe").string());
    ASSERT_FALSE(entry.empty());
    std::filesystem::create_directories(options.cacheDir);
    Server server(options);
    FifoHold hold(options.cacheDir + "/" + entry);
    ASSERT_TRUE(hold.made()) << std::strerror(errno);
    server.start();

    const int holder = connectTo(options.socketPath);
    writeFrame(holder, encodeExecuteRequest(makeRequest(100, holdingConfig())));
    ASSERT_TRUE(hold.awaitReader()) << "the executor never reached X's entry";
    const int a = connectTo(options.socketPath);
    const int b = connectTo(options.socketPath);
    writeFrame(a, encodeExecuteRequest(makeRequest(1, smallConfig())));
    ASSERT_TRUE(eventually([&] { return server.stats().requests == 2; }));
    writeFrame(b, encodeExecuteRequest(makeRequest(2, smallConfig())));
    ASSERT_TRUE(eventually([&] { return server.stats().requests == 3; }));
    ::close(a);
    hold.release();

    std::optional<std::string> payload = readFrame(holder);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(decodeResponse(*payload).status, Status::Ok);

    payload = readFrame(b);
    ASSERT_TRUE(payload.has_value());
    const Response response = decodeResponse(*payload);
    EXPECT_EQ(response.status, Status::Ok) << response.error;
    EXPECT_EQ(response.id, 2u);
    EXPECT_EQ(response.execute.batchGroupSize, 2u)
        << "A's and B's requests should have shared a group";

    // Exactly once: the next frame on B answers B's Stats request.
    writeFrame(b, encodeStatsRequest(3));
    payload = readFrame(b);
    ASSERT_TRUE(payload.has_value());
    const Response stats = decodeResponse(*payload);
    EXPECT_EQ(stats.type, MessageType::Stats);
    EXPECT_EQ(stats.id, 3u);
    EXPECT_EQ(statsValue(stats.statsText, "requests"), "3");
    ::close(b);
    ::close(holder);
    server.stop();
    std::filesystem::remove_all(root);
}

TEST(ServeDaemon, PlannerFailureAnswersEveryRequestOnce)
{
    ServerOptions options;
    options.socketPath = socketPathFor("planfail");
    options.cacheDir = "-";
    options.capacityBytes = 1.0; // nothing fits: every plan throws
    Server server(options);
    server.start();

    const int fd = connectTo(options.socketPath);
    constexpr std::int64_t kRequests = 3;
    for (std::uint64_t id = 1; id <= kRequests; ++id) {
        writeFrame(fd, encodeExecuteRequest(makeRequest(id, smallConfig())));
    }
    std::set<std::uint64_t> ids;
    for (std::int64_t i = 0; i < kRequests; ++i) {
        std::optional<std::string> payload = readFrame(fd);
        ASSERT_TRUE(payload.has_value());
        const Response response = decodeResponse(*payload);
        EXPECT_EQ(response.type, MessageType::Execute);
        EXPECT_EQ(response.status, Status::Error);
        EXPECT_FALSE(response.error.empty());
        ids.insert(response.id);
    }
    EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 2, 3}));

    // The counter moves once each write has returned.
    ASSERT_TRUE(eventually(
        [&] { return server.stats().responses >= kRequests; }));
    writeFrame(fd, encodeStatsRequest(9));
    std::optional<std::string> payload = readFrame(fd);
    ASSERT_TRUE(payload.has_value());
    const Response stats = decodeResponse(*payload);
    ASSERT_EQ(stats.type, MessageType::Stats)
        << "a request was answered more than once";
    EXPECT_EQ(statsValue(stats.statsText, "responses"), "3");
    ::close(fd);
    server.stop();
}

#endif // __unix__

} // namespace
} // namespace chimera::serve
