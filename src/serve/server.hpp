#pragma once

/**
 * @file
 * chimera-serve: the plan-and-serve daemon.
 *
 * A Unix-domain-socket server for chain-execution requests using the
 * length-prefixed protocol of serve/protocol.hpp. A request crosses two
 * threads:
 *
 *   accept loop ──► one reader per connection ──► admission queue
 *                                                      │ takeGroup
 *                                               executor threads
 *
 * Readers parse and validate frames and queue Execute requests. An idle
 * executor takes the first group of the queue (the front request plus
 * queued requests of its compatibility class, up to maxBatch slices),
 * plans it through the single-flight PlannerGate, runs it on the
 * compute engine and writes each member's response to its connection.
 * Admission is work-conserving: a request that finds an executor idle
 * runs at once, and requests coalesce along the b axis only when they
 * queue while every executor is busy. Responses go out as they finish,
 * out of order with respect to arrival, matched by request id. Readers
 * write their own error, stats and shutdown replies; every write to a
 * connection holds its writeMutex.
 *
 * A malformed payload inside a well-framed message gets an error
 * response (and bumps protocol-errors); an unframeable byte stream
 * (bad magic/length) closes the connection, since resynchronization is
 * impossible. A Shutdown request is acknowledged, then the daemon
 * drains: readers stop, executors run every queued request and write
 * its response, and only then do the sockets close.
 *
 * `runCheckReplay` is the socket-free deterministic core of
 * `chimera-serve --check`: it executes a request list twice — each
 * request alone, then coalesced through the same batcher the daemon
 * uses — verifies the outputs are bitwise identical, and digests the
 * batched responses so two runs (or two machines) can be compared.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/compute_engine.hpp"
#include "exec/exec_options.hpp"
#include "hw/machines.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "serve/planner_gate.hpp"
#include "serve/protocol.hpp"

namespace chimera::serve {

/** Daemon configuration (CLI flags map 1:1 onto these). */
struct ServerOptions
{
    /** Path to bind the Unix-domain listening socket at. */
    std::string socketPath;

    /** Executor threads (concurrent groups in flight). */
    int executors = 2;

    /** Worker threads per executed group (1 = serial execution). */
    int execThreads = 1;

    /** Max total slices per batch group (<= 1 serves every request
     * alone). */
    std::int64_t maxBatch = 8;

    /** On-chip capacity assumed when planning, bytes. */
    double capacityBytes = hw::kPlanningBudgetBytes;

    /** Plan-cache directory ("" = default, "-" = memory-only). */
    std::string cacheDir;

    /** Audit plans with the legality verifier before serving. */
    bool verifyPlans = false;
};

/** Monotonic daemon counters (snapshot; see also PlannerGateStats). */
struct ServerStats
{
    std::int64_t connections = 0; ///< accepted over the lifetime
    std::int64_t requests = 0; ///< well-formed Execute requests admitted
    std::int64_t responses = 0; ///< responses written (incl. errors)
    std::int64_t protocolErrors = 0; ///< malformed frames/payloads
    std::int64_t batches = 0; ///< executed groups
    std::int64_t batchedRequests = 0; ///< requests that shared a group
    std::int64_t maxBatchObserved = 0; ///< largest group, in slices
};

/** The daemon. start() spawns the thread set; stop() drains it. */
class Server
{
  public:
    explicit Server(const ServerOptions &options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Binds the socket and spawns all threads. Throws Error on bind
     * failure (e.g. the path exists and is not a stale socket). */
    void start();

    /** Blocks until a client sends Shutdown or stop() is called. */
    void wait();

    /**
     * Graceful drain in dependency order: accept loop, readers, then
     * executors, which run every queued request and write its
     * response; then sockets close and the socket file is unlinked.
     * Idempotent; called by the destructor.
     */
    void stop();

    /** True once a client has asked the daemon to shut down. */
    bool shutdownRequested() const { return shutdownRequested_.load(); }

    ServerStats stats() const;

    /**
     * The stats document served for MessageType::Stats: "key: value"
     * lines covering ServerStats, PlannerGateStats and the plan cache.
     * Keys are stable (tests and the loadgen parse them); additions are
     * versioned by the `stats-version` line (currently 2, which added
     * the `latency-*` / `batch-slices-*` histogram exposition).
     */
    std::string statsText() const;

    /**
     * JSON object over this server's metric registry (request-latency
     * and batch-size histograms, mirrored counters) merged with the
     * process-global registry (planner + plan-cache metrics). Written
     * by `chimera-serve --metrics-dump`.
     */
    std::string metricsJson() const;

    PlannerGate &gate() { return gate_; }

  private:
    struct Connection
    {
        std::uint64_t id = 0;
        int fd = -1; ///< -1 once closed; guarded by writeMutex
        std::mutex writeMutex; ///< serializes writes and the close
        std::atomic<bool> readerDone{false};
        /// Admitted Execute jobs whose response is not yet written (or
        /// dropped). Incremented at dispatch, decremented after the
        /// executor's write. A connection is reaped only once the
        /// reader is done AND this is zero, so a client that half-
        /// closes (shutdown(SHUT_WR)) and waits still gets every
        /// response to its in-flight requests.
        std::atomic<std::int64_t> inflightJobs{0};
        std::thread reader;
    };

    void acceptLoop();
    void readerLoop(const std::shared_ptr<Connection> &conn);
    void executorLoop();

    /** Handles one decoded request from @p conn's reader. */
    void dispatchRequest(const std::shared_ptr<Connection> &conn,
                         Request &&request);

    /** Writes one response frame to @p conn under its writeMutex; a
     * lost peer is shut down so its reader wakes. */
    void respond(Connection &conn, const std::string &payload,
                 std::uint64_t id);

    /** Joins finished, fully-drained readers and closes their sockets
     * (all = true closes unconditionally; used only after the
     * executors have exited). */
    void reapConnections(bool all);

    double nowSeconds() const;

    const ServerOptions options_;
    PlannerGate gate_;
    exec::ComputeEngine engine_;

    /// Per-instance registry (several servers can coexist in one test
    /// process without polluting each other's histograms); merged with
    /// the global registry by metricsJson(). Mutable because the const
    /// metricsJson() mirrors the plain-counter snapshots into gauges.
    mutable obs::Registry registry_;
    obs::Histogram &latencySeconds_;
    obs::Histogram &batchSlices_;

    int listenFd_ = -1;
    std::thread acceptThread_;
    std::vector<std::thread> executorThreads_;

    std::atomic<bool> running_{false};
    std::atomic<bool> shutdownRequested_{false};
    std::mutex shutdownMutex_;
    std::condition_variable shutdownCv_;

    mutable std::mutex connMutex_;
    std::map<std::uint64_t, std::shared_ptr<Connection>> connections_;
    std::uint64_t nextConnId_ = 1;

    std::mutex admissionMutex_;
    std::condition_variable admissionCv_;
    std::deque<ServeJob> admissionQueue_;
    bool admissionStop_ = false;

    std::atomic<std::int64_t> connectionsAccepted_{0};
    std::atomic<std::int64_t> requestsAdmitted_{0};
    std::atomic<std::int64_t> responsesWritten_{0};
    std::atomic<std::int64_t> protocolErrors_{0};
    std::atomic<std::int64_t> batchesExecuted_{0};
    std::atomic<std::int64_t> batchedRequests_{0};
    std::atomic<std::int64_t> maxBatchObserved_{0};
};

/** Outcome of the --check replay (see runCheckReplay). */
struct CheckResult
{
    std::int64_t requests = 0;
    std::int64_t groups = 0; ///< batch groups the coalesced pass formed
    bool identical = false; ///< batched outputs == individual outputs
    std::uint64_t digest = 0; ///< FNV-1a over batched response payloads
};

/**
 * Socket-free deterministic replay: executes @p requests each alone
 * (canonical plans), then coalesced via groupCompatible/executeGroup
 * with @p maxBatch, and compares outputs bitwise. Runs serially with a
 * memory-only plan cache, so the digest depends only on the request
 * list. Throws Error when a request is invalid or planning fails.
 */
CheckResult runCheckReplay(std::vector<ExecuteRequest> requests,
                           std::int64_t maxBatch,
                           double capacityBytes = hw::kPlanningBudgetBytes);

/**
 * The built-in --check workload: a deterministic mix of compatibility
 * classes, epilogues and batch counts with fillPattern inputs.
 */
std::vector<ExecuteRequest> builtinCheckWorkload();

} // namespace chimera::serve
