#pragma once

/**
 * @file
 * Persistent worker-thread pool whose parallelFor deals out indices
 * from one shared cursor.
 *
 * The executors and the inter-block planner only parallelize loops whose
 * iterations are fully independent (disjoint output regions, candidate
 * permutations), so the pool stays deliberately simple: every worker,
 * the calling thread included (as worker 0), claims the next unclaimed
 * index of [begin, end) until none is left. A worker slowed by a
 * contended CPU therefore runs fewer indices instead of holding up the
 * whole call. Every index runs, even after one throws; once all have
 * finished, the exception of the lowest failing index is rethrown to
 * the caller, whichever worker ran it.
 *
 * Thread-count policy, in decreasing precedence:
 *  1. an explicit count handed to the constructor / withSize(),
 *  2. the CHIMERA_THREADS environment variable,
 *  3. std::thread::hardware_concurrency().
 * A resolved count of 1 degenerates to plain serial execution on the
 * calling thread (no worker threads are spawned; the first exception,
 * which is then also the lowest failing index, propagates directly).
 */

#include <cstdint>
#include <functional>
#include <memory>

namespace chimera {

/** Hardware thread count; at least 1 even when detection fails. */
int hardwareThreadCount();

/**
 * Threads to use when no explicit count is given: CHIMERA_THREADS when
 * set to a positive integer, otherwise hardwareThreadCount().
 */
int defaultThreadCount();

/** Resolves a requested count: >= 1 is exact, <= 0 defers to
 * defaultThreadCount(). Clamped to a sane upper bound. */
int resolveThreadCount(int requested);

/** Fixed-size pool of persistent worker threads. */
class ThreadPool
{
  public:
    /** @param threads >= 1 exact size; <= 0 uses defaultThreadCount(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of workers, including the calling thread. */
    int size() const;

    /**
     * Calls fn(i, worker) exactly once for every i in [begin, end):
     * each worker (the calling thread is worker 0) claims the next
     * unclaimed index, in ascending order, until the range is
     * exhausted. Blocks until every index finished, then rethrows the
     * exception of the lowest index that threw. Nested calls from
     * inside a running index execute serially on the calling worker.
     */
    void parallelFor(std::int64_t begin, std::int64_t end,
                     const std::function<void(std::int64_t, int)> &fn);

    /**
     * Process-wide pool of the resolved size (one persistent pool per
     * distinct size; created lazily and kept for the process lifetime).
     */
    static ThreadPool &withSize(int threads);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Pool for a requested executor/planner thread count: nullptr when the
 * resolved count is 1 (serial), else the shared pool of that size.
 */
ThreadPool *poolForThreads(int threads);

/**
 * parallelFor that tolerates a null pool: runs the loop serially as
 * worker 0 when @p pool is nullptr, else forwards to the pool.
 */
void parallelFor(ThreadPool *pool, std::int64_t begin, std::int64_t end,
                 const std::function<void(std::int64_t, int)> &fn);

/** One part of a contiguous split of an index space. */
struct ChunkRange
{
    std::int64_t begin = 0;
    std::int64_t end = 0; ///< empty when begin == end
};

/**
 * The [begin, end) sub-range of @p total items that part @p worker of a
 * contiguous split into @p workers parts covers. The first
 * (total % workers) parts hold one extra item. Used to cut a row range
 * into one dispatch index per worker.
 */
ChunkRange staticChunkRange(std::int64_t total, int workers, int worker);

} // namespace chimera
