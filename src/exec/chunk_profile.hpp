#pragma once

/**
 * @file
 * Busy-time accounting for chunked dispatch: every chunk an executor
 * dispatches (exec/region_walk.hpp) adds its wall time here. Which
 * worker ran which chunk is in the `exec.chunk` trace events.
 */

#include <atomic>
#include <cstdint>

namespace chimera::exec {

/** Sums the busy time of every dispatch chunk it is attached to. */
class ChunkProfile
{
  public:
    /** @param workers Unused: the total sums every worker's chunks. */
    explicit ChunkProfile(int workers) { (void)workers; }

    /** Adds one chunk's busy time. Thread-safe. */
    void recordChunk(std::int64_t nanos) { nanos_ += nanos; }

    /** Total busy time across all chunks and workers, in seconds. */
    double totalBusySeconds() const
    {
        return 1e-9 * static_cast<double>(nanos_.load());
    }

  private:
    std::atomic<std::int64_t> nanos_{0};
};

} // namespace chimera::exec
