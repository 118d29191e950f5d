#pragma once

/**
 * @file
 * Machine ceilings measured in the same run as the layer numbers they
 * normalize: FMA throughput (kernels.peak_frac, the Eq.-3 compute stage)
 * and streaming DRAM bandwidth (the Eq.-3 memory stage).
 */

namespace perfbench {

/** Independent-FMA-chain throughput of @p threads threads, GFLOP/s. */
double measureFmaGflops(int threads);

/** Streaming bandwidth of a threaded in-place scale over one array. */
struct StreamResult
{
    double gbPerSecond = 0.0;
    double llcMb = 0.0; ///< last-level cache size the array is sized by
    double arrayMb = 0.0; ///< 4 x LLC, capped at kMaxStreamArrayMb
};

/** Arrays are capped so a huge (VM-reported) LLC cannot exhaust RAM. */
inline constexpr double kMaxStreamArrayMb = 1024.0;

StreamResult measureStreamBandwidth(int threads);

/**
 * GFLOP/s of the host micro kernel on packed, L1-resident panels of
 * reduction depth @p kc, one thread.
 */
double measureMicroKernelGflops(int kc);

} // namespace perfbench
