#include "ceilings.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common.hpp"
#include "kernels/micro_kernel.hpp"
#include "support/aligned.hpp"
#include "support/cpu_features.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace chimera;

#if defined(__AVX512F__)
using Vec = __m512;
constexpr int kLanes = 16;
inline Vec splat(float x) { return _mm512_set1_ps(x); }
inline Vec fma(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }
inline float lane0(Vec v) { return _mm512_cvtss_f32(v); }
#elif defined(__AVX2__) && defined(__FMA__)
using Vec = __m256;
constexpr int kLanes = 8;
inline Vec splat(float x) { return _mm256_set1_ps(x); }
inline Vec fma(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
inline float lane0(Vec v) { return _mm256_cvtss_f32(v); }
#else
using Vec = float;
constexpr int kLanes = 1;
inline Vec splat(float x) { return x; }
inline Vec fma(Vec a, Vec b, Vec c) { return std::fma(a, b, c); }
inline float lane0(Vec v) { return v; }
#endif

/** Enough independent chains to cover FMA latency x issue width. */
constexpr int kChains = 12;
constexpr int kBestOf = 3;

volatile float gSink = 0.0f;

float
fmaChains(std::int64_t iterations)
{
    Vec acc[kChains];
    for (int c = 0; c < kChains; ++c) {
        acc[c] = splat(1.0f + 0.001f * static_cast<float>(c));
    }
    const Vec mul = splat(0.999999f);
    const Vec add = splat(1e-6f);
    for (std::int64_t i = 0; i < iterations; ++i) {
        for (int c = 0; c < kChains; ++c) {
            acc[c] = fma(acc[c], mul, add);
        }
    }
    float sum = 0.0f;
    for (int c = 0; c < kChains; ++c) {
        sum += lane0(acc[c]);
    }
    return sum;
}

/** Iterations for one ~0.1 s pass of fmaChains on one thread. */
std::int64_t
calibrateFmaIterations()
{
    std::int64_t iterations = 1 << 16;
    while (true) {
        const double start = nowSeconds();
        gSink = gSink + fmaChains(iterations);
        const double seconds = nowSeconds() - start;
        if (seconds > 0.02) {
            return std::max<std::int64_t>(
                1, static_cast<std::int64_t>(iterations * 0.1 / seconds));
        }
        iterations *= 4;
    }
}

double
llcBytes()
{
    double best = 32.0 * 1024 * 1024;
    int bestLevel = 0;
    for (int index = 0; index < 8; ++index) {
        const std::string base = "/sys/devices/system/cpu/cpu0/cache/index" +
                                 std::to_string(index) + "/";
        std::ifstream levelFile(base + "level");
        std::ifstream sizeFile(base + "size");
        int level = 0;
        std::string size;
        if (!(levelFile >> level) || !(sizeFile >> size) || size.empty()) {
            continue;
        }
        double bytes = std::atof(size.c_str());
        if (size.back() == 'K') {
            bytes *= 1024;
        } else if (size.back() == 'M') {
            bytes *= 1024 * 1024;
        }
        if (level > bestLevel && bytes > 0) {
            bestLevel = level;
            best = bytes;
        }
    }
    return best;
}

} // namespace

double
measureFmaGflops(int threads)
{
    const std::int64_t iterations = calibrateFmaIterations();
    ThreadPool &pool = ThreadPool::withSize(threads);
    double best = 0.0;
    for (int rep = 0; rep < kBestOf; ++rep) {
        const double start = nowSeconds();
        pool.parallelFor(0, threads, [&](std::int64_t, int) {
            gSink = gSink + fmaChains(iterations);
        });
        const double seconds = nowSeconds() - start;
        const double flops = 2.0 * kChains * kLanes *
                             static_cast<double>(iterations) * threads;
        best = std::max(best, flops / seconds / 1e9);
    }
    return best;
}

StreamResult
measureStreamBandwidth(int threads)
{
    StreamResult result;
    result.llcMb = llcBytes() / (1024.0 * 1024.0);
    result.arrayMb = std::min(4.0 * result.llcMb, kMaxStreamArrayMb);
    const auto count = static_cast<std::int64_t>(result.arrayMb * 1024 *
                                                 1024 / sizeof(float));
    AlignedBuffer<float> data =
        allocateAligned<float>(static_cast<std::size_t>(count));
    ThreadPool &pool = ThreadPool::withSize(threads);
    // Each worker touches (first-touch) and later streams its own range.
    const auto pass = [&](float scale) {
        pool.parallelFor(0, threads, [&](std::int64_t w, int) {
            const ChunkRange range =
                staticChunkRange(count, threads, static_cast<int>(w));
            float *p = data.get();
            for (std::int64_t i = range.begin; i < range.end; ++i) {
                p[i] = p[i] * scale;
            }
        });
    };
    pool.parallelFor(0, threads, [&](std::int64_t w, int) {
        const ChunkRange range =
            staticChunkRange(count, threads, static_cast<int>(w));
        std::fill(data.get() + range.begin, data.get() + range.end, 1.0f);
    });
    double best = 0.0;
    for (int rep = 0; rep < kBestOf; ++rep) {
        const double start = nowSeconds();
        pass(rep % 2 == 0 ? 0.5f : 2.0f);
        const double seconds = nowSeconds() - start;
        // One read and one write of every element.
        best = std::max(best, 2.0 * static_cast<double>(count) *
                                  sizeof(float) / seconds / 1e9);
    }
    gSink = gSink + data[static_cast<std::size_t>(count / 2)];
    result.gbPerSecond = best;
    return result;
}

double
measureMicroKernelGflops(int kc)
{
    const kernels::MicroKernel &kernel =
        kernels::MicroKernelRegistry::instance().select(detectSimdTier());
    std::vector<float> aPack(static_cast<std::size_t>(kc * kernel.mr));
    std::vector<float> bPack(static_cast<std::size_t>(kc * kernel.nr));
    std::vector<float> c(static_cast<std::size_t>(kernel.mr * kernel.nr),
                         0.0f);
    Rng rng(7);
    for (float &v : aPack) {
        v = rng.uniform(-1.0f, 1.0f);
    }
    for (float &v : bPack) {
        v = rng.uniform(-1.0f, 1.0f);
    }
    const double flopsPerCall = 2.0 * kernel.mr * kernel.nr * kc;
    std::int64_t calls = 1024;
    double best = 0.0;
    for (int rep = 0; rep < kBestOf + 1; ++rep) {
        const double start = nowSeconds();
        for (std::int64_t i = 0; i < calls; ++i) {
            kernel.fn(aPack.data(), bPack.data(), c.data(), kernel.nr, kc);
        }
        const double seconds = nowSeconds() - start;
        if (rep == 0) {
            // Calibration pass: size the timed passes to ~0.1 s each.
            calls = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(calls * 0.1 / seconds));
            continue;
        }
        best = std::max(best, flopsPerCall * calls / seconds / 1e9);
    }
    gSink = gSink + c[0];
    return best;
}

} // namespace perfbench
