#include "exec/gemm_chain_exec.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "exec/chunk_profile.hpp"
#include "exec/region_schedule.hpp"
#include "ir/builders.hpp"
#include "kernels/exp_row.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "tensor/reference.hpp"

namespace chimera::exec {

using ir::Epilogue;
using ir::GemmChainConfig;

namespace {

std::int64_t
tileOf(const ir::Chain &chain, const plan::ExecutionPlan &plan,
       const std::string &name, std::int64_t fallback)
{
    for (int a = 0; a < chain.numAxes(); ++a) {
        if (chain.axes()[static_cast<std::size_t>(a)].name == name) {
            return plan.tiles[static_cast<std::size_t>(a)];
        }
    }
    return fallback;
}

void
checkShape(const Tensor &t, const std::vector<std::int64_t> &expected,
           const char *what)
{
    CHIMERA_CHECK(t.shape() == expected,
                  std::string("unexpected shape for ") + what + ": got " +
                      t.shapeString());
}

/**
 * Region loops of the fused gemm-chain walk — the b/m/l blocks the plan
 * decomposed the chain into, in plan order, each carrying its AxisId so
 * the concurrency table can bless or refuse it. A unit batch loop is
 * synthesized (axis -1, trivially parallel) when the chain has no b axis.
 */
std::vector<RegionLoop>
gemmRegionLoops(const ir::Chain &chain, const GemmChainConfig &config,
                const plan::ExecutionPlan &plan)
{
    const std::int64_t tb = tileOf(chain, plan, "b", 1);
    const std::int64_t tm = tileOf(chain, plan, "m", config.m);
    const std::int64_t tl = tileOf(chain, plan, "l", config.l);
    std::vector<RegionLoop> loops;
    for (ir::AxisId axis : plan.perm) {
        const std::string &name =
            chain.axes()[static_cast<std::size_t>(axis)].name;
        if (name == "b") {
            loops.push_back(RegionLoop{'b', config.batch, tb, axis});
        } else if (name == "m") {
            loops.push_back(RegionLoop{'m', config.m, tm, axis});
        } else if (name == "l") {
            loops.push_back(RegionLoop{'l', config.l, tl, axis});
        }
    }
    if (config.batch == 1) {
        loops.insert(loops.begin(), RegionLoop{'b', 1, 1, -1});
    }
    CHIMERA_ASSERT(loops.size() == 3, "missing region loop");
    return loops;
}

/** Sets future positions of the scores tensor to -inf before softmax. */
void
applyCausalMask(Tensor &scores, const GemmChainConfig &config)
{
    const std::int64_t rows = config.m;
    const std::int64_t cols = config.l;
    float *p = scores.data();
    for (std::int64_t b = 0; b < config.batch; ++b) {
        for (std::int64_t r = 0; r < rows; ++r) {
            float *row = p + (b * rows + r) * cols;
            for (std::int64_t j = r + 1; j < cols; ++j) {
                row[j] = -std::numeric_limits<float>::infinity();
            }
        }
    }
}

} // namespace

std::vector<std::int64_t>
gemmChainShapeA(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.m, c.k}
                       : std::vector<std::int64_t>{c.m, c.k};
}

std::vector<std::int64_t>
gemmChainShapeB(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.k, c.l}
                       : std::vector<std::int64_t>{c.k, c.l};
}

std::vector<std::int64_t>
gemmChainShapeD(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.l, c.n}
                       : std::vector<std::int64_t>{c.l, c.n};
}

std::vector<std::int64_t>
gemmChainShapeE(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.m, c.n}
                       : std::vector<std::int64_t>{c.m, c.n};
}

std::vector<std::int64_t>
gemmChainShapeC(const GemmChainConfig &c)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, c.m, c.l}
                       : std::vector<std::int64_t>{c.m, c.l};
}

void
runFusedGemmChain(const GemmChainConfig &config,
                  const plan::ExecutionPlan &plan,
                  const ComputeEngine &engine, const Tensor &a,
                  const Tensor &b, const Tensor &d, Tensor &e,
                  const ExecOptions &options)
{
    checkShape(a, gemmChainShapeA(config), "A");
    checkShape(b, gemmChainShapeB(config), "B");
    checkShape(d, gemmChainShapeD(config), "D");
    checkShape(e, gemmChainShapeE(config), "E");

    // Recover per-axis tiles by name from the plan (the chain that
    // produced the plan must match the config).
    const ir::Chain chain = ir::makeGemmChain(config);
    CHIMERA_CHECK(static_cast<int>(plan.tiles.size()) == chain.numAxes(),
                  "plan does not match the chain configuration");
    const std::int64_t tb = tileOf(chain, plan, "b", 1);
    const std::int64_t tm = tileOf(chain, plan, "m", config.m);
    const std::int64_t tn = tileOf(chain, plan, "n", config.n);
    const std::int64_t tk = tileOf(chain, plan, "k", config.k);
    const std::int64_t tl = tileOf(chain, plan, "l", config.l);

    const std::int64_t bigM = config.m;
    const std::int64_t bigN = config.n;
    const std::int64_t bigK = config.k;
    const std::int64_t bigL = config.l;

    // Split the region loops into the parallel task space and the serial
    // nest by the plan's concurrency table (dependence analysis output —
    // this executor holds no axis-level opinion of its own). Under a
    // sound table b/m are parallel (distinct blocks write disjoint E
    // rows and softmax row sums) while l — which accumulates into E via
    // GEMM2 and into rowSum — stays serial ascending inside each task,
    // so the per-element accumulation order and the output bits match
    // the serial executor at every thread count.
    const RegionSchedule sched =
        partitionRegionLoops(gemmRegionLoops(chain, config, plan),
                             plan::effectiveConcurrency(chain, plan),
                             plan.parallelGrain);

    ThreadPool *pool = execPool(options);
    const int workers = execWorkerCount(pool);
    ChunkProfile *profile = options.profile;

    analysis::RaceChecker *race = options.raceCheck;
    if (race != nullptr) {
        CHIMERA_CHECK(race->numElements() == e.numel(),
                      "race checker must be sized to the E output");
        race->beginPhase(chain.name() + " fused blocks");
    }

    // On-chip region buffer for C (one per worker) and the softmax
    // row-sum side buffer (shared; blocks write disjoint rows).
    std::vector<AlignedBuffer<float>> cRegions;
    cRegions.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        cRegions.push_back(allocateAligned<float>(
            static_cast<std::size_t>(tb * tm * tl)));
    }
    std::vector<float> rowSum;
    if (config.epilogue == Epilogue::Softmax) {
        rowSum.assign(static_cast<std::size_t>(config.batch * bigM), 0.0f);
    }
    e.zero();

    const std::int64_t perBatchA = bigM * bigK;
    const std::int64_t perBatchB = bigK * bigL;
    const std::int64_t perBatchD = bigL * bigN;
    const std::int64_t perBatchE = bigM * bigN;

    // Dispatch over chunks (grain consecutive blocks per worker task);
    // each covered block executes exactly as it would at grain 1, so
    // outputs — and race-checker task ids — are grain-invariant.
    const std::int64_t chunks = sched.chunkCount();
    if (profile != nullptr) {
        profile->beginPhase(chunks);
    }
    // One clock (obs::nowNanos) feeds both the ChunkProfile critical
    // path and the trace spans, so their timelines agree exactly.
    obs::TraceRecorder *const tracer = obs::trace();
    obs::Span execSpan(tracer, "exec.gemm_chain", "exec");
    execSpan.arg("chunks", chunks).arg("workers", workers);
    parallelFor(pool, 0, chunks, [&](std::int64_t chunk, int worker) {
        const std::int64_t chunkStart = obs::nowNanos();
        std::int64_t taskLo = -1;
        std::int64_t taskHi = -1;
        float *cBase = cRegions[static_cast<std::size_t>(worker)].get();
        sched.forEachTaskInChunk(chunk, [&](std::int64_t task) {
        if (taskLo < 0) {
            taskLo = task;
        }
        taskHi = task;
        const std::vector<BlockRange> parBlocks =
            decodeBlocks(sched.parallel, task);

        const std::int64_t steps = sched.serialSteps();
        for (std::int64_t s = 0; s < steps; ++s) {
            const std::vector<BlockRange> serBlocks =
                decodeBlocks(sched.serial, s);
            const BlockRange bBlk =
                findBlock(parBlocks, serBlocks, 'b', config.batch);
            const BlockRange mBlk =
                findBlock(parBlocks, serBlocks, 'm', bigM);
            const BlockRange lBlk =
                findBlock(parBlocks, serBlocks, 'l', bigL);
            const std::int64_t b0 = bBlk.start, bb = bBlk.size;
            const std::int64_t m0 = mBlk.start, mm = mBlk.size;
            const std::int64_t l0 = lBlk.start, ll = lBlk.size;

            // Shadow-memory claim: this task owns the E rows the block
            // writes; two tasks claiming a row is a detected race.
            if (race != nullptr) {
                for (std::int64_t bi = 0; bi < bb; ++bi) {
                    race->claimRange(task,
                                     ((b0 + bi) * bigM + m0) * bigN,
                                     ((b0 + bi) * bigM + m0 + mm) * bigN);
                }
            }
            std::memset(cBase, 0,
                        static_cast<std::size_t>(bb * mm * ll) *
                            sizeof(float));

            // GEMM1: accumulate all k blocks into the region.
            for (std::int64_t k0 = 0; k0 < bigK; k0 += tk) {
                const std::int64_t kk =
                    std::min<std::int64_t>(tk, bigK - k0);
                for (std::int64_t bi = 0; bi < bb; ++bi) {
                    const float *aBlk = a.data() +
                                        (b0 + bi) * perBatchA +
                                        m0 * bigK + k0;
                    const float *bBlk = b.data() +
                                        (b0 + bi) * perBatchB +
                                        k0 * bigL + l0;
                    engine.matmul(aBlk, bigK, bBlk, bigL,
                                  cBase + bi * mm * ll, ll, mm, ll, kk);
                }
            }

            // Fused epilogue on the on-chip region.
            if (config.epilogue == Epilogue::Relu) {
                for (std::int64_t i = 0; i < bb * mm * ll; ++i) {
                    cBase[i] = std::max(cBase[i], 0.0f);
                }
            } else if (config.epilogue == Epilogue::Softmax) {
                // exp now; sum rides along; division deferred (§VI-B).
                // Causal masking zeroes future positions (global
                // column l0+j beyond global row m0+r) on chip, so
                // the deferred normalization stays exact.
                for (std::int64_t bi = 0; bi < bb; ++bi) {
                    for (std::int64_t r = 0; r < mm; ++r) {
                        float *row = cBase + (bi * mm + r) * ll;
                        const std::int64_t valid =
                            config.causalMask
                                ? std::clamp<std::int64_t>(
                                      m0 + r - l0 + 1, 0, ll)
                                : ll;
                        rowSum[static_cast<std::size_t>(
                            (b0 + bi) * bigM + m0 + r)] +=
                            kernels::expRowSum(row, valid,
                                               config.softmaxScale);
                        std::fill(row + valid, row + ll, 0.0f);
                    }
                }
            }

            // GEMM2: consume the region across all n blocks.
            for (std::int64_t n0 = 0; n0 < bigN; n0 += tn) {
                const std::int64_t nn =
                    std::min<std::int64_t>(tn, bigN - n0);
                for (std::int64_t bi = 0; bi < bb; ++bi) {
                    const float *dBlk = d.data() +
                                        (b0 + bi) * perBatchD +
                                        l0 * bigN + n0;
                    float *eBlk = e.data() + (b0 + bi) * perBatchE +
                                  m0 * bigN + n0;
                    engine.matmul(cBase + bi * mm * ll, ll, dBlk, bigN,
                                  eBlk, bigN, mm, nn, ll);
                }
            }
        }
        });
        const std::int64_t chunkNanos = obs::nowNanos() - chunkStart;
        if (profile != nullptr) {
            profile->recordChunk(
                chunk, static_cast<double>(chunkNanos) * 1e-9);
        }
        if (tracer != nullptr) {
            tracer->complete("exec.chunk", "exec", chunkStart, chunkNanos,
                             {{"chunk", chunk},
                              {"worker", static_cast<std::int64_t>(worker)},
                              {"task_lo", taskLo},
                              {"task_hi", taskHi}});
        }
    });

    // Deferred softmax division over the finished output; rows are
    // independent, so they split freely across workers. One span for
    // the whole phase — per-row events would swamp the trace.
    if (config.epilogue == Epilogue::Softmax) {
        if (race != nullptr) {
            race->beginPhase(chain.name() + " softmax normalize");
        }
        const std::int64_t rows = config.batch * bigM;
        obs::Span normSpan(tracer, "exec.softmax_norm", "exec");
        normSpan.arg("rows", rows);
        if (profile != nullptr) {
            profile->beginPhase(rows);
        }
        parallelFor(pool, 0, rows,
                    [&](std::int64_t row, int) {
                        const std::int64_t rowStart =
                            profile != nullptr ? obs::nowNanos() : 0;
                        if (race != nullptr) {
                            race->claimRange(row, row * bigN,
                                             (row + 1) * bigN);
                        }
                        const float inv =
                            1.0f / rowSum[static_cast<std::size_t>(row)];
                        float *p = e.data() + row * bigN;
                        for (std::int64_t j = 0; j < bigN; ++j) {
                            p[j] *= inv;
                        }
                        if (profile != nullptr) {
                            profile->recordChunk(
                                row,
                                static_cast<double>(obs::nowNanos() -
                                                    rowStart) *
                                    1e-9);
                        }
                    });
    }
}

std::vector<std::string>
fusedGemmChainParallelAxes(const GemmChainConfig &config,
                           const plan::ExecutionPlan &plan)
{
    const ir::Chain chain = ir::makeGemmChain(config);
    CHIMERA_CHECK(static_cast<int>(plan.tiles.size()) == chain.numAxes(),
                  "plan does not match the chain configuration");
    const RegionSchedule sched =
        partitionRegionLoops(gemmRegionLoops(chain, config, plan),
                             plan::effectiveConcurrency(chain, plan));
    std::vector<std::string> names;
    for (const RegionLoop &loop : sched.parallel) {
        if (loop.axis >= 0) {
            names.push_back(
                chain.axes()[static_cast<std::size_t>(loop.axis)].name);
        }
    }
    return names;
}

void
runTiledBatchGemm(const ComputeEngine &engine, const Tensor &a,
                  const Tensor &b, Tensor &c, const GemmTiles &tiles,
                  const ExecOptions &options)
{
    const bool batched = a.rank() == 3;
    CHIMERA_CHECK(a.rank() == b.rank() && a.rank() == c.rank() &&
                      (a.rank() == 2 || a.rank() == 3),
                  "tiled GEMM expects rank 2 or 3 tensors");
    const std::int64_t batch = batched ? a.shape()[0] : 1;
    const std::int64_t m = a.shape()[batched ? 1 : 0];
    const std::int64_t k = a.shape()[batched ? 2 : 1];
    const std::int64_t n = b.shape()[batched ? 2 : 1];
    CHIMERA_CHECK(b.shape()[batched ? 1 : 0] == k &&
                      c.shape()[batched ? 1 : 0] == m &&
                      c.shape()[batched ? 2 : 1] == n,
                  "tiled GEMM shape mismatch");

    c.zero();
    analysis::RaceChecker *race = options.raceCheck;
    if (race != nullptr) {
        CHIMERA_CHECK(race->numElements() == c.numel(),
                      "race checker must be sized to the GEMM output");
        race->beginPhase("tiled batch gemm");
    }
    // (batch, m-tile) blocks own disjoint C rows; the k loop accumulates
    // and stays serial ascending inside each block (bitwise-reproducible
    // across thread counts).
    const std::int64_t mTiles = ceilDiv(m, tiles.tm);
    const std::int64_t tasks = batch * mTiles;
    ChunkProfile *profile = options.profile;
    if (profile != nullptr) {
        profile->beginPhase(tasks);
    }
    obs::TraceRecorder *const tracer = obs::trace();
    obs::Span execSpan(tracer, "exec.tiled_gemm", "exec");
    execSpan.arg("tasks", tasks);
    parallelFor(execPool(options), 0, tasks,
                [&](std::int64_t task, int worker) {
        const std::int64_t taskStart = obs::nowNanos();
        const std::int64_t bi = task / mTiles;
        const std::int64_t m0 = (task % mTiles) * tiles.tm;
        const float *aBase = a.data() + bi * m * k;
        const float *bBase = b.data() + bi * k * n;
        float *cBase = c.data() + bi * m * n;
        const std::int64_t mm = std::min<std::int64_t>(tiles.tm, m - m0);
        if (race != nullptr) {
            race->claimRange(task, bi * m * n + m0 * n,
                             bi * m * n + (m0 + mm) * n);
        }
        for (std::int64_t k0 = 0; k0 < k; k0 += tiles.tk) {
            const std::int64_t kk =
                std::min<std::int64_t>(tiles.tk, k - k0);
            for (std::int64_t n0 = 0; n0 < n; n0 += tiles.tn) {
                const std::int64_t nn =
                    std::min<std::int64_t>(tiles.tn, n - n0);
                engine.matmul(aBase + m0 * k + k0, k,
                              bBase + k0 * n + n0, n,
                              cBase + m0 * n + n0, n, mm, nn, kk);
            }
        }
        const std::int64_t taskNanos = obs::nowNanos() - taskStart;
        if (profile != nullptr) {
            profile->recordChunk(
                task, static_cast<double>(taskNanos) * 1e-9);
        }
        if (tracer != nullptr) {
            tracer->complete("exec.chunk", "exec", taskStart, taskNanos,
                             {{"chunk", task},
                              {"worker",
                               static_cast<std::int64_t>(worker)}});
        }
    });
}

void
runUnfusedGemmChain(const GemmChainConfig &config,
                    const ComputeEngine &engine, const Tensor &a,
                    const Tensor &b, const Tensor &d, Tensor &scratchC,
                    Tensor &e, const GemmTiles &tiles1,
                    const GemmTiles &tiles2, const ExecOptions &options)
{
    checkShape(scratchC, gemmChainShapeC(config), "C scratch");
    // A race checker passed here is sized to the final E output; the
    // first GEMM writes the differently-shaped scratch, so it runs
    // unchecked.
    ExecOptions firstOptions = options;
    firstOptions.raceCheck = nullptr;
    runTiledBatchGemm(engine, a, b, scratchC, tiles1, firstOptions);
    if (config.epilogue == Epilogue::Relu) {
        ref::reluInPlace(scratchC);
    } else if (config.epilogue == Epilogue::Softmax) {
        float *p = scratchC.data();
        for (std::int64_t i = 0; i < scratchC.numel(); ++i) {
            p[i] *= config.softmaxScale;
        }
        if (config.causalMask) {
            applyCausalMask(scratchC, config);
        }
        kernels::softmaxRows(scratchC.data(),
                             scratchC.numel() / config.l, config.l);
    }
    runTiledBatchGemm(engine, scratchC, d, e, tiles2, options);
}

void
referenceGemmChain(const GemmChainConfig &config, const Tensor &a,
                   const Tensor &b, const Tensor &d, Tensor &e)
{
    Tensor c(gemmChainShapeC(config));
    if (config.batch > 1) {
        ref::batchGemm(a, b, c);
    } else {
        ref::gemm(a, b, c);
    }
    if (config.epilogue == Epilogue::Relu) {
        ref::reluInPlace(c);
    } else if (config.epilogue == Epilogue::Softmax) {
        float *p = c.data();
        for (std::int64_t i = 0; i < c.numel(); ++i) {
            p[i] *= config.softmaxScale;
        }
        if (config.causalMask) {
            applyCausalMask(c, config);
        }
        ref::softmaxLastDim(c);
    }
    if (config.batch > 1) {
        ref::batchGemm(c, d, e);
    } else {
        ref::gemm(c, d, e);
    }
}

} // namespace chimera::exec
