#include "exec/gemm_chain3_exec.hpp"

#include <algorithm>
#include <cstring>

#include "exec/chunk_profile.hpp"
#include "exec/constraints.hpp"
#include "exec/region_schedule.hpp"
#include "kernels/exp_row.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"
#include "tensor/reference.hpp"

namespace chimera::exec {

using ir::Epilogue;
using ir::GemmChain3Config;

namespace {

std::vector<std::int64_t>
shapeOf(const GemmChain3Config &c, std::int64_t rows, std::int64_t cols)
{
    return c.batch > 1 ? std::vector<std::int64_t>{c.batch, rows, cols}
                       : std::vector<std::int64_t>{rows, cols};
}

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

/**
 * Region loops of the three-GEMM walk: only b and m reach the region
 * level (l/k are reduction loops inside a region, p is pinned to its
 * full extent, n is consumed innermost). A unit batch loop (axis -1) is
 * synthesized when batch == 1.
 */
std::vector<RegionLoop>
chain3RegionLoops(const ir::Chain &chain, const GemmChain3Config &config,
                  const plan::ExecutionPlan &plan)
{
    const std::int64_t tb = tileOf(chain, plan, "b", 1);
    const std::int64_t tm = tileOf(chain, plan, "m", config.m);
    std::vector<RegionLoop> loops;
    for (ir::AxisId axis : plan.perm) {
        const std::string &name =
            chain.axes()[static_cast<std::size_t>(axis)].name;
        if (name == "b") {
            loops.push_back(RegionLoop{'b', config.batch, tb, axis});
        } else if (name == "m") {
            loops.push_back(RegionLoop{'m', config.m, tm, axis});
        }
    }
    if (config.batch == 1) {
        loops.insert(loops.begin(), RegionLoop{'b', 1, 1, -1});
    }
    CHIMERA_ASSERT(loops.size() == 2, "missing 3-chain region loop");
    return loops;
}

} // namespace

std::vector<std::int64_t>
gemmChain3ShapeA(const GemmChain3Config &c)
{
    return shapeOf(c, c.m, c.k);
}

std::vector<std::int64_t>
gemmChain3ShapeB(const GemmChain3Config &c)
{
    return shapeOf(c, c.k, c.l);
}

std::vector<std::int64_t>
gemmChain3ShapeD(const GemmChain3Config &c)
{
    return shapeOf(c, c.l, c.p);
}

std::vector<std::int64_t>
gemmChain3ShapeF(const GemmChain3Config &c)
{
    return shapeOf(c, c.p, c.n);
}

std::vector<std::int64_t>
gemmChain3ShapeE(const GemmChain3Config &c)
{
    return shapeOf(c, c.m, c.n);
}

solver::TileConstraints
gemmChain3Constraints(const ir::Chain &chain,
                      const kernels::MicroKernel &kernel)
{
    solver::TileConstraints constraints =
        cpuChainConstraints(chain, kernel);
    const ir::AxisId p = ir::axisIdByName(chain, "p");
    constraints.minTile.erase(p);
    constraints.multipleOf.erase(p);
    constraints.fixed[p] =
        chain.axes()[static_cast<std::size_t>(p)].extent;
    // Softmax (the fused 4-op attention pattern) normalizes C1 rows
    // over l, so the executor keeps a full scores row on chip: the
    // softmax completes on the region before GEMM2 consumes it, with
    // no deferred division or cross-block row sums.
    if (chain.intermediateEpilogue() == Epilogue::Softmax) {
        const ir::AxisId l = ir::axisIdByName(chain, "l");
        constraints.minTile.erase(l);
        constraints.multipleOf.erase(l);
        constraints.fixed[l] =
            chain.axes()[static_cast<std::size_t>(l)].extent;
    }
    return constraints;
}

void
runFusedGemmChain3(const GemmChain3Config &config,
                   const plan::ExecutionPlan &plan,
                   const ComputeEngine &engine, const Tensor &a,
                   const Tensor &b, const Tensor &d, const Tensor &f,
                   Tensor &e, const ExecOptions &options)
{
    CHIMERA_CHECK(a.shape() == gemmChain3ShapeA(config) &&
                      b.shape() == gemmChain3ShapeB(config) &&
                      d.shape() == gemmChain3ShapeD(config) &&
                      f.shape() == gemmChain3ShapeF(config) &&
                      e.shape() == gemmChain3ShapeE(config),
                  "three-GEMM chain tensor shape mismatch");

    const ir::Chain chain = ir::makeGemmChain3(config);
    CHIMERA_CHECK(static_cast<int>(plan.tiles.size()) == chain.numAxes(),
                  "plan does not match the chain configuration");
    const std::int64_t tb = tileOf(chain, plan, "b", 1);
    const std::int64_t tm = tileOf(chain, plan, "m", config.m);
    const std::int64_t tn = tileOf(chain, plan, "n", config.n);
    const std::int64_t tk = tileOf(chain, plan, "k", config.k);
    const std::int64_t tl = tileOf(chain, plan, "l", config.l);
    CHIMERA_CHECK(tileOf(chain, plan, "p", config.p) == config.p,
                  "the fused 3-chain executor requires T_P = P");
    CHIMERA_CHECK(config.epilogue != Epilogue::Softmax || tl == config.l,
                  "the fused attention chain requires T_L = L (full"
                  " scores row on chip for the softmax)");

    const std::int64_t M = config.m, N = config.n, K = config.k,
                       L = config.l, P = config.p;

    // Split the b/m region loops by the plan's concurrency table
    // (dependence-analysis output). Under a sound table every (b, m)
    // region is independent — it owns its C1 tile and C2 panel and
    // writes disjoint E rows — and splits across workers; the l and k
    // reduction loops stay serial ascending inside a region, keeping
    // the output bits identical to the serial executor at every thread
    // count.
    const RegionSchedule sched =
        partitionRegionLoops(chain3RegionLoops(chain, config, plan),
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
    std::vector<AlignedBuffer<float>> c1Tiles, c2Panels;
    c1Tiles.reserve(static_cast<std::size_t>(workers));
    c2Panels.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        c1Tiles.push_back(allocateAligned<float>(
            static_cast<std::size_t>(tb * tm * tl)));
        c2Panels.push_back(allocateAligned<float>(
            static_cast<std::size_t>(tb * tm * P)));
    }
    e.zero();

    const std::int64_t chunks = sched.chunkCount();
    if (profile != nullptr) {
        profile->beginPhase(chunks);
    }
    // Unified clock: ChunkProfile and the trace share obs::nowNanos.
    obs::TraceRecorder *const tracer = obs::trace();
    obs::Span execSpan(tracer, "exec.chain3", "exec");
    execSpan.arg("chunks", chunks).arg("workers", workers);
    parallelFor(pool, 0, chunks, [&](std::int64_t chunk, int worker) {
        const std::int64_t chunkStart = obs::nowNanos();
        std::int64_t taskLo = -1;
        std::int64_t taskHi = -1;
        float *c1Tile = c1Tiles[static_cast<std::size_t>(worker)].get();
        float *c2Panel = c2Panels[static_cast<std::size_t>(worker)].get();
        sched.forEachTaskInChunk(chunk, [&](std::int64_t task) {
        if (taskLo < 0) {
            taskLo = task;
        }
        taskHi = task;
        const std::vector<BlockRange> parBlocks =
            decodeBlocks(sched.parallel, task);

        const std::int64_t steps = sched.serialSteps();
        for (std::int64_t step = 0; step < steps; ++step) {
        const std::vector<BlockRange> serBlocks =
            decodeBlocks(sched.serial, step);
        const BlockRange bBlk =
            findBlock(parBlocks, serBlocks, 'b', config.batch);
        const BlockRange mBlk = findBlock(parBlocks, serBlocks, 'm', M);
        const std::int64_t b0 = bBlk.start, bb = bBlk.size;
        const std::int64_t m0 = mBlk.start, mm = mBlk.size;

        // Shadow-memory claim: this task owns the E rows of its region.
        if (race != nullptr) {
            for (std::int64_t bi = 0; bi < bb; ++bi) {
                race->claimRange(task, ((b0 + bi) * M + m0) * N,
                                 ((b0 + bi) * M + m0 + mm) * N);
            }
        }

        std::memset(c2Panel, 0,
                    static_cast<std::size_t>(bb * mm * P) * sizeof(float));
        for (std::int64_t l0 = 0; l0 < L; l0 += tl) {
            const std::int64_t ll = std::min<std::int64_t>(tl, L - l0);
            std::memset(c1Tile, 0,
                        static_cast<std::size_t>(bb * mm * ll) *
                            sizeof(float));
            for (std::int64_t k0 = 0; k0 < K; k0 += tk) {
                const std::int64_t kk = std::min<std::int64_t>(tk, K - k0);
                for (std::int64_t bi = 0; bi < bb; ++bi) {
                    engine.matmul(
                        a.data() + ((b0 + bi) * M + m0) * K + k0, K,
                        b.data() + ((b0 + bi) * K + k0) * L + l0, L,
                        c1Tile + bi * mm * ll, ll, mm, ll, kk);
                }
            }
            if (config.epilogue == Epilogue::Relu) {
                for (std::int64_t i = 0; i < bb * mm * ll; ++i) {
                    c1Tile[i] = std::max(c1Tile[i], 0.0f);
                }
            } else if (config.epilogue == Epilogue::Softmax) {
                // T_L = L (checked above): the whole scores row is on
                // chip, so the softmax completes here — exp, row sum
                // and division — before GEMM2 consumes the region.
                for (std::int64_t bi = 0; bi < bb; ++bi) {
                    for (std::int64_t r = 0; r < mm; ++r) {
                        float *row = c1Tile + (bi * mm + r) * ll;
                        const float inv =
                            1.0f / kernels::expRowSum(row, ll,
                                                      config.softmaxScale);
                        for (std::int64_t j = 0; j < ll; ++j) {
                            row[j] *= inv;
                        }
                    }
                }
            }
            for (std::int64_t bi = 0; bi < bb; ++bi) {
                engine.matmul(c1Tile + bi * mm * ll, ll,
                              d.data() + ((b0 + bi) * L + l0) * P, P,
                              c2Panel + bi * mm * P, P, mm, P, ll);
            }
        }
        for (std::int64_t n0 = 0; n0 < N; n0 += tn) {
            const std::int64_t nn = std::min<std::int64_t>(tn, N - n0);
            for (std::int64_t bi = 0; bi < bb; ++bi) {
                engine.matmul(c2Panel + bi * mm * P, P,
                              f.data() + (b0 + bi) * P * N + n0, N,
                              e.data() + ((b0 + bi) * M + m0) * N + n0, N,
                              mm, nn, P);
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
}

std::vector<std::string>
fusedGemmChain3ParallelAxes(const GemmChain3Config &config,
                            const plan::ExecutionPlan &plan)
{
    const ir::Chain chain = ir::makeGemmChain3(config);
    CHIMERA_CHECK(static_cast<int>(plan.tiles.size()) == chain.numAxes(),
                  "plan does not match the chain configuration");
    const RegionSchedule sched =
        partitionRegionLoops(chain3RegionLoops(chain, config, plan),
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
runUnfusedGemmChain3(const GemmChain3Config &config,
                     const ComputeEngine &engine, const Tensor &a,
                     const Tensor &b, const Tensor &d, const Tensor &f,
                     Tensor &scratchC1, Tensor &scratchC2, Tensor &e,
                     const GemmTiles &tiles, const ExecOptions &options)
{
    CHIMERA_CHECK(scratchC1.shape() == shapeOf(config, config.m, config.l),
                  "C1 scratch shape mismatch");
    CHIMERA_CHECK(scratchC2.shape() == shapeOf(config, config.m, config.p),
                  "C2 scratch shape mismatch");
    // A race checker passed here is sized to the final E output; the
    // scratch-writing GEMMs run unchecked.
    ExecOptions scratchOptions = options;
    scratchOptions.raceCheck = nullptr;
    runTiledBatchGemm(engine, a, b, scratchC1, tiles, scratchOptions);
    if (config.epilogue == Epilogue::Relu) {
        ref::reluInPlace(scratchC1);
    } else if (config.epilogue == Epilogue::Softmax) {
        float *p = scratchC1.data();
        for (std::int64_t i = 0; i < scratchC1.numel(); ++i) {
            p[i] *= config.softmaxScale;
        }
        kernels::softmaxRows(p, scratchC1.numel() / config.l, config.l);
    }
    runTiledBatchGemm(engine, scratchC1, d, scratchC2, tiles,
                      scratchOptions);
    runTiledBatchGemm(engine, scratchC2, f, e, tiles, options);
}

void
referenceGemmChain3(const GemmChain3Config &config, const Tensor &a,
                    const Tensor &b, const Tensor &d, const Tensor &f,
                    Tensor &e)
{
    Tensor c1(shapeOf(config, config.m, config.l));
    Tensor c2(shapeOf(config, config.m, config.p));
    auto mm = [&](const Tensor &x, const Tensor &y, Tensor &z) {
        if (config.batch > 1) {
            ref::batchGemm(x, y, z);
        } else {
            ref::gemm(x, y, z);
        }
    };
    mm(a, b, c1);
    if (config.epilogue == Epilogue::Relu) {
        ref::reluInPlace(c1);
    } else if (config.epilogue == Epilogue::Softmax) {
        float *p = c1.data();
        for (std::int64_t i = 0; i < c1.numel(); ++i) {
            p[i] *= config.softmaxScale;
        }
        ref::softmaxLastDim(c1);
    }
    mm(c1, d, c2);
    mm(c2, f, e);
}

} // namespace chimera::exec
