#include "serve/batcher.hpp"

#include <cstdio>
#include <cstring>

#include "exec/gemm_chain_exec.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace chimera::serve {

std::string
compatibilityKey(const ir::GemmChainConfig &config)
{
    // The softmax scale compares by bit pattern: two requests batch
    // together only when their per-slice arithmetic is identical.
    std::uint32_t scaleBits = 0;
    std::memcpy(&scaleBits, &config.softmaxScale, sizeof scaleBits);
    char out[128];
    const int n = std::snprintf(
        out, sizeof out,
        "m=%lld;n=%lld;k=%lld;l=%lld;ep=%d;scale=%08x;causal=%d",
        static_cast<long long>(config.m), static_cast<long long>(config.n),
        static_cast<long long>(config.k), static_cast<long long>(config.l),
        static_cast<int>(config.epilogue), scaleBits,
        config.causalMask ? 1 : 0);
    CHIMERA_CHECK(n > 0 && static_cast<std::size_t>(n) < sizeof out,
                  "compatibility key formatting failed");
    return std::string(out, static_cast<std::size_t>(n));
}

std::vector<ServeJob>
takeGroup(std::deque<ServeJob> &jobs, std::int64_t maxBatch)
{
    CHIMERA_ASSERT(!jobs.empty(), "takeGroup on an empty queue");
    const auto keyOf = [](ServeJob &job) -> const std::string & {
        if (job.classKey.empty()) {
            job.classKey = compatibilityKey(job.request.config);
        }
        return job.classKey;
    };
    std::vector<ServeJob> group;
    group.push_back(std::move(jobs.front()));
    jobs.pop_front();
    const std::string key = keyOf(group.front());
    std::int64_t slices = group.front().request.config.batch;
    for (auto it = jobs.begin(); it != jobs.end() && slices < maxBatch;) {
        if (keyOf(*it) != key) {
            ++it;
            continue;
        }
        const std::int64_t batch = it->request.config.batch;
        if (slices + batch > maxBatch) {
            break; // the class's next group starts here
        }
        slices += batch;
        group.push_back(std::move(*it));
        it = jobs.erase(it);
    }
    return group;
}

std::vector<std::vector<ServeJob>>
groupCompatible(std::deque<ServeJob> &&jobs, std::int64_t maxBatch)
{
    std::vector<std::vector<ServeJob>> groups;
    while (!jobs.empty()) {
        groups.push_back(takeGroup(jobs, maxBatch));
    }
    return groups;
}

namespace {

/**
 * Completes members of @p group from index @p first onward with
 * @p message. Jobs before @p first already had their complete callback
 * invoked (it is called exactly once per job) and are left alone.
 */
void
failGroup(std::vector<ServeJob> &group, std::size_t first,
          const std::string &message,
          const std::function<double()> &nowSeconds)
{
    for (std::size_t i = first; i < group.size(); ++i) {
        ServeJob &job = group[i];
        ExecuteResponse response;
        response.id = job.request.id;
        response.status = Status::Error;
        response.error = message;
        response.batchGroupSize =
            static_cast<std::uint32_t>(group.size());
        response.serverSeconds = nowSeconds() - job.admittedSeconds;
        job.complete(std::move(response));
    }
}

/** Comma-joined request ids, the cross-span linkage key of a group. */
std::string
requestIdList(const std::vector<ServeJob> &group)
{
    std::string out;
    for (const ServeJob &job : group) {
        if (!out.empty()) {
            out += ",";
        }
        out += std::to_string(job.request.id);
    }
    return out;
}

} // namespace

GroupResult
executeGroup(std::vector<ServeJob> &group, PlannerGate &gate,
             const exec::ComputeEngine &engine,
             const exec::ExecOptions &execOptions,
             const std::function<double()> &nowSeconds)
{
    GroupResult result;
    result.requests = static_cast<std::int64_t>(group.size());
    CHIMERA_ASSERT(!group.empty(), "empty batch group");
    std::int64_t totalBatch = 0;
    for (const ServeJob &job : group) {
        totalBatch += job.request.config.batch;
    }
    result.slices = totalBatch;

    // The execute span links back to serve.decode/serve.write through
    // the request ids and carries the plan's *predicted* DV next to the
    // measured bytes and duration — every served group doubles as one
    // model-validation data point.
    obs::TraceRecorder *const tracer = obs::trace();
    obs::Span execSpan(tracer, "serve.execute", "serve");
    if (tracer != nullptr) {
        execSpan.arg("reqs", requestIdList(group))
            .arg("slices", totalBatch);
    }

    // Jobs whose complete callback has been (or is being) invoked; a
    // mid-scatter exception must fail only the suffix after this point
    // so no job is ever completed twice.
    std::size_t completed = 0;
    try {
        if (totalBatch == 1) {
            // Lone slice: the canonical plan runs on the request chain
            // itself (batch == 1 omits the b axis entirely).
            ServeJob &job = group.front();
            obs::Span gateSpan(tracer, "serve.gate", "serve");
            if (tracer != nullptr) {
                gateSpan.arg("reqs", requestIdList(group));
            }
            const plan::ExecutionPlan plan =
                gate.canonicalPlan(job.request.config);
            gateSpan.end();
            if (tracer != nullptr) {
                execSpan
                    .arg("predicted_dv_bytes", plan.predictedVolumeBytes)
                    .arg("mu_bytes", plan.memUsageBytes)
                    .arg("bytes_in", job.request.a.bytes() +
                                         job.request.b.bytes() +
                                         job.request.d.bytes());
            }
            Tensor e(exec::gemmChainShapeE(job.request.config));
            exec::runFusedGemmChain(job.request.config, plan, engine,
                                    job.request.a, job.request.b,
                                    job.request.d, e, execOptions);
            if (tracer != nullptr) {
                execSpan.arg("bytes_out", e.bytes());
            }
            ExecuteResponse response;
            response.id = job.request.id;
            response.status = Status::Ok;
            response.batchGroupSize = 1;
            response.serverSeconds = nowSeconds() - job.admittedSeconds;
            response.e = std::move(e);
            completed = 1;
            job.complete(std::move(response));
            result.ok = true;
            return result;
        }

        // Coalesced group (or one multi-batch request): concatenate
        // along b, run the derived plan whose per-slice walk is pinned
        // to the canonical plan, then scatter E back per request.
        ir::GemmChainConfig batched =
            canonicalSlice(group.front().request.config);
        batched.batch = totalBatch;
        batched.name = "serve-batched";
        obs::Span gateSpan(tracer, "serve.gate", "serve");
        if (tracer != nullptr) {
            gateSpan.arg("reqs", requestIdList(group));
        }
        const plan::ExecutionPlan plan =
            gate.batchedPlan(batched, totalBatch);
        gateSpan.end();
        if (tracer != nullptr) {
            execSpan.arg("predicted_dv_bytes", plan.predictedVolumeBytes)
                .arg("mu_bytes", plan.memUsageBytes);
        }

        const std::int64_t perA = batched.m * batched.k;
        const std::int64_t perB = batched.k * batched.l;
        const std::int64_t perD = batched.l * batched.n;
        const std::int64_t perE = batched.m * batched.n;
        Tensor a(exec::gemmChainShapeA(batched));
        Tensor b(exec::gemmChainShapeB(batched));
        Tensor d(exec::gemmChainShapeD(batched));
        std::int64_t offset = 0;
        for (const ServeJob &job : group) {
            const std::int64_t nSlices = job.request.config.batch;
            std::memcpy(a.data() + offset * perA, job.request.a.data(),
                        static_cast<std::size_t>(nSlices * perA) *
                            sizeof(float));
            std::memcpy(b.data() + offset * perB, job.request.b.data(),
                        static_cast<std::size_t>(nSlices * perB) *
                            sizeof(float));
            std::memcpy(d.data() + offset * perD, job.request.d.data(),
                        static_cast<std::size_t>(nSlices * perD) *
                            sizeof(float));
            offset += nSlices;
        }

        Tensor e(exec::gemmChainShapeE(batched));
        if (tracer != nullptr) {
            execSpan.arg("bytes_in",
                         a.bytes() + b.bytes() + d.bytes())
                .arg("bytes_out", e.bytes());
        }
        exec::runFusedGemmChain(batched, plan, engine, a, b, d, e,
                                execOptions);

        offset = 0;
        for (ServeJob &job : group) {
            const std::int64_t nSlices = job.request.config.batch;
            Tensor slice(exec::gemmChainShapeE(job.request.config));
            std::memcpy(slice.data(), e.data() + offset * perE,
                        static_cast<std::size_t>(nSlices * perE) *
                            sizeof(float));
            offset += nSlices;
            ExecuteResponse response;
            response.id = job.request.id;
            response.status = Status::Ok;
            response.batchGroupSize =
                static_cast<std::uint32_t>(group.size());
            response.serverSeconds = nowSeconds() - job.admittedSeconds;
            response.e = std::move(slice);
            ++completed;
            job.complete(std::move(response));
        }
        result.ok = true;
        return result;
    } catch (const std::exception &e) {
        result.error = e.what();
        failGroup(group, completed, result.error, nowSeconds);
        return result;
    }
}

} // namespace chimera::serve
