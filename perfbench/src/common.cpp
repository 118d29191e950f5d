#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

namespace {

constexpr std::size_t kMaxKeptFailures = 20;

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char ch : text) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value)) {
        return "null";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return buf;
}

} // namespace

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_[name] = Value{value, unit};
}

void
Report::check(bool ok, const std::string &what)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (ok) {
        return;
    }
    ++failed_;
    if (failures_.size() < kMaxKeptFailures) {
        failures_.push_back(what);
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
}

void
Report::traceWindow(std::int64_t beginNanos, std::int64_t endNanos)
{
    std::lock_guard<std::mutex> lock(mutex_);
    windowBegin_ = beginNanos;
    windowEnd_ = endNanos;
}

std::string
Report::json(const Options &options) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out << "{\"workload\": " << jsonString(options.workload)
        << ", \"seed\": " << options.seed
        << ", \"threads\": " << options.threads
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
        out << (i > 0 ? ", " : "") << jsonString(failures_[i]);
    }
    out << "], \"trace_window_us\": ["
        << jsonNumber(static_cast<double>(windowBegin_) / 1e3) << ", "
        << jsonNumber(static_cast<double>(windowEnd_) / 1e3)
        << "], \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : metrics_) {
        out << (first ? "" : ", ") << jsonString(name)
            << ": {\"value\": " << jsonNumber(v.value)
            << ", \"unit\": " << jsonString(v.unit) << "}";
        first = false;
    }
    out << "}}\n";
    return out.str();
}

std::int64_t
Report::failed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty()) {
        return 0.0;
    }
    double logSum = 0.0;
    for (const double v : values) {
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
SetupTimer::block(const std::function<void()> &setUp,
                  const std::function<void()> &tearDown)
{
    for (int r = 0; r < kRepeats; ++r) {
        if (r > 0 && tearDown) {
            tearDown();
        }
        const double start = nowSeconds();
        setUp();
        seconds_.push_back(nowSeconds() - start);
    }
}

namespace {

/** Wall time of @p fn on a fresh thread pinned to @p cpu, seconds. */
double
timePinned(int cpu, const std::function<void()> &fn)
{
    double seconds = 0.0;
    std::exception_ptr error;
    std::thread worker([&] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        // Best effort: an unpinned run is still a valid sample.
        (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        try {
            const double start = nowSeconds();
            fn();
            seconds = nowSeconds() - start;
        } catch (...) {
            error = std::current_exception();
        }
    });
    worker.join();
    if (error) {
        std::rethrow_exception(error);
    }
    return seconds;
}

} // namespace

void
SetupTimer::blockAcrossCpus(const std::function<void()> &setUp)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed)) {
                cpus.push_back(cpu);
            }
        }
    }
    if (cpus.empty()) {
        block(setUp, {});
        return;
    }
    for (int r = 0; r < kRepeats; ++r) {
        double total = 0.0;
        for (const int cpu : cpus) {
            total += timePinned(cpu, setUp);
        }
        seconds_.push_back(total / static_cast<double>(cpus.size()));
    }
}

} // namespace perfbench
