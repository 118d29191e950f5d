#pragma once

/**
 * @file
 * Shared plumbing of the perfbench binary: the options every workload
 * takes, sample statistics, and the report each workload writes its
 * metrics and correctness checks into.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Options shared by every workload (flags parsed in main.cpp). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0; ///< measured time of the run
    /**
     * Per-layer run: the workload measures an untraced half, then turns
     * the global trace recorder on and measures a traced half.
     */
    bool traced = false;
    int threads = 1; ///< worker count of the parallel runs ("nproc")
    std::string workDir = ".bench_out"; ///< scratch files of this run
    std::string traceFile; ///< Perfetto JSON written by a traced run
};

/**
 * Metrics, correctness tallies and the traced window of one run. Safe to
 * call from several threads (planner and receiver threads check outputs).
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /**
     * Counts one attempted operation (a chain run, a plan, a request);
     * @p ok == false counts it failed and keeps @p what for the log.
     */
    void check(bool ok, const std::string &what);

    /** The interval (obs::nowNanos) whose spans run.py attributes. */
    void traceWindow(std::int64_t beginNanos, std::int64_t endNanos);

    std::int64_t failed() const;

    /** The result document perfbench/run.py reads. */
    std::string json(const Options &options) const;

  private:
    struct Value
    {
        double value = 0.0;
        std::string unit;
    };

    mutable std::mutex mutex_;
    std::map<std::string, Value> metrics_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    std::vector<std::string> failures_; ///< the first few messages
    std::int64_t windowBegin_ = 0;
    std::int64_t windowEnd_ = 0;
};

/** Steady-clock seconds. */
double nowSeconds();

/** Linearly interpolated percentile, @p q in [0, 1]; 0 when empty. */
double percentile(std::vector<double> samples, double q);

inline double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double> &values);

/** Peak resident set size of this process so far, MB. */
double peakRssMb();

/**
 * Collects the set-up times behind every workload's setup_s metric. A
 * workload times a block of set-ups before its measured phase and another
 * after it: a set-up lasts milliseconds, so a single block samples the
 * shared host's speed at one instant, while two blocks span the run.
 */
class SetupTimer
{
  public:
    static constexpr int kRepeats = 11; ///< set-ups per block

    /**
     * Times @p setUp kRepeats times on the calling thread, running
     * @p tearDown untimed between repeats.
     */
    void block(const std::function<void()> &setUp,
               const std::function<void()> &tearDown);

    /**
     * Takes kRepeats samples, each the mean time of one @p setUp on every
     * CPU this process may use (a fresh thread pinned to each in turn).
     * On a shared host the vCPUs differ in speed by up to 1.6x, and which
     * are slow changes from minute to minute: timed on one vCPU, or round-
     * robin, the median of a single-threaded set-up jumps between the fast
     * and the slow speed. Only for set-ups that start no long-lived
     * threads: those would inherit the pin.
     */
    void blockAcrossCpus(const std::function<void()> &setUp);

    double medianSeconds() const { return median(seconds_); }

  private:
    std::vector<double> seconds_;
};

void runFusedExec(const Options &options, Report &report);
void runPlanChurn(const Options &options, Report &report);
void runServeOpen(const Options &options, Report &report);

} // namespace perfbench
