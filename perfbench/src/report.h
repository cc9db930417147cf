// Types shared by the benchmark's two workload runners (simulation workloads
// and the sweep service): the command-line arguments, the outcome of one
// simulated (code, size, mode) run, the metric sink, and the per-layer counts
// read back from StatRegistry snapshots.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/system.h"
#include "measure.h"
#include "sim/rng.h"
#include "workloads/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct BenchArgs {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    /// Scratch directory for the service's state dir and socket.
    std::string workDir;
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Everything one benchmark run reports.
struct Outcome {
    std::map<std::string, Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< the first few failures, verbatim
    /// Hash of ticks and every counter of each distinct simulation.
    std::string simDigest;
    /// Sample counts behind the medians and percentiles, by what they count.
    std::map<std::string, double> samples;
    /// Host seconds of each measured pass, in order.
    std::vector<double> passWalls;

    void set(const std::string& name, double value, const std::string& unit)
    {
        metrics[name] = Metric{value, unit};
    }
    void fail(const std::string& what)
    {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(what);
    }
};

/// Fisher-Yates with the simulator's own generator, so a seed means the
/// same run order and request stream on every platform.
template <class T>
void shuffle(std::vector<T>& v, dscoh::Rng& rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

struct Job {
    std::string code;
    dscoh::InputSize size = dscoh::InputSize::kSmall;
    dscoh::CoherenceMode mode = dscoh::CoherenceMode::kCcsm;
    std::string key() const;
};

/// One simulated (code, size, mode) run, however it was driven.
struct RunRecord {
    Job job;
    bool ok = false;
    std::string error;
    dscoh::RunMetrics metrics;
    std::map<std::string, std::uint64_t> counters;
    // Event-engine counters (not in StatRegistry by default).
    std::uint64_t events = 0;
    std::uint64_t scheduleCalls = 0;
    std::uint64_t peakPending = 0;
    std::uint64_t heapSpills = 0;
    // Host seconds: WorkloadRun construction, run(), and the whole run
    // including System destruction.
    double setupS = 0.0;
    double simS = 0.0;
    double totalS = 0.0;
};

/// A traced run or request fails unless its child spans cover this share of
/// its root span.
inline constexpr double kMinSpanCoverage = 0.95;

/// Applies kMinSpanCoverage to every root span named in @p rootNames (one
/// failure per root that falls short) and sets trace.uncovered_pct, the share
/// of their time no child covers.
void checkCoverage(const SpanRecorder& rec,
                   const std::vector<std::string>& rootNames, Outcome& out);

/// Same simulated outcome: ticks, every StatRegistry counter, and the event
/// count.
bool sameSimulation(const RunRecord& a, const RunRecord& b);

/// What an untraced run collected.
struct PassSamples {
    // One entry per pass.
    std::vector<double> wall;
    std::vector<double> setup;
    std::vector<double> tickRate; ///< simulated ticks per host second
    std::vector<double> opsPerS;  ///< completed operations per busy second
    /// The operation latencies the percentiles are taken over.
    std::vector<double> latencyMs;
    double slowestS = 0.0; ///< the slowest operation
};

/// Each job's median host seconds (RunRecord::totalS) over the passes that
/// ran it. Reducing a job's passes to their median first keeps one run the
/// host slowed from setting a percentile or the slowest run.
std::map<std::string, double> medianSecondsPerJob(
    const std::vector<RunRecord>& runs);

/// Sets every end-to-end metric: medians over passes, percentiles of
/// s.latencyMs, and the fidelity gaps of @p pairs against the paper's
/// aggregates for @p size.
void setEndToEnd(const PassSamples& s, const std::vector<ModePair>& pairs,
                 dscoh::InputSize size, Outcome& out);

/// Hex FNV-1a over each distinct run's key, ticks and counters, in key
/// order (so independent of the seeded run order).
std::string simDigest(const std::vector<RunRecord>& runs);

/// CCSM/DS pairs per code, for the Fig. 4 / Fig. 5 gaps.
std::vector<ModePair> modePairs(const std::vector<RunRecord>& runs);

/// Adds the exact per-layer counts and ratios read from each run's
/// StatRegistry snapshot and RunMetrics, summed over @p runs. Throws when a
/// counter family matches no counter at all (a renamed stat would otherwise
/// read as 0).
void addLayerCounts(const std::vector<RunRecord>& runs, Outcome& out);

/// Adds the event engine's counts (sim.*), summed over @p runs. Only for
/// runs driven on this thread: a service's jobs do not report them.
void addEngineCounts(const std::vector<RunRecord>& runs, Outcome& out);

/// Host memory high-water mark of this process, MiB.
double peakRssMb();

} // namespace perfbench
