// Arithmetic the benchmark reports with, kept apart from the runners so the
// self-test can pin it on hand-made inputs: order statistics, the span
// recorder with self-time and coverage, and the gaps to the paper's Fig. 4
// and Fig. 5 aggregates.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

namespace perfbench {

/// Value at percentile @p p (0..100) of @p v, interpolating linearly between
/// the closest ranks. 0 for an empty sample.
inline double percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/// The highest of the reported percentiles that still has at least ten of
/// @p n samples beyond it (so a tail figure is never one or two outliers).
/// 0 when even the median lacks that support (n < 20).
inline double supportedPercentile(std::size_t n)
{
    double best = 0.0;
    for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9})
        if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
            best = p;
    return best;
}

/// One timed call into a layer. Spans of one (code, size, mode) run or one
/// service request share a run id; parent is an index into the recorder's
/// span list (-1 for a root).
struct Span {
    std::string name;
    std::uint64_t runId = 0;
    int parent = -1;
    double start = 0.0; ///< seconds since the recorder was created
    double end = 0.0;
    std::uint64_t events = 0; ///< simulator events executed inside the span
    double duration() const { return end - start; }
};

/// Keeps every span in memory until the benchmark writes them out. Safe to
/// record into from several client threads.
class SpanRecorder {
public:
    SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    double now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    int open(std::string name, std::uint64_t runId, int parent)
    {
        Span s;
        s.name = std::move(name);
        s.runId = runId;
        s.parent = parent;
        s.start = now();
        return add(std::move(s));
    }

    void close(int id, std::uint64_t events = 0)
    {
        const double t = now();
        const std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].end = t;
        spans_[static_cast<std::size_t>(id)].events = events;
    }

    /// Appends a finished span as given (the self-test builds trees this way).
    int add(Span s)
    {
        const std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size() - 1);
    }

    /// Only once recording has stopped: the list is not locked for readers.
    const std::vector<Span>& spans() const { return spans_; }

    /// Seconds of span @p id covered by the union of its direct children,
    /// each clipped to the parent's interval.
    double covered(int id) const
    {
        const Span& p = spans_[static_cast<std::size_t>(id)];
        std::vector<std::pair<double, double>> iv;
        for (const Span& c : spans_)
            if (c.parent == id)
                iv.emplace_back(std::max(c.start, p.start),
                                std::min(c.end, p.end));
        std::sort(iv.begin(), iv.end());
        double total = 0.0;
        double reach = p.start;
        for (const auto& [s, e] : iv) {
            const double from = std::max(s, reach);
            if (e > from) {
                total += e - from;
                reach = e;
            }
        }
        return total;
    }

    /// A span's own time: its duration minus what its children cover.
    double selfTime(int id) const
    {
        return spans_[static_cast<std::size_t>(id)].duration() - covered(id);
    }

private:
    std::chrono::steady_clock::time_point epoch_;
    std::mutex mu_;
    std::vector<Span> spans_;
};

/// One benchmark code's CCSM and direct-store outcome at one input size.
struct ModePair {
    std::uint64_t ccsmTicks = 0;
    std::uint64_t dsTicks = 0;
    double ccsmMissRate = 0.0; ///< GPU L2 miss rate, 0..1
    double dsMissRate = 0.0;
};

// The paper's aggregates (EXPERIMENTS.md): geomean of non-zero Fig. 4
// speed-ups, and the Fig. 5 CCSM -> DS geomean miss-rate drop.
inline constexpr double kPaperFig4SmallPct = 7.8;
inline constexpr double kPaperFig4BigPct = 5.7;
inline constexpr double kPaperFig5SmallPp = 9.3 - 7.3;
inline constexpr double kPaperFig5BigPp = 12.5 - 11.1;

/// |geomean of non-zero DS speed-ups (%) - the paper's|, as
/// bench/fig4_speedup computes the geomean.
inline double fig4GapPp(const std::vector<ModePair>& rows, double paperPct)
{
    std::vector<double> speedups;
    for (const ModePair& r : rows)
        speedups.push_back(
            r.dsTicks == 0 ? 0.0
                           : (static_cast<double>(r.ccsmTicks) /
                                  static_cast<double>(r.dsTicks) -
                              1.0) * 100.0);
    return std::fabs(dscoh::bench::geomeanNonZero(speedups) - paperPct);
}

/// |geomean CCSM miss rate - geomean DS miss rate (pp) - the paper's drop|,
/// with bench/fig5_missrate's row filter (CCSM rate above 0.5%) and clamp.
inline double fig5GapPp(const std::vector<ModePair>& rows, double paperPp)
{
    std::vector<double> ccsm;
    std::vector<double> ds;
    for (const ModePair& r : rows) {
        const double mc = r.ccsmMissRate * 100.0;
        const double md = r.dsMissRate * 100.0;
        if (mc > 0.5) {
            ccsm.push_back(mc);
            ds.push_back(md > 0.01 ? md : 0.01);
        }
    }
    return std::fabs(dscoh::bench::geomean(ccsm) -
                     dscoh::bench::geomean(ds) - paperPp);
}

} // namespace perfbench
