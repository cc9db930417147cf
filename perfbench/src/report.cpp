#include "report.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <sys/resource.h>

namespace perfbench {

using dscoh::CoherenceMode;

std::string Job::key() const
{
    return code + "/" + dscoh::to_string(size) + "/" + dscoh::to_string(mode);
}

void checkCoverage(const SpanRecorder& rec,
                   const std::vector<std::string>& rootNames, Outcome& out)
{
    const std::vector<Span>& spans = rec.spans();
    double total = 0.0;
    double uncovered = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != -1 ||
            std::find(rootNames.begin(), rootNames.end(), spans[i].name) ==
                rootNames.end())
            continue;
        const double d = spans[i].duration();
        const double covered = rec.covered(static_cast<int>(i));
        total += d;
        uncovered += d - covered;
        if (covered < kMinSpanCoverage * d)
            out.fail("spans cover only " +
                     std::to_string(covered / d * 100.0) + "% of " + spans[i].name +
                     " " + std::to_string(spans[i].runId));
    }
    out.set("trace.uncovered_pct",
            total > 0.0 ? uncovered / total * 100.0 : 0.0, "%");
}

void setEndToEnd(const PassSamples& s, const std::vector<ModePair>& pairs,
                 dscoh::InputSize size, Outcome& out)
{
    const bool small = size == dscoh::InputSize::kSmall;
    out.set("wall_s", median(s.wall), "s");
    out.set("setup_s", median(s.setup), "s");
    out.set("sim_ticks_per_s", median(s.tickRate), "ticks/s");
    out.set("slowest_run_s", s.slowestS, "s");
    out.set("peak_rss_mb", peakRssMb(), "MiB");
    out.set("fig4_gap_pp",
            fig4GapPp(pairs, small ? kPaperFig4SmallPct : kPaperFig4BigPct),
            "pp");
    out.set("fig5_gap_pp",
            fig5GapPp(pairs, small ? kPaperFig5SmallPp : kPaperFig5BigPp),
            "pp");
    out.set("req_p50_ms", percentile(s.latencyMs, 50.0), "ms");
    out.set("req_p90_ms", percentile(s.latencyMs, 90.0), "ms");
    out.set("req_per_s", median(s.opsPerS), "1/s");
    out.passWalls = s.wall;
    out.samples["passes"] = static_cast<double>(s.wall.size());
    out.samples["latencies"] = static_cast<double>(s.latencyMs.size());
    out.samples["latencies_supported_percentile"] =
        supportedPercentile(s.latencyMs.size());
}

std::map<std::string, double> medianSecondsPerJob(
    const std::vector<RunRecord>& runs)
{
    std::map<std::string, std::vector<double>> seconds;
    for (const RunRecord& r : runs)
        seconds[r.job.key()].push_back(r.totalS);
    std::map<std::string, double> medians;
    for (auto& [key, v] : seconds)
        medians.emplace(key, median(std::move(v)));
    return medians;
}

bool sameSimulation(const RunRecord& a, const RunRecord& b)
{
    return a.metrics.ticks == b.metrics.ticks && a.counters == b.counters &&
           a.events == b.events;
}

std::string simDigest(const std::vector<RunRecord>& runs)
{
    std::map<std::string, const RunRecord*> byKey;
    for (const RunRecord& r : runs)
        if (r.ok)
            byKey.emplace(r.job.key(), &r);
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const std::string& s) {
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;
        }
        h ^= 0xff;
        h *= 0x100000001b3ull;
    };
    for (const auto& [key, r] : byKey) {
        mix(key);
        mix(std::to_string(r->metrics.ticks));
        for (const auto& [name, value] : r->counters)
            mix(name + "=" + std::to_string(value));
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<ModePair> modePairs(const std::vector<RunRecord>& runs)
{
    std::map<std::string, ModePair> byCode;
    for (const RunRecord& r : runs) {
        if (!r.ok)
            continue;
        ModePair& p = byCode[r.job.code + "/" + dscoh::to_string(r.job.size)];
        if (r.job.mode == CoherenceMode::kCcsm) {
            p.ccsmTicks = r.metrics.ticks;
            p.ccsmMissRate = r.metrics.gpuL2MissRate;
        } else {
            p.dsTicks = r.metrics.ticks;
            p.dsMissRate = r.metrics.gpuL2MissRate;
        }
    }
    std::vector<ModePair> pairs;
    for (const auto& [code, p] : byCode)
        if (p.ccsmTicks != 0 && p.dsTicks != 0)
            pairs.push_back(p);
    return pairs;
}

namespace {

bool startsWith(const std::string& s, const std::string& p)
{
    return s.compare(0, p.size(), p) == 0;
}

bool endsWith(const std::string& s, const std::string& p)
{
    return s.size() >= p.size() &&
           s.compare(s.size() - p.size(), p.size(), p) == 0;
}

/// Sum of the counters named "<prefix>...<suffix>" (per-SM, per-slice and
/// per-channel counters collapse into one figure). Throws when no counter of
/// any run has such a name.
double sumCounters(const std::vector<RunRecord>& runs,
                   const std::string& prefix, const std::string& suffix)
{
    double total = 0.0;
    bool matched = false;
    for (const RunRecord& r : runs)
        for (const auto& [name, value] : r.counters)
            if (startsWith(name, prefix) && endsWith(name, suffix)) {
                total += static_cast<double>(value);
                matched = true;
            }
    if (!matched)
        throw std::runtime_error("no StatRegistry counter matches '" + prefix +
                                 "*" + suffix + "'");
    return total;
}

double ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace

void addLayerCounts(const std::vector<RunRecord>& runs, Outcome& out)
{
    auto sum = [&runs](const std::string& prefix, const std::string& suffix) {
        return sumCounters(runs, prefix, suffix);
    };
    out.set("cpu.remote_stores", sum("cpu.core.", ".remote_stores"), "count");
    const double tlbHits = sum("cpu.tlb.", ".hits");
    out.set("cpu.tlb_hit_ratio",
            ratio(tlbHits, tlbHits + sum("cpu.tlb.", ".misses")), "ratio");
    out.set("gpu.warp_instructions", sum("gpu.sm", ".instructions"), "count");
    out.set("gpu.coalesced_transactions",
            sum("gpu.sm", ".coalesced_transactions"), "count");
    out.set("gpu.l1_hit_ratio",
            ratio(sum("gpu.sm", ".l1.hits"), sum("gpu.sm", ".l1.accesses")),
            "ratio");
    const double deferrals = sum("gpu.l2.", ".deferrals");
    out.set("gpu.l2.deferrals", deferrals, "count");
    out.set("gpu.l2.deferrals_per_demand_access",
            ratio(deferrals, sum("gpu.l2.", ".demand_accesses")), "ratio");
    out.set("coherence.home_transactions", sum("home", ".transactions"),
            "count");
    out.set("coherence.home_queued_requests", sum("home", ".queued_requests"),
            "count");
    out.set("coherence.cpu_snoops", sum("cpu.cache.", "snoops"), "count");
    out.set("mem.dram_reads", sum("dram.", ".reads"), "count");
    out.set("mem.dram_writes", sum("dram.", ".writes"), "count");
    const double rowHits = sum("dram.", ".row_hits");
    out.set("mem.dram_row_hit_ratio",
            ratio(rowHits, rowHits + sum("dram.", ".row_misses")), "ratio");
    for (const char* vnet : {"request", "forward", "response", "ds", "gpu"}) {
        const std::string p = std::string("net.") + vnet;
        out.set(p + ".messages", sum(p + ".messages", ""), "count");
        out.set(p + ".bytes", sum(p + ".bytes", ""), "bytes");
    }

    double accesses = 0, misses = 0, compulsory = 0, fills = 0, bypasses = 0;
    for (const RunRecord& r : runs) {
        accesses += static_cast<double>(r.metrics.gpuL2Accesses);
        misses += static_cast<double>(r.metrics.gpuL2Misses);
        compulsory += static_cast<double>(r.metrics.gpuL2Compulsory);
        fills += static_cast<double>(r.metrics.dsFills);
        bypasses += static_cast<double>(r.metrics.dsBypasses);
    }
    out.set("gpu.l2.miss_ratio", ratio(misses, accesses), "ratio");
    out.set("gpu.l2.compulsory_misses", compulsory, "count");
    out.set("gpu.l2.ds_fill_ratio", ratio(fills, fills + bypasses), "ratio");
}

void addEngineCounts(const std::vector<RunRecord>& runs, Outcome& out)
{
    double events = 0, scheduled = 0, peak = 0, spills = 0;
    for (const RunRecord& r : runs) {
        events += static_cast<double>(r.events);
        scheduled += static_cast<double>(r.scheduleCalls);
        peak = std::max(peak, static_cast<double>(r.peakPending));
        spills += static_cast<double>(r.heapSpills);
    }
    out.set("sim.events", events, "count");
    out.set("sim.schedule_calls", scheduled, "count");
    out.set("sim.peak_pending", peak, "count");
    out.set("sim.heap_spilled_callbacks", spills, "count");
}

double peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

} // namespace perfbench
