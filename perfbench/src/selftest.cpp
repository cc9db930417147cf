// Self-test of the benchmark's own arithmetic on hand-made inputs.
#include <gtest/gtest.h>

#include "measure.h"
#include "report.h"

namespace perfbench {
namespace {

TEST(Fig4Gap, UsesGeomeanOfNonZeroSpeedups)
{
    // Speed-ups of 10% and 40% (geomean 20%) plus one zero row, which the
    // paper's "non-zero" geomean leaves out.
    const std::vector<ModePair> rows = {
        {110, 100, 0.0, 0.0}, {140, 100, 0.0, 0.0}, {100, 100, 0.0, 0.0}};
    EXPECT_NEAR(fig4GapPp(rows, 7.8), 20.0 - 7.8, 1e-9);
    EXPECT_NEAR(fig4GapPp(rows, 25.0), 5.0, 1e-9);
}

TEST(Fig5Gap, GeomeanDropAgainstThePaper)
{
    // CCSM 20% and 5% (geomean 10%), DS 5% and 5% (geomean 5%): a 5 pp drop.
    // The third row's CCSM rate is under 0.5% and is filtered out; the
    // fourth's zero DS rate is clamped to 0.01%.
    const std::vector<ModePair> rows = {{1, 1, 0.20, 0.05},
                                        {1, 1, 0.05, 0.05},
                                        {1, 1, 0.004, 0.0}};
    EXPECT_NEAR(fig5GapPp(rows, 2.0), 3.0, 1e-9);
    const std::vector<ModePair> clamped = {{1, 1, 0.01, 0.0}};
    EXPECT_NEAR(fig5GapPp(clamped, 0.0), 1.0 - 0.01, 1e-9);
}

TEST(Percentiles, InterpolateBetweenRanks)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 90.0), 9.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentiles, HighestWithTenSamplesBeyond)
{
    EXPECT_EQ(supportedPercentile(19), 0.0);
    EXPECT_EQ(supportedPercentile(20), 50.0);
    EXPECT_EQ(supportedPercentile(39), 50.0);
    EXPECT_EQ(supportedPercentile(40), 75.0);
    EXPECT_EQ(supportedPercentile(99), 75.0);
    EXPECT_EQ(supportedPercentile(100), 90.0);
    EXPECT_EQ(supportedPercentile(200), 95.0);
    EXPECT_EQ(supportedPercentile(1000), 99.0);
    EXPECT_EQ(supportedPercentile(10000), 99.9);
}

Span span(const char* name, int parent, double start, double end)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.start = start;
    s.end = end;
    return s;
}

TEST(Spans, SelfTimeAndCoverage)
{
    SpanRecorder rec;
    const int root = rec.add(span("run", -1, 0.0, 10.0));
    rec.add(span("a", root, 1.0, 4.0));
    const int b = rec.add(span("b", root, 3.0, 6.0)); // overlaps a by 1
    rec.add(span("c", root, 9.0, 12.0));             // clipped at 10
    rec.add(span("b.child", b, 3.0, 5.0));           // not a child of root
    EXPECT_DOUBLE_EQ(rec.covered(root), 5.0 + 1.0);
    EXPECT_DOUBLE_EQ(rec.selfTime(root), 4.0);
    EXPECT_DOUBLE_EQ(rec.selfTime(b), 1.0);
    const int leaf = rec.add(span("leaf", -1, 2.0, 2.5));
    EXPECT_DOUBLE_EQ(rec.covered(leaf), 0.0);
    EXPECT_DOUBLE_EQ(rec.selfTime(leaf), 0.5);
}

TEST(Spans, RecordedSpansNest)
{
    SpanRecorder rec;
    const int root = rec.open("run", 7, -1);
    const int child = rec.open("child", 7, root);
    rec.close(child, 42);
    rec.close(root);
    const std::vector<Span>& s = rec.spans();
    EXPECT_LE(s[0].start, s[1].start);
    EXPECT_LE(s[1].end, s[0].end);
    EXPECT_EQ(s[1].events, 42u);
    EXPECT_EQ(s[1].runId, 7u);
    EXPECT_NEAR(rec.covered(root), s[1].duration(), 1e-12);
}

TEST(EndToEnd, JobLatencyIsItsMedianOverPasses)
{
    std::vector<RunRecord> runs;
    for (const auto& [code, seconds] :
         std::vector<std::pair<std::string, double>>{
             {"VA", 1.0}, {"VA", 1.2}, {"VA", 9.0}, {"MM", 2.0}, {"MM", 2.0}})
    {
        RunRecord r;
        r.job.code = code;
        r.totalS = seconds;
        runs.push_back(r);
    }
    const std::map<std::string, double> m = medianSecondsPerJob(runs);
    ASSERT_EQ(m.size(), 2u);
    EXPECT_DOUBLE_EQ(m.at(runs[0].job.key()), 1.2);
    EXPECT_DOUBLE_EQ(m.at(runs[3].job.key()), 2.0);
}

TEST(EndToEnd, MediansOverPassesAndPercentilesOfLatencies)
{
    PassSamples s;
    s.wall = {1.0, 3.0, 2.0};
    s.setup = s.tickRate = s.wall;
    s.opsPerS = {4.0, 1.0, 2.0};
    s.latencyMs = {1.0, 2.0, 3.0};
    s.slowestS = 0.003;
    Outcome out;
    setEndToEnd(s, {}, dscoh::InputSize::kSmall, out);
    EXPECT_DOUBLE_EQ(out.metrics["wall_s"].value, 2.0);
    EXPECT_DOUBLE_EQ(out.metrics["req_per_s"].value, 2.0);
    EXPECT_DOUBLE_EQ(out.metrics["req_p50_ms"].value, 2.0);
    EXPECT_DOUBLE_EQ(out.metrics["req_p90_ms"].value, 2.8);
    EXPECT_DOUBLE_EQ(out.metrics["slowest_run_s"].value, 0.003);
    EXPECT_DOUBLE_EQ(out.samples["latencies"], 3.0);
}

TEST(LayerCounts, CounterFamilyWithNoCounterThrows)
{
    RunRecord r;
    r.ok = true;
    Outcome out;
    EXPECT_THROW(addLayerCounts({r}, out), std::runtime_error);
}

} // namespace
} // namespace perfbench
