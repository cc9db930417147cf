// Simulation workloads: fixed (code, size, mode) sets run one at a time on
// this thread, in a seeded order.
//
// Untraced passes drive each run the way every tool does, through
// WorkloadRun::run(). The traced pass drives the same phases through
// System's public calls, one span per call, and must reproduce the untraced
// ticks and counters exactly.
#include "runners.h"

#include <memory>
#include <stdexcept>

#include "gpu/kernel.h"
#include "workloads/runner.h"

namespace perfbench {

using namespace dscoh;

namespace {

const Workload& workloadOf(const Job& j)
{
    return WorkloadRegistry::instance().get(j.code);
}

void fillEngineCounters(RunRecord& r, EventQueue& q)
{
    r.events = q.executedEvents();
    r.scheduleCalls = q.scheduleCalls();
    r.peakPending = q.peakPending();
    r.heapSpills = q.heapSpilledCallbacks();
}

RunRecord runUntraced(const Job& j)
{
    RunRecord r;
    r.job = j;
    const Clock::time_point t0 = Clock::now();
    try {
        auto run = std::make_unique<WorkloadRun>(workloadOf(j), j.size, j.mode);
        r.setupS = secondsSince(t0);
        const Clock::time_point t1 = Clock::now();
        WorkloadRunResult res = run->run();
        r.simS = secondsSince(t1);
        r.metrics = res.metrics;
        r.counters = std::move(res.statCounters);
        fillEngineCounters(r, run->system().queue());
        r.ok = true;
    } catch (const std::exception& e) {
        r.error = j.key() + ": " + e.what();
    }
    r.totalS = secondsSince(t0);
    return r;
}

/// Closes its span on every path out of a phase, exceptions included.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t runId,
               int parent)
        : rec_(rec), id_(rec.open(name, runId, parent))
    {
    }
    ~ScopedSpan() { rec_.close(id_, events_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int id() const { return id_; }
    void setEvents(std::uint64_t n) { events_ = n; }

private:
    SpanRecorder& rec_;
    int id_;
    std::uint64_t events_ = 0;
};

/// Runs one phase to quiescence inside a span that records its events.
template <class Start>
void runPhase(System& sys, SpanRecorder& rec, const char* name,
              std::uint64_t runId, int root, Start&& start)
{
    ScopedSpan span(rec, name, runId, root);
    const std::uint64_t before = sys.queue().executedEvents();
    start();
    sys.queue().run();
    span.setEvents(sys.queue().executedEvents() - before);
}

/// WorkloadRun::run()'s phases through System's public calls.
RunRecord runTraced(const Job& j, SpanRecorder& rec, std::uint64_t runId)
{
    RunRecord r;
    r.job = j;
    const Clock::time_point t0 = Clock::now();
    ScopedSpan root(rec, "run", runId, -1);
    try {
        SystemConfig cfg;
        cfg.mode = j.mode;
        std::unique_ptr<System> sys;
        {
            ScopedSpan s(rec, "core.system_ctor", runId, root.id());
            sys = std::make_unique<System>(cfg);
        }
        CpuProgram produce;
        std::vector<KernelDesc> kernels;
        {
            ScopedSpan s(rec, "workloads.build", runId, root.id());
            const Workload& w = workloadOf(j);
            Workload::ArrayMap mem;
            for (const ArraySpec& spec : w.arrays(j.size))
                mem[spec.name] = sys->allocateArray(spec.bytes, spec.gpuShared);
            produce = w.cpuProduce(j.size, mem);
            kernels = w.kernels(j.size, mem);
            for (std::size_t i = 0; i < kernels.size(); ++i)
                kernels[i].gpu = static_cast<std::uint32_t>(i % cfg.numGpus);
        }
        r.setupS = secondsSince(t0);
        const Clock::time_point t1 = Clock::now();
        runPhase(*sys, rec, "cpu.produce", runId, root.id(),
                 [&] { sys->runCpuProgram(produce, [] {}); });
        for (const KernelDesc& k : kernels)
            runPhase(*sys, rec, "gpu.kernel", runId, root.id(),
                     [&] { sys->launchKernel(k, [] {}); });
        std::vector<std::string> violations;
        {
            ScopedSpan s(rec, "core.finish", runId, root.id());
            r.metrics = sys->metrics();
            violations = sys->checkCoherenceInvariants();
            for (const std::string& name : sys->stats().counterNames())
                r.counters.emplace(name, sys->stats().counter(name));
        }
        r.simS = secondsSince(t1);
        fillEngineCounters(r, sys->queue());
        {
            ScopedSpan s(rec, "core.teardown", runId, root.id());
            sys.reset();
        }
        if (r.metrics.checkFailures != 0)
            throw std::runtime_error(std::to_string(r.metrics.checkFailures) +
                                     " value mismatches");
        if (!violations.empty())
            throw std::runtime_error("coherence invariant violated: " +
                                     violations.front());
        r.ok = true;
    } catch (const std::exception& e) {
        r.error = j.key() + " (traced): " + e.what();
    }
    r.totalS = secondsSince(t0);
    return r;
}

struct Pass {
    double wall = 0.0;
    double setup = 0.0;
    double sim = 0.0;
    double ticks = 0.0;
    std::vector<RunRecord> runs;
};

/// Runs every job once, checking each against the first pass's outcome of
/// the same job: the simulator is deterministic, so any difference is a
/// failure.
class PassRunner {
public:
    PassRunner(const SimWorkload& w, std::uint64_t seed, Outcome& out)
        : rng_(seed), out_(out)
    {
        for (const std::string& code : w.codes)
            for (const CoherenceMode m :
                 {CoherenceMode::kCcsm, CoherenceMode::kDirectStore})
                jobs_.push_back(Job{code, w.size, m});
    }

    const std::vector<Job>& jobs() const { return jobs_; }
    void reshuffle() { shuffle(jobs_, rng_); }

    Pass run(bool traced, SpanRecorder& rec)
    {
        Pass p;
        const Clock::time_point t0 = Clock::now();
        for (const Job& j : jobs_) {
            RunRecord r =
                traced ? runTraced(j, rec, nextRunId_++) : runUntraced(j);
            ++out_.attempted;
            check(r, traced);
            p.setup += r.setupS;
            p.sim += r.simS;
            p.ticks += static_cast<double>(r.metrics.ticks);
            p.runs.push_back(std::move(r));
        }
        p.wall = secondsSince(t0);
        return p;
    }

    const std::vector<RunRecord>& reference() const { return referenceRuns_; }

private:
    void check(const RunRecord& r, bool traced)
    {
        if (!r.ok) {
            out_.fail(r.error);
            return;
        }
        const auto it = reference_.find(r.job.key());
        if (it == reference_.end()) {
            reference_.emplace(r.job.key(), referenceRuns_.size());
            referenceRuns_.push_back(r);
        } else if (!sameSimulation(referenceRuns_[it->second], r)) {
            out_.fail(r.job.key() +
                      (traced ? ": traced run diverged from WorkloadRun::run()"
                              : ": not deterministic across passes"));
        }
    }

    std::vector<Job> jobs_;
    Rng rng_;
    Outcome& out_;
    std::uint64_t nextRunId_ = 0;
    std::map<std::string, std::size_t> reference_;
    std::vector<RunRecord> referenceRuns_;
};

/// Replays every kernel body for every thread, as the SMs do when they
/// dispatch a block, outside any simulation.
void bodygen(const std::vector<Job>& jobs, SpanRecorder& rec,
             std::uint64_t runId, Outcome& out)
{
    double seconds = 0.0;
    double ops = 0.0;
    for (const Job& j : jobs) {
        SystemConfig cfg;
        cfg.mode = j.mode;
        System sys(cfg);
        const Workload& w = workloadOf(j);
        Workload::ArrayMap mem;
        for (const ArraySpec& spec : w.arrays(j.size))
            mem[spec.name] = sys.allocateArray(spec.bytes, spec.gpuShared);
        const std::vector<KernelDesc> kernels = w.kernels(j.size, mem);
        ScopedSpan span(rec, "workloads.bodygen", runId, -1);
        const Clock::time_point t0 = Clock::now();
        for (const KernelDesc& k : kernels)
            for (std::uint32_t b = 0; b < k.blocks; ++b)
                for (std::uint32_t t = 0; t < k.threadsPerBlock; ++t) {
                    ThreadBuilder tb;
                    k.body(tb, b, t);
                    ops += static_cast<double>(tb.take().size());
                }
        seconds += secondsSince(t0);
    }
    out.set("workloads.bodygen_s", seconds, "s");
    out.set("workloads.gpu_ops", ops, "count");
}

void endToEnd(PassRunner& runner, const SimWorkload& w, const BenchArgs& a,
              Outcome& out, SpanRecorder& rec)
{
    const Clock::time_point start = Clock::now();
    std::vector<Pass> passes;
    // At least two passes; another only while it should fit in the budget.
    do {
        runner.reshuffle();
        passes.push_back(runner.run(false, rec));
    } while (passes.size() < 2 ||
             secondsSince(start) + passes.back().wall <= a.seconds);

    PassSamples samples;
    std::vector<RunRecord> runs;
    for (const Pass& p : passes) {
        samples.wall.push_back(p.wall);
        samples.setup.push_back(p.setup);
        samples.tickRate.push_back(p.sim > 0.0 ? p.ticks / p.sim : 0.0);
        samples.opsPerS.push_back(static_cast<double>(p.runs.size()) / p.wall);
        runs.insert(runs.end(), p.runs.begin(), p.runs.end());
    }
    // An operation is one job; its latency is its median over the passes.
    for (const auto& [key, seconds] : medianSecondsPerJob(runs)) {
        samples.latencyMs.push_back(seconds * 1e3);
        samples.slowestS = std::max(samples.slowestS, seconds);
    }
    setEndToEnd(samples, modePairs(runner.reference()), w.size, out);
}

/// Sum of the durations of the spans named @p name among @p spans[from, to).
double spanSeconds(const std::vector<Span>& spans, std::size_t from,
                   std::size_t to, const std::string& name,
                   std::uint64_t* events = nullptr)
{
    double total = 0.0;
    for (std::size_t i = from; i < to; ++i)
        if (spans[i].name == name) {
            total += spans[i].duration();
            if (events != nullptr)
                *events += spans[i].events;
        }
    return total;
}

void perLayer(PassRunner& runner, const BenchArgs& a, Outcome& out,
              SpanRecorder& rec)
{
    const Clock::time_point start = Clock::now();
    std::vector<double> overhead;
    struct Window {
        std::size_t from, to;
    };
    std::vector<Window> traced;
    double lastPair = 0.0;
    // Untraced and traced passes in pairs, alternating which goes first.
    do {
        runner.reshuffle();
        const Clock::time_point t0 = Clock::now();
        const bool tracedFirst = traced.size() % 2 == 1;
        Pass plain, withSpans;
        const std::size_t from = rec.spans().size();
        if (tracedFirst) {
            withSpans = runner.run(true, rec);
            plain = runner.run(false, rec);
        } else {
            plain = runner.run(false, rec);
            withSpans = runner.run(true, rec);
        }
        traced.push_back(Window{from, rec.spans().size()});
        out.passWalls.push_back(tracedFirst ? withSpans.wall : plain.wall);
        out.passWalls.push_back(tracedFirst ? plain.wall : withSpans.wall);
        overhead.push_back((withSpans.wall - plain.wall) / plain.wall * 100.0);
        lastPair = secondsSince(t0);
    } while (secondsSince(start) + lastPair <= a.seconds);

    const std::vector<Span>& spans = rec.spans();
    std::vector<double> ctor, build, produce, kernel, finish;
    std::vector<double> produceNs, kernelNs, hostNs;
    for (const Window& w : traced) {
        std::uint64_t produceEv = 0, kernelEv = 0;
        ctor.push_back(spanSeconds(spans, w.from, w.to, "core.system_ctor"));
        build.push_back(spanSeconds(spans, w.from, w.to, "workloads.build"));
        produce.push_back(
            spanSeconds(spans, w.from, w.to, "cpu.produce", &produceEv));
        kernel.push_back(
            spanSeconds(spans, w.from, w.to, "gpu.kernel", &kernelEv));
        finish.push_back(spanSeconds(spans, w.from, w.to, "core.finish"));
        const auto nsPerEvent = [](double seconds, std::uint64_t events) {
            return events ? seconds * 1e9 / static_cast<double>(events) : 0.0;
        };
        produceNs.push_back(nsPerEvent(produce.back(), produceEv));
        kernelNs.push_back(nsPerEvent(kernel.back(), kernelEv));
        hostNs.push_back(nsPerEvent(produce.back() + kernel.back(),
                                    produceEv + kernelEv));
    }
    bodygen(runner.jobs(), rec, ~std::uint64_t{0}, out);

    out.set("core.system_ctor_s", median(ctor), "s");
    out.set("workloads.build_s", median(build), "s");
    out.set("cpu.produce_s", median(produce), "s");
    out.set("cpu.produce_ns_per_event", median(produceNs), "ns");
    out.set("gpu.kernel_s", median(kernel), "s");
    out.set("gpu.kernel_ns_per_event", median(kernelNs), "ns");
    out.set("sim.host_ns_per_event", median(hostNs), "ns");
    out.set("core.finish_s", median(finish), "s");
    out.set("trace.overhead_pct", median(overhead), "%");
    out.samples["pairs"] = static_cast<double>(traced.size());
}

} // namespace

Outcome runSimWorkload(const SimWorkload& w, const BenchArgs& a,
                       SpanRecorder& rec)
{
    Outcome out;
    PassRunner runner(w, a.seed, out);
    if (a.trace) {
        const Clock::time_point start = Clock::now();
        perLayer(runner, a, out, rec);
        // Run ids below the span count are taken: every run opened a span.
        if (w.serviceLayers)
            measureService(a, a.seconds - secondsSince(start),
                           rec.spans().size(), rec, out);
        checkCoverage(rec, {"run", "svc.request"}, out);
    } else
        endToEnd(runner, w, a, out, rec);
    // Counts are per pass: the reference holds one run of every job.
    addLayerCounts(runner.reference(), out);
    addEngineCounts(runner.reference(), out);
    out.simDigest = simDigest(runner.reference());
    return out;
}

} // namespace perfbench
