// The exp, svc and snap layers, measured in fig4-small's traced run: an
// in-process SweepService behind its Unix-socket server, one worker, driven
// through the dscoh-svc-v1 protocol by two closed-loop clients. Each client
// submits one small request (1-2 codes, both modes) and polls its status
// until it is done before sending the next. One thread drives both clients,
// so the benchmark adds a single thread beside the service's worker and
// socket server.
//
// Every pass starts from an empty state directory, so the first request for
// a code runs its produce phase and later ones restore it from the produce
// cache. Each pass's stream holds every code the same number of times; the
// seed decides the order and how codes pair up into requests.
//
// The service is not a gated workload of its own: every job it runs appends
// to fsync'ed journals and status files, so its host time follows the
// disk's fsync latency, which a shared host does not hold steady.
#include "runners.h"

#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "exp/experiment_engine.h"
#include "obs/json_lite.h"
#include "svc/client.h"
#include "svc/request.h"
#include "svc/server.h"
#include "svc/service.h"

namespace perfbench {

using namespace dscoh;
namespace fs = std::filesystem;

namespace {

const std::vector<std::string> kCodes = {"VA", "BP", "NW", "HT", "BL", "CH"};
constexpr int kRepeatsPerPass = 4;
// One worker keeps the service to about one busy CPU, like the simulations.
constexpr unsigned kWorkers = 1;
// Time between status polls. A request takes 50-500 ms, so polling adds
// about 1% to its latency and leaves the socket server mostly idle.
constexpr double kPollSeconds = 0.005;
constexpr double kRequestTimeoutSeconds = 120.0;

struct Plan {
    std::string tenant;
    std::vector<std::string> codes;
};

/// One pass's request stream for each of the two clients: every code
/// kRepeatsPerPass times, in requests that alternate between one and two
/// codes. The seed decides the order and the pairing, not the shape.
std::array<std::vector<Plan>, 2> planPass(Rng& rng)
{
    std::vector<std::string> slots;
    for (int r = 0; r < kRepeatsPerPass; ++r)
        slots.insert(slots.end(), kCodes.begin(), kCodes.end());
    shuffle(slots, rng);
    std::array<std::vector<Plan>, 2> plans;
    std::size_t next = 0;
    for (std::size_t i = 0; i < slots.size(); ++next) {
        Plan p;
        p.tenant = next % 2 == 0 ? "client-a" : "client-b";
        p.codes.push_back(slots[i++]);
        if (next / 2 % 2 == 1 && i < slots.size()) {
            // A code twice in one request would be one job run twice:
            // swap a different code in from later in the stream.
            std::size_t j = i;
            while (j < slots.size() && slots[j] == p.codes[0])
                ++j;
            if (j < slots.size()) {
                std::swap(slots[i], slots[j]);
                p.codes.push_back(slots[i++]);
            }
        }
        plans[next % 2].push_back(std::move(p));
    }
    return plans;
}

svc::SweepRequest requestOf(const Plan& p)
{
    svc::SweepRequest r;
    r.tenant = p.tenant;
    r.size = InputSize::kSmall;
    r.codes = p.codes;
    return r;
}

std::string joined(const std::vector<std::string>& v)
{
    std::string s;
    for (const std::string& x : v)
        s += x + ",";
    return s;
}

/// The results every request must publish, from an embedded
/// ExperimentEngine run of each (code, mode) job, assembled in the order
/// the request expands to.
class Reference {
public:
    explicit Reference(Outcome& out)
    {
        const ExperimentEngine engine(1);
        for (ExperimentResult& r : engine.run(makeSweepJobs(
                 kCodes, {InputSize::kSmall},
                 {CoherenceMode::kCcsm, CoherenceMode::kDirectStore}))) {
            if (!r.ok)
                out.fail("reference " + r.job.code + ": " + r.error);
            results_.emplace(keyOf(r.job), std::move(r));
        }
    }

    /// results.json bytes for @p p; empty when the request does not expand.
    const std::string& expected(const Plan& p)
    {
        auto [it, fresh] = expected_.try_emplace(joined(p.codes));
        if (fresh) {
            std::vector<ExperimentJob> jobs;
            std::string error;
            if (!svc::expandJobs(requestOf(p), &jobs, &error))
                return it->second;
            std::vector<ExperimentResult> rs;
            for (const ExperimentJob& j : jobs)
                rs.push_back(results_.at(keyOf(j)));
            std::ostringstream os;
            writeResultsJson(os, rs);
            it->second = os.str();
        }
        return it->second;
    }

private:
    static std::string keyOf(const ExperimentJob& j)
    {
        return j.code + "/" + to_string(j.mode);
    }

    std::map<std::string, ExperimentResult> results_;
    std::map<std::string, std::string> expected_;
};

/// A protocol call whose reply parsed as a JSON object with "ok": true.
jsonlite::ValuePtr call(const svc::SvcClient& c, const std::string& line,
                        std::string* error)
{
    std::string reply;
    if (!c.call(line, &reply, error))
        return nullptr;
    std::string perr;
    jsonlite::ValuePtr v = jsonlite::parse(reply, perr);
    const jsonlite::Value* ok = v ? v->get("ok") : nullptr;
    if (ok == nullptr || !ok->boolean) {
        *error = "reply: " + reply;
        return nullptr;
    }
    return v;
}

std::string stringField(const jsonlite::Value* v, const char* key)
{
    const jsonlite::Value* f = v ? v->get(key) : nullptr;
    return f != nullptr && f->isString() ? f->string : std::string();
}

double numberField(const jsonlite::Value* v, const char* key)
{
    const jsonlite::Value* f = v ? v->get(key) : nullptr;
    return f != nullptr && f->isNumber() ? f->number : 0.0;
}

struct RequestOutcome {
    Plan plan;
    bool ok = false;
    std::string error;
    std::string dir;
    double latencyS = 0.0;
    double submitS = 0.0;
    double queueWaitS = 0.0;
};

/// A request one of the clients has in flight.
struct InFlight {
    RequestOutcome o;
    std::string id;
    std::uint64_t runId = 0;
    int root = -1;
    int wait = -1;
    Clock::time_point t0;
    Clock::time_point acked;
    bool started = false;
};

/// Both closed-loop clients, driven from this one thread: each keeps one
/// request in flight and submits its next as soon as a status poll shows
/// the last one terminal. Spans cover each request with its submit and its
/// wait.
class Clients {
public:
    Clients(const std::string& socket,
            const std::array<std::vector<Plan>, 2>& plans, SpanRecorder& rec,
            std::uint64_t& nextRunId)
        : client_(socket), plans_(plans), rec_(rec), nextRunId_(nextRunId)
    {
    }

    std::vector<RequestOutcome> run()
    {
        for (std::size_t c = 0; c < 2; ++c)
            submitNext(c);
        while (flying_[0] || flying_[1]) {
            bool progressed = false;
            for (std::size_t c = 0; c < 2; ++c)
                if (flying_[c] && poll(*flying_[c])) {
                    flying_[c].reset();
                    submitNext(c);
                    progressed = true;
                }
            if (!progressed)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(kPollSeconds));
        }
        return std::move(outcomes_);
    }

private:
    /// Submits client @p c's next request; a refused one is recorded
    /// and the one after it tried.
    void submitNext(std::size_t c)
    {
        while (next_[c] < plans_[c].size()) {
            InFlight f;
            f.o.plan = plans_[c][next_[c]++];
            f.runId = nextRunId_++;
            f.root = rec_.open("svc.request", f.runId, -1);
            f.t0 = Clock::now();
            const int span = rec_.open("svc.submit", f.runId, f.root);
            std::string error;
            const std::string request =
                svc::jsonEscape(svc::renderRequestJson(requestOf(f.o.plan)));
            const jsonlite::ValuePtr ack = call(
                client_,
                "{\"op\": \"submit\", \"request\": \"" + request + "\"}",
                &error);
            f.o.submitS = secondsSince(f.t0);
            rec_.close(span);
            f.acked = Clock::now();
            f.id = stringField(ack.get(), "id");
            f.o.dir = stringField(ack.get(), "dir");
            if (ack != nullptr && !f.id.empty()) {
                f.wait = rec_.open("svc.wait", f.runId, f.root);
                flying_[c] = std::move(f);
                return;
            }
            f.o.error = "submit failed: " + error;
            finish(f);
        }
    }

    /// One status call; true once @p f is terminal (and recorded).
    bool poll(InFlight& f)
    {
        std::string error;
        const jsonlite::ValuePtr st = call(
            client_, "{\"op\": \"status\", \"id\": \"" + f.id + "\"}",
            &error);
        const std::string state =
            stringField(st ? st->get("status") : nullptr, "state");
        if (!f.started && state != "queued") {
            f.o.queueWaitS = secondsSince(f.acked);
            f.started = true;
        }
        if (state == "done") {
            f.o.ok = true;
        } else if (st == nullptr || state == "failed" ||
                   state == "cancelled") {
            f.o.error = f.id + " ended '" + state + "' " + error;
        } else if (secondsSince(f.t0) > kRequestTimeoutSeconds) {
            f.o.error = f.id + " timed out";
        } else {
            return false;
        }
        rec_.close(f.wait);
        finish(f);
        return true;
    }

    void finish(InFlight& f)
    {
        f.o.latencyS = secondsSince(f.t0);
        rec_.close(f.root);
        outcomes_.push_back(std::move(f.o));
    }

    const svc::SvcClient client_;
    const std::array<std::vector<Plan>, 2>& plans_;
    SpanRecorder& rec_;
    std::uint64_t& nextRunId_;
    std::array<std::size_t, 2> next_{};
    std::array<std::optional<InFlight>, 2> flying_;
    std::vector<RequestOutcome> outcomes_;
};

/// A started service and its socket server; stops and joins on every path.
class RunningService {
public:
    RunningService(const std::string& stateDir, std::string socket)
        : socket_(std::move(socket))
    {
        svc::ServiceOptions so;
        so.stateDir = stateDir;
        so.workers = kWorkers;
        svc_ = std::make_unique<svc::SweepService>(so);
        svc::ServerOptions sv;
        sv.socketPath = socket_;
        server_ = std::thread(
            [this, sv] { svc::serveSocket(*svc_, sv, stop_); });
        const svc::SvcClient client(socket_);
        std::string error;
        const Clock::time_point t0 = Clock::now();
        while (call(client, "{\"op\": \"ping\"}", &error) == nullptr) {
            if (secondsSince(t0) > 10.0) {
                stop_ = true;
                server_.join();
                throw std::runtime_error("service did not answer: " + error);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    ~RunningService()
    {
        std::string error;
        call(svc::SvcClient(socket_), "{\"op\": \"shutdown\"}", &error);
        stop_ = true;
        server_.join();
    }
    RunningService(const RunningService&) = delete;
    RunningService& operator=(const RunningService&) = delete;

    const std::string& socket() const { return socket_; }

private:
    std::string socket_;
    std::unique_ptr<svc::SweepService> svc_;
    std::atomic<bool> stop_{false};
    std::thread server_; ///< declared after the members it uses
};

struct SvcPass {
    double jobMs = 0.0; ///< summed job wall time, from the stats op
    double jobs = 0.0;
    double cacheHits = 0.0;
    double cacheMisses = 0.0;
    std::vector<RequestOutcome> outcomes;
};

std::string readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

class SvcRunner {
public:
    SvcRunner(const BenchArgs& a, std::uint64_t firstRunId, Outcome& out)
        : rng_(a.seed), out_(out), ref_(out),
          stateDir_(a.workDir + "/svc-state"), socket_(a.workDir + "/svc.sock"),
          nextRunId_(firstRunId)
    {
        fs::create_directories(a.workDir);
    }

    SvcPass run(SpanRecorder& rec)
    {
        SvcPass p;
        const std::array<std::vector<Plan>, 2> plans = planPass(rng_);
        fs::remove_all(stateDir_);
        const RunningService service(stateDir_, socket_);
        p.outcomes = Clients(service.socket(), plans, rec, nextRunId_).run();
        readStats(service, p);
        verify(p);
        return p;
    }

private:
    void readStats(const RunningService& service, SvcPass& p)
    {
        std::string error;
        const jsonlite::ValuePtr v =
            call(svc::SvcClient(service.socket()), "{\"op\": \"stats\"}",
                 &error);
        const jsonlite::Value* stats = v ? v->get("stats") : nullptr;
        if (stats == nullptr) {
            out_.fail("stats op failed: " + error);
            return;
        }
        const jsonlite::Value* cache = stats->get("produceCache");
        p.cacheHits = numberField(cache, "hits");
        p.cacheMisses = numberField(cache, "misses");
        const jsonlite::Value* jobs = stats->get("jobLatencyMs");
        p.jobs = numberField(jobs, "samples");
        p.jobMs = p.jobs * numberField(jobs, "mean");
    }

    /// Counts every request and checks each done one's published results
    /// byte for byte against the embedded reference.
    void verify(const SvcPass& p)
    {
        for (const RequestOutcome& o : p.outcomes) {
            ++out_.attempted;
            if (!o.ok)
                out_.fail(joined(o.plan.codes) + " " + o.error);
            else if (const std::string& want = ref_.expected(o.plan);
                     want.empty() ||
                     readFile(o.dir + "/results.json") != want)
                out_.fail(o.dir +
                          "/results.json differs from the embedded run");
        }
    }

    Rng rng_;
    Outcome& out_;
    Reference ref_;
    std::string stateDir_;
    std::string socket_;
    std::uint64_t nextRunId_;
};

} // namespace

void measureService(const BenchArgs& a, double seconds,
                    std::uint64_t firstRunId, SpanRecorder& rec, Outcome& out)
{
    SvcRunner runner(a, firstRunId, out);
    const Clock::time_point start = Clock::now();
    std::vector<double> submitMs, waitMs;
    double jobMs = 0.0, jobs = 0.0, hits = 0.0, misses = 0.0;
    std::size_t passes = 0;
    double lastPass = 0.0;
    // At least two passes; another only while it should fit in the budget.
    do {
        const Clock::time_point t0 = Clock::now();
        const SvcPass p = runner.run(rec);
        for (const RequestOutcome& o : p.outcomes) {
            submitMs.push_back(o.submitS * 1e3);
            waitMs.push_back(o.queueWaitS * 1e3);
        }
        jobMs += p.jobMs;
        jobs += p.jobs;
        hits += p.cacheHits;
        misses += p.cacheMisses;
        ++passes;
        lastPass = secondsSince(t0);
    } while (passes < 2 || secondsSince(start) + lastPass <= seconds);

    out.set("svc.submit_ms", median(submitMs), "ms");
    out.set("svc.queue_wait_ms", median(waitMs), "ms");
    out.set("svc.job_ms", jobs > 0.0 ? jobMs / jobs : 0.0, "ms");
    out.set("snap.produce_cache_hit_ratio",
            hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
    out.samples["service_passes"] = static_cast<double>(passes);
    out.samples["service_requests"] = static_cast<double>(submitMs.size());
}

} // namespace perfbench
