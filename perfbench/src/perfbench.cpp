// perfbench: runs one benchmark workload for a time budget and writes its
// metrics, sample counts and sim_digest as one JSON document, plus the
// traced run's spans. perfbench/run.py builds it, adds the host
// fingerprint and prints the result line.
//
//   perfbench --workload fig4-small --seed 1 --seconds 40 --trace 0
//             --out result.json --spans spans.json --work-dir scratch/
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "cli/options.h"
#include "runners.h"
#include "svc/request.h"

using namespace perfbench;

namespace {

const char* compilerId()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/// Why each simulation workload was chosen is in perfbench/README.md.
std::vector<SimWorkload> simWorkloads()
{
    return {
        {"fig4-small", dscoh::InputSize::kSmall,
         dscoh::WorkloadRegistry::instance().codes(), true},
        {"big-overflow", dscoh::InputSize::kBig, {"VA", "MM", "ST"}},
        {"nn-big", dscoh::InputSize::kBig, {"NN"}},
    };
}

std::string quoted(const std::string& s)
{
    return "\"" + dscoh::svc::jsonEscape(s) + "\"";
}

std::string number(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

void writeResult(std::ostream& os, const BenchArgs& a, const Outcome& out,
                 const std::string& spansPath, std::size_t spanCount)
{
    os << "{\"schema\": \"perfbench-result-v1\", \"workload\": "
       << quoted(a.workload) << ", \"seed\": " << a.seed
       << ", \"seconds\": " << number(a.seconds)
       << ", \"trace\": " << (a.trace ? 1 : 0)
       << ", \"compiler\": " << quoted(compilerId())
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"errors\": [";
    for (std::size_t i = 0; i < out.errors.size(); ++i)
        os << (i ? ", " : "") << quoted(out.errors[i]);
    os << "], \"sim_digest\": " << quoted(out.simDigest) << ", \"samples\": {";
    bool first = true;
    for (const auto& [name, n] : out.samples) {
        os << (first ? "" : ", ") << quoted(name) << ": " << number(n);
        first = false;
    }
    os << "}, \"pass_wall_s\": [";
    for (std::size_t i = 0; i < out.passWalls.size(); ++i)
        os << (i ? ", " : "") << number(out.passWalls[i]);
    os << "], \"metrics\": {";
    first = true;
    for (const auto& [name, m] : out.metrics) {
        os << (first ? "" : ", ") << quoted(name)
           << ": {\"value\": " << number(m.value)
           << ", \"unit\": " << quoted(m.unit) << "}";
        first = false;
    }
    os << "}, \"spans\": " << quoted(spansPath)
       << ", \"span_count\": " << spanCount << "}\n";
}

void writeSpans(std::ostream& os, const SpanRecorder& rec)
{
    const std::vector<Span>& spans = rec.spans();
    os << "{\"schema\": \"perfbench-spans-v1\", \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\": " << quoted(s.name)
           << ", \"run\": " << s.runId << ", \"parent\": " << s.parent
           << ", \"start_s\": " << number(s.start)
           << ", \"end_s\": " << number(s.end) << ", \"self_s\": "
           << number(rec.selfTime(static_cast<int>(i)))
           << ", \"events\": " << s.events << "}";
    }
    os << "]}\n";
}

} // namespace

int main(int argc, char** argv)
{
    BenchArgs a;
    std::uint64_t seconds = 0;
    std::uint64_t trace = 0;
    std::string outPath;
    std::string spansPath;
    a.workDir = ".bench_out/work";
    dscoh::cli::OptionParser parser("perfbench", "dscoh repository benchmark");
    parser.addString("workload",
                     "fig4-small | big-overflow | nn-big",
                     &a.workload);
    parser.addUint("seed", "run order and service request stream", &a.seed);
    parser.addUint("seconds",
                   "measurement budget in seconds (at least two passes run)",
                   &seconds);
    parser.addUint("trace", "0: end-to-end metrics, 1: traced per-layer run",
                   &trace);
    parser.addString("out", "result document (JSON)", &outPath);
    parser.addString("spans", "span dump (JSON)", &spansPath);
    parser.addString("work-dir", "scratch directory for the service",
                     &a.workDir);
    if (!parser.parse(argc, argv, std::cerr))
        return 2;
    if (outPath.empty() || spansPath.empty() || trace > 1 || seconds == 0) {
        std::cerr << "perfbench: --out and --spans are required, --trace is "
                     "0 or 1, --seconds is positive\n";
        return 2;
    }
    a.seconds = static_cast<double>(seconds);
    a.trace = trace == 1;

    SpanRecorder rec;
    Outcome out;
    try {
        bool known = false;
        for (const SimWorkload& w : simWorkloads())
            if (w.name == a.workload) {
                out = runSimWorkload(w, a, rec);
                known = true;
            }
        if (!known) {
            std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    std::ofstream spansFile(spansPath);
    writeSpans(spansFile, rec);
    std::ofstream outFile(outPath);
    writeResult(outFile, a, out, spansPath, rec.spans().size());
    spansFile.close();
    outFile.close();
    if (!spansFile || !outFile) {
        std::cerr << "perfbench: cannot write " << outPath << " or "
                  << spansPath << "\n";
        return 1;
    }
    return 0;
}
