// The benchmark's workload runner and the service measurement its traced
// run adds. Together they fill every end-to-end metric (untraced run) or
// every per-layer metric a workload reaches (traced run).
#pragma once

#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// A simulation workload: every listed code under CCSM and direct store at
/// one input size, one run at a time.
struct SimWorkload {
    std::string name;
    dscoh::InputSize size = dscoh::InputSize::kSmall;
    std::vector<std::string> codes;
    /// The traced run also measures the exp, svc and snap layers
    /// (measureService).
    bool serviceLayers = false;
};

Outcome runSimWorkload(const SimWorkload& w, const BenchArgs& a,
                       SpanRecorder& rec);

/// The exp, svc and snap layers: an in-process sweep service with one worker
/// behind its socket, driven by two closed-loop clients for at least two
/// passes and more while @p seconds lasts. Sets the svc.* and snap.*
/// per-layer metrics, counts each request as an operation (its results must
/// match an embedded ExperimentEngine run byte for byte) and records its
/// spans under run ids from @p firstRunId on.
void measureService(const BenchArgs& a, double seconds,
                    std::uint64_t firstRunId, SpanRecorder& rec, Outcome& out);

} // namespace perfbench
