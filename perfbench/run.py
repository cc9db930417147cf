#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload fig4-small --seed 1 --seconds 40 --trace 0

builds the dscoh libraries and the benchmark under .bench_build/, runs the
benchmark's self-tests, measures the workload, writes the full result
(metrics, sample counts, sim_digest, host fingerprint) to .bench_out/ and
prints the result line last:

    {"correct": true, "attempted": 88, "failed": 0, "metrics": {...}}

Compare saved results (refused across different host fingerprints unless
--force is given):

    python3 perfbench/run.py compare --base A.json ... --new B.json ... [--force]
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build")
OUT = Path(".bench_out")
BUILD_TYPE = "RelWithDebInfo"
RUN_LIMIT_S = 170  # a run must end within 180 s once the build is done
WORKLOADS = ("fig4-small", "big-overflow", "nn-big")

# Per-layer metrics a workload's traced run cannot reach; they read 0 there.
# Any other metric missing from a result is an error. Only fig4-small's
# traced run starts the sweep service.
_SVC_LAYERS = ("svc.submit_ms", "svc.queue_wait_ms", "svc.job_ms",
               "snap.produce_cache_hit_ratio")
NOT_REACHED = {
    "fig4-small": (),
    "big-overflow": _SVC_LAYERS,
    "nn-big": _SVC_LAYERS,
}


class BenchError(Exception):
    pass


def sh(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        f.flush()
        done = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = Path(log).read_text().splitlines()[-30:]
        raise BenchError("command failed: %s\n%s" % (" ".join(map(str, cmd)), "\n".join(tail)))


def build():
    """Builds the libraries with the repository's own CMake, then the
    benchmark against them. Returns the benchmark's build directory."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no dscoh sources next to %s" % HERE.name)
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    lib = BUILD / "dscoh"
    bench = BUILD / "perfbench"
    if not (lib / "build.ninja").exists():
        sh(["cmake", "-G", "Ninja", "-S", ROOT, "-B", lib, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], log)
    sh(["cmake", "--build", lib, "-j", jobs, "--target", "dscoh_svc", "dscoh_cli"], log)
    if not (bench / "build.ninja").exists():
        sh(["cmake", "-G", "Ninja", "-S", HERE, "-B", bench, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
            "-DDSCOH_BUILD_DIR=" + str(lib.resolve())], log)
    sh(["cmake", "--build", bench, "-j", jobs], log)
    return bench


def selftest(bench):
    """The benchmark's own arithmetic: C++ (gaps, percentiles, spans) and
    this script's compare refusal."""
    done = subprocess.run([bench / "perfbench_selftest", "--gtest_brief=1"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        raise BenchError("perfbench_selftest failed:\n" + done.stdout)
    sys.path.insert(0, str(HERE))
    sys.dont_write_bytecode = True
    import test_run
    result = unittest.TextTestRunner(stream=open(os.devnull, "w")).run(
        unittest.defaultTestLoader.loadTestsFromModule(test_run))
    if not result.wasSuccessful():
        raise BenchError("perfbench/test_run.py failed: %s" %
                         [str(t) for t, _ in result.failures + result.errors])


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_info():
    """The commit when the checkout is a git work tree, and a content hash
    of the sources either way."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = done.stdout.strip() or None
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(p for d in ("src", "bench", HERE.name)
                                               for p in (ROOT / d).rglob("*")
                                               if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {"git_commit": commit, "tree_sha256": h.hexdigest()}


def steal_ticks():
    """Jiffies the hypervisor ran someone else on this guest's CPUs, and
    all jiffies, from /proc/stat (0, 0 where there is none)."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return 0, 0


def fingerprint(doc):
    """What must match before two results may be compared."""
    return {"cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "compiler": doc["compiler"], "build_type": doc["build_type"]}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fill_not_reached(doc, workload, wanted):
    """Sets NOT_REACHED's metrics of @workload to 0; refuses a result that
    measured one of them."""
    units = {m["name"]: m["unit"] for m in wanted}
    for name in NOT_REACHED[workload]:
        if name in doc["metrics"]:
            raise BenchError("%s measured %s, listed as not reached" % (workload, name))
        doc["metrics"][name] = {"value": 0, "unit": units[name]}


def result_line(doc, names):
    metrics = {}
    for name in names:
        m = doc["metrics"].get(name)
        if m is None or m["value"] is None:
            raise BenchError("metric %s missing from the result" % name)
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": doc["failed"] == 0 and doc["attempted"] > 0,
            "attempted": doc["attempted"], "failed": doc["failed"], "metrics": metrics}


def run(args):
    bench = build()
    selftest(bench)
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    stem = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    out, spans = stem.with_suffix(".json"), Path(str(stem) + "-spans.json")
    for p in (out, spans):
        p.unlink(missing_ok=True)
    cmd = [bench / "perfbench", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--spans", spans, "--work-dir", OUT / "work"]
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    steal0, total0 = steal_ticks()
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench did not finish within %.0f s" % budget)
    if done.returncode != 0:
        raise BenchError("perfbench exited with %d" % done.returncode)
    steal1, total1 = steal_ticks()
    doc = json.loads(out.read_text())
    doc["fingerprint"] = fingerprint(doc)
    # Host noise while measuring: the share of CPU time the hypervisor
    # gave to other guests.
    doc["host_steal_pct"] = 100.0 * (steal1 - steal0) / max(total1 - total0, 1)
    doc["source"] = source_info()
    doc["fail_ratio"] = doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        fill_not_reached(doc, args.workload, wanted)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    line = result_line(doc, [m["name"] for m in wanted])
    print("perfbench %s seed %d trace %d: %d/%d operations failed, sim_digest %s" %
          (args.workload, args.seed, args.trace, doc["failed"], doc["attempted"],
           doc["sim_digest"]))
    print("samples: " + json.dumps(doc["samples"], sort_keys=True))
    print("fingerprint: " + json.dumps(doc["fingerprint"], sort_keys=True))
    print("host steal while measuring: %.1f%%" % doc["host_steal_pct"])
    print("source: " + json.dumps(doc["source"], sort_keys=True))
    for err in doc["errors"]:
        print("error: " + err)
    print("result: %s" % out)
    print(json.dumps(line))
    return 0


class FingerprintMismatch(BenchError):
    pass


def compare(base, new, bench_spec, force=False):
    """Per workload and metric: the median of each side and the change,
    flagged when it is worse than the metric's bound. Returns (regressed,
    lines). Raises FingerprintMismatch when the two sides were measured on
    different hosts or toolchains, unless forced."""
    prints = {json.dumps(d["fingerprint"], sort_keys=True) for d in base + new}
    if len(prints) > 1 and not force:
        raise FingerprintMismatch("results come from different fingerprints:\n  " +
                                  "\n  ".join(sorted(prints)))
    metrics = {m["name"]: m for m in bench_spec["end_to_end"] + bench_spec["per_layer"]}
    lines, regressed = [], False
    keys = sorted({(d["workload"], d["trace"]) for d in base} & {(d["workload"], d["trace"]) for d in new})
    for workload, trace in keys:
        side = [[d for d in docs if d["workload"] == workload and d["trace"] == trace]
                for docs in (base, new)]
        for name in sorted(side[0][0]["metrics"]):
            if name not in metrics:
                continue
            b = statistics.median(d["metrics"][name]["value"] for d in side[0])
            n = statistics.median(d["metrics"][name]["value"] for d in side[1])
            change = (n - b) / b if b else 0.0
            worse = change if metrics[name]["better"] == "lower" else -change
            bound = metrics[name].get("bound")
            flag = ""
            if bound is not None and worse > bound:
                flag, regressed = "  REGRESSION (bound %.0f%%)" % (bound * 100), True
            lines.append("%-16s %-36s %14.6g -> %14.6g  %+7.2f%%%s" %
                         (workload, name, b, n, change * 100, flag))
    return regressed, lines


def compare_main(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    p.add_argument("--force", action="store_true", help="compare across fingerprints")
    a = p.parse_args(argv)
    load = lambda paths: [json.loads(Path(x).read_text()) for x in paths]
    try:
        regressed, lines = compare(load(a.base), load(a.new), spec(), a.force)
    except FingerprintMismatch as e:
        print("refused: %s\n(pass --force to compare anyway)" % e, file=sys.stderr)
        return 3
    print("\n".join(lines))
    return 1 if regressed else 0


def main(argv):
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    p = argparse.ArgumentParser(description="dscoh repository benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.chdir(ROOT)
    try:
        return run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
