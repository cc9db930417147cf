"""Self-test of run.py: the compare path refuses results from different host
fingerprints unless forced and flags a change past a metric's bound; only
the metrics a workload is listed as not reaching read 0. Run with:
python3 perfbench/test_run.py"""

import unittest

import run

SPEC = {
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                   {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
    "per_layer": [{"name": "sim.events", "unit": "count", "better": "lower"}],
}


def doc(wall, rate=10.0, cpu="cpu-a", nproc=4):
    return {"workload": "fig4-small", "trace": 0,
            "fingerprint": {"cpu_model": cpu, "nproc": nproc, "compiler": "gcc 12",
                            "build_type": "RelWithDebInfo"},
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "req_per_s": {"value": rate, "unit": "1/s"}}}


class CompareTest(unittest.TestCase):
    def test_refuses_different_fingerprints(self):
        for other in (doc(1.0, cpu="cpu-b"), doc(1.0, nproc=8)):
            with self.assertRaises(run.FingerprintMismatch):
                run.compare([doc(1.0)], [other], SPEC)

    def test_force_compares_anyway(self):
        regressed, lines = run.compare([doc(1.0)], [doc(1.0, cpu="cpu-b")], SPEC, force=True)
        self.assertFalse(regressed)
        self.assertEqual(len(lines), 2)

    def test_flags_change_past_bound_in_the_worse_direction(self):
        regressed, _ = run.compare([doc(1.0)], [doc(1.05)], SPEC)
        self.assertFalse(regressed)
        regressed, lines = run.compare([doc(1.0)], [doc(1.2)], SPEC)
        self.assertTrue(regressed)
        self.assertIn("REGRESSION", [l for l in lines if "wall_s" in l][0])
        regressed, _ = run.compare([doc(1.0, rate=10.0)], [doc(1.0, rate=8.0)], SPEC)
        self.assertTrue(regressed)
        regressed, _ = run.compare([doc(1.0, rate=10.0)], [doc(0.5, rate=20.0)], SPEC)
        self.assertFalse(regressed)

    def test_medians_over_runs(self):
        regressed, _ = run.compare([doc(1.0), doc(1.0), doc(5.0)],
                                   [doc(1.05), doc(9.0), doc(1.0)], SPEC)
        self.assertFalse(regressed)


class NotReachedTest(unittest.TestCase):
    WANTED = [{"name": n, "unit": "ms", "better": "lower"} for n in run.NOT_REACHED["nn-big"]] + \
        [{"name": "sim.events", "unit": "count", "better": "lower"}]

    def test_zeroes_only_the_listed_metrics(self):
        d = {"metrics": {"sim.events": {"value": 5, "unit": "count"}}}
        run.fill_not_reached(d, "nn-big", self.WANTED)
        self.assertEqual(d["metrics"]["svc.job_ms"], {"value": 0, "unit": "ms"})
        self.assertEqual(d["metrics"]["sim.events"]["value"], 5)

    def test_other_missing_metric_is_an_error(self):
        d = {"failed": 0, "attempted": 1, "metrics": {}}
        run.fill_not_reached(d, "nn-big", self.WANTED)
        with self.assertRaises(run.BenchError):
            run.result_line(d, [m["name"] for m in self.WANTED])

    def test_refuses_a_measured_not_reached_metric(self):
        d = {"metrics": {"svc.job_ms": {"value": 3.0, "unit": "ms"}}}
        with self.assertRaises(run.BenchError):
            run.fill_not_reached(d, "nn-big", self.WANTED)


if __name__ == "__main__":
    unittest.main()
