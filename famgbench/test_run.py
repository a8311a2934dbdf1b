"""Self-tests of the benchmark harness (no solver runs; a few seconds).

    python3 -m unittest discover -s famgbench -p 'test_*.py'

The worker's own tests (residual checker, failure counting, tiny
workloads, ledger rows) run with

    cargo test --release --manifest-path famgbench/Cargo.toml
"""

import json
import os
import re
import tempfile
import unittest
from unittest import mock

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def worker_result(**over):
    res = {
        "attempted": 4, "failed": 0, "failures": [],
        "setup_s": [2.0, 1.0, 3.0], "solve_s": [0.5, 0.7],
        "tts_s": [2.5, 3.5], "counts": [{"iterations": 9.0}, {"iterations": 9.0}],
        "peak_rss_mib": 100.0,
    }
    res.update(over)
    return res


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER] + list(run.WORKLOADS)
        for n in names:
            self.assertRegex(n, NAME)
        for _, u in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(u, UNIT)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        self.assertIn(("setup_s", "s"), run.END_TO_END)

    def test_exact_counts_are_per_layer_metrics(self):
        layer = {n for n, _ in run.PER_LAYER}
        self.assertTrue(set(run.EXACT_LAYER) <= layer)

    @unittest.skipUnless(os.path.exists(BENCHMARK), "no BENCHMARK.json beside the benchmark")
    def test_benchmark_json_matches_the_harness(self):
        with open(BENCHMARK) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class Aggregation(unittest.TestCase):
    def test_medians_and_ok_fraction(self):
        m = run.end_to_end(worker_result())
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["solve_s"], 0.6)
        self.assertEqual(m["tts_s"], 3.0)
        self.assertEqual(m["iterations"], 9.0)
        self.assertEqual(m["solve_ok_frac"], 1.0)

    def test_failures_lower_the_ok_fraction(self):
        m = run.end_to_end(worker_result(attempted=8, failed=2))
        self.assertEqual(m["solve_ok_frac"], 0.75)

    def test_cycles_that_disagree_are_reported(self):
        counts, bad = run.exact_counts(worker_result(
            counts=[{"iterations": 9.0}, {"iterations": 10.0}]))
        self.assertEqual(counts, {"iterations": 9.0})
        self.assertEqual(len(bad), 1)

    def test_cycles_that_fail_early_merge_with_full_ones(self):
        counts, bad = run.exact_counts(worker_result(
            counts=[{"iterations": 9.0, "levels": 7.0}, {"levels": 7.0}]))
        self.assertEqual((counts, bad), ({"iterations": 9.0, "levels": 7.0}, []))


class Determinism(unittest.TestCase):
    def test_store_flags_a_changed_count_for_the_same_seed(self):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(run, "OUT", tmp):
            exe = os.path.join(tmp, "worker")
            with open(exe, "wb") as f:
                f.write(b"binary")
            b = run.binary_id(exe)
            self.assertEqual(run.fingerprint_check(b, "w_seed1", {"iterations": 9}), [])
            self.assertEqual(run.fingerprint_check(b, "w_seed1", {"iterations": 9, "x": 1}), [])
            bad = run.fingerprint_check(b, "w_seed1", {"iterations": 10})
            self.assertEqual(len(bad), 1)
            self.assertIn("iterations", bad[0])
            # Another seed, or another binary, starts a fresh record.
            self.assertEqual(run.fingerprint_check(b, "w_seed2", {"iterations": 10}), [])
            with open(exe, "wb") as f:
                f.write(b"rebuilt")
            self.assertNotEqual(run.binary_id(exe), b)
            self.assertEqual(run.fingerprint_check(run.binary_id(exe), "w_seed1", {"iterations": 10}), [])

    def test_worker_env_pins_the_pool_and_drops_solver_switches(self):
        with mock.patch.dict(os.environ, {"RAYON_NUM_THREADS": "7", "FAMG_OVERLAP_COMM": "0"}):
            env = run.worker_env(2)
        self.assertEqual(env["RAYON_NUM_THREADS"], "2")
        self.assertNotIn("FAMG_OVERLAP_COMM", env)


if __name__ == "__main__":
    unittest.main()
