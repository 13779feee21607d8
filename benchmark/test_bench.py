#!/usr/bin/env python3
"""The benchmark's own tests (about a minute, after the first build).

    python3 benchmark/test_bench.py
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = 2

# Counts that must repeat exactly for one seed, by the workload that
# produces them; later changes may rest claims on them.
REPEATABLE = {
    "ring-epoch": ["delaymodel.paired_messages", "core.mls_edges"],
    "trace-replay": ["trace.events"],
    "live-loopback": ["runtime.events"],
    "probe-serve": ["net.frames_received"],
}

_cache = {}


def run(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", str(SECONDS), "--trace",
         str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result(workload, trace, *extra, fresh=False):
    """(detail line, result line) of one run, cached unless `fresh`."""
    key = (workload, trace, extra)
    if fresh or key not in _cache:
        out = run(workload, trace, *extra)
        if out.returncode != 0:
            raise AssertionError(f"{workload} exited {out.returncode}:\n"
                                 f"{out.stderr[-2000:]}")
        lines = out.stdout.strip().splitlines()
        _cache[key] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return _cache[key]


class Metrics(unittest.TestCase):
    def check_names(self, trace, section):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                detail, res = result(workload, trace)
                self.assertEqual(
                    set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"], detail["first_error"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                printed = {name: m["unit"]
                           for name, m in res["metrics"].items()}
                self.assertEqual(printed, declared)
                for m in res["metrics"].values():
                    self.assertEqual(set(m), {"value", "unit"})

    def test_untraced_run_prints_the_end_to_end_metrics(self):
        self.check_names(0, "end_to_end")
        for workload in WORKLOADS:
            detail, res = result(workload, 0)
            self.assertGreaterEqual(res["metrics"]["op_ms_p50"]["value"], 10)
            self.assertEqual(detail["op_ms_tail_samples_beyond"], 10)
            self.assertGreater(detail["op_ms_tail"],
                               res["metrics"]["op_ms_p50"]["value"])
            self.assertGreater(detail["ops_per_s"], 0)
            self.assertNotEqual(detail["fingerprint"]["src_digest"],
                                "unavailable")

    def test_traced_run_prints_the_per_layer_metrics(self):
        self.check_names(1, "per_layer")
        for workload in WORKLOADS:
            _, res = result(workload, 1)
            residual = res["metrics"]["residual_pct"]["value"]
            self.assertLessEqual(abs(residual), 10, workload)

    def test_counts_repeat_across_runs_of_one_seed(self):
        for workload, names in REPEATABLE.items():
            _, first = result(workload, 1)
            _, second = result(workload, 1, fresh=True)
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    value = first["metrics"][name]["value"]
                    self.assertGreater(value, 0)
                    self.assertEqual(value,
                                     second["metrics"][name]["value"])


class CorruptInput(unittest.TestCase):
    def test_corrupted_input_is_counted_as_failed_ops(self):
        for workload in ("ring-epoch", "trace-replay"):
            with self.subTest(workload=workload):
                detail, res = result(workload, 0, "--corrupt")
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], res["attempted"])
                self.assertNotEqual(detail["first_error"], "")


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "benchmark", bare / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            out = run(WORKLOADS[0], 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
