"""Tests of the output contract of `run.py`, the benchmark's entry point.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The worker is replaced by canned step results, so these tests check what
`run.py` emits and how it counts failures, without building or running the
simulator. The seed's effect on the workloads' inputs is tested in the
worker itself (`cargo test --manifest-path perfbench/Cargo.toml`).
"""

import contextlib
import io
import json
import os
import unittest
from unittest import mock

import run

ROOT = os.path.dirname(run.BENCH_DIR)

# Every metric the benchmark's specification names.
NAMED_END_TO_END = [
    "setup_s", "wall_s", "cpu_s", "devices_per_s", "peak_rss_mb", "paper_gap_pp",
]
NAMED_PER_LAYER = [
    "workload.sample.ns", "workload.generate.ns_per_frame", "workload.generate.allocs",
    "workload.decode.ns_per_frame", "workload.decode.bytes_per_frame",
    "faults.resolve.ns", "faults.compile.ns", "faults.compile.allocs",
    "pipeline.sim.ns_per_device.clean", "pipeline.sim.ns_per_device.faulted",
    "pipeline.sim.ns_per_event", "pipeline.sim.events_per_frame",
    "pipeline.sim.allocs_per_device", "pipeline.calibrate.s", "pipeline.calibrate.iterations",
    "metrics.observe.ns", "metrics.merge.ns", "metrics.sketch_bytes",
    "bench.figures.fig11.s", "bench.parallel_efficiency",
    "bench.checkpoint.writes", "bench.checkpoint.bytes", "bench.checkpoint.save_ns",
    "trace_overhead_pct",
]


def fake_step(digest="d1", generated_digest=None, quarantined=0):
    """A stand-in for `run.step` returning plausible worker results."""

    def step(exe, name, *args):
        if name == "setup":
            return {"setup_s": [0.5, 0.4, 0.6], "input_digest": "i", "cpu_s": 1.0,
                    "peak_rss_mb": 10.0}
        if name == "gap":
            return {"paper_gap_pp": 5.9, "quantities": 12, "cpu_s": 1.0, "peak_rss_mb": 10.0}
        if name == "trace":
            layers = {"workload.sample.ns": 200.0, "bench.figures.fig11.s": 0.2}
            return {"layers": layers, "trace_overhead_pct": 1.5, "layer_time_s": 3.0,
                    "traced_passes": 2, "decode_fallbacks": 0.0, "digest": digest, "digests_agree": True,
                    "cpu_s": 1.0, "peak_rss_mb": 10.0}
        d = generated_digest if "--generate" in args and generated_digest else digest
        return {"wall_s": 1.0, "items": 100.0, "cells": 16.0, "quarantined": float(quarantined),
                "checkpoint_writes": 16.0, "paper_gap_pp": 5.9, "digest": d,
                "cpu_s": 1.8, "peak_rss_mb": 20.0}

    return step


def run_main(argv, step):
    out = io.StringIO()
    with mock.patch.object(run, "build", return_value="perfbench"), \
            mock.patch.object(run, "step", side_effect=step), \
            contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), out.getvalue()


class OutputContract(unittest.TestCase):
    def test_every_named_metric_has_a_unit(self):
        for name in NAMED_END_TO_END:
            self.assertTrue(run.END_TO_END.get(name), name)
        for name in NAMED_PER_LAYER:
            self.assertTrue(run.PER_LAYER.get(name), name)
        for artefact in run.ARTEFACTS:
            self.assertIn(f"bench.figures.{artefact}.s", run.PER_LAYER)

    def test_benchmark_json_lists_the_same_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_emitted_json_carries_every_metric_with_a_unit(self):
        for workload in run.WORKLOADS:
            for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                argv = ["--workload", workload, "--seed", "1", "--seconds", "0",
                        "--trace", str(trace)]
                code, result, _ = run_main(argv, fake_step())
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(units), (workload, trace))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                    self.assertIsInstance(m["value"], float)
                if trace == 0:
                    self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_figures_output_says_the_seed_is_unused(self):
        argv = ["--workload", "figures", "--seed", "1", "--seconds", "0", "--trace", "0"]
        _, _, text = run_main(argv, fake_step())
        self.assertIn("seed unused", text)
        self.assertIn("failed_frac", text)

    def test_differing_reports_fail_the_run(self):
        argv = ["--workload", "fleet_replay", "--seed", "1", "--seconds", "0", "--trace", "0"]
        code, result, text = run_main(argv, fake_step(generated_digest="other"))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("replayed report differs", text)

    def test_unknown_worker_metrics_fail_the_run(self):
        step = fake_step()

        def misspelled(exe, name, *args):
            result = step(exe, name, *args)
            if name == "trace":
                result["layers"]["workload.sampel.ns"] = 1.0
            return result

        argv = ["--workload", "fleet", "--seed", "1", "--seconds", "0", "--trace", "1"]
        code, result, text = run_main(argv, misspelled)
        self.assertEqual(code, 1)
        self.assertIn("workload.sampel.ns", text)

    def test_quarantined_cells_count_as_failed(self):
        argv = ["--workload", "fleet", "--seed", "1", "--seconds", "0", "--trace", "0"]
        code, result, _ = run_main(argv, fake_step(quarantined=2))
        self.assertEqual(code, 1)
        self.assertEqual(result["failed"], 2 * run.MIN_PASSES)


if __name__ == "__main__":
    unittest.main()
