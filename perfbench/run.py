#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the D-VSync reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload fleet --seed 3 --seconds 15 --trace 0

It builds the worker (`perfbench/`, a Cargo package of its own) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload:

* `--trace 0`: set-up, then untraced passes with `jobs` = nproc, one process
  per pass, until `--seconds` have passed; prints every end-to-end metric;
* `--trace 1`: two untraced passes, then single-thread traced passes; prints
  every per-layer metric and the tracing overhead.

Every report is checked (see README.md). The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the exit code is
1 when any check fails or the worker cannot be built.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("figures", "fleet", "fleet_replay")

# End-to-end metrics, reported with tracing off.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "devices_per_s": "1/s",
    "peak_rss_mb": "MB",
    "paper_gap_pp": "pp",
}

# Set-up runs several times per run and the median is reported. A set-up
# step is one process repeating the set-up `SETUP_REPS` times. The
# millisecond set-ups run one step before every pass, so their samples span
# the run as the passes do; recording 10k traces takes seconds, so
# `fleet_replay` runs its steps before the first pass.
SETUP_REPS = {"figures": 11, "fleet": 11, "fleet_replay": 1}
SETUP_STEPS_FIRST = {"fleet_replay": 3}
MIN_PASSES = 3
ARTEFACTS = (
    "fig1 fig3 fig4 fig5 fig6 fig7 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 "
    "table1 table2 cost power chromium multitask scenes faults compose census fps "
    "ablation export trace"
).split()


def layer_unit(name):
    """The unit of a per-layer metric, from its name."""
    if name == "trace_overhead_pct" or name.endswith("_pct"):
        return "%"
    if name == "bench.parallel_efficiency":
        return "ratio"
    if name.endswith(".s"):
        return "s"
    if name.endswith("bytes_per_frame"):
        return "B/frame"
    if name.endswith("ns_per_frame"):
        return "ns/frame"
    if name.endswith("ns_per_event"):
        return "ns/event"
    if name.endswith(".ns") or name.endswith("_ns") or ".ns_per_device" in name:
        return "ns"
    if name.endswith("bytes"):
        return "B"
    return "count"


PER_LAYER_NAMES = [
    "workload.sample.ns",
    "workload.generate.ns_per_frame",
    "workload.generate.allocs",
    "workload.decode.ns_per_frame",
    "workload.decode.bytes_per_frame",
    "faults.resolve.ns",
    "faults.compile.ns",
    "faults.compile.allocs",
    "pipeline.sim.ns_per_device.clean",
    "pipeline.sim.ns_per_device.faulted",
    "pipeline.sim.ns_per_event",
    "pipeline.sim.events_per_frame",
    "pipeline.sim.allocs_per_device",
    "pipeline.calibrate.s",
    "pipeline.calibrate.iterations",
    "metrics.observe.ns",
    "metrics.merge.ns",
    "metrics.sketch_bytes",
    *[f"bench.figures.{a}.s" for a in ARTEFACTS],
    "bench.parallel_efficiency",
    "bench.device.attributed_pct",
    "bench.checkpoint.writes",
    "bench.checkpoint.bytes",
    "bench.checkpoint.save_ns",
    "trace_overhead_pct",
]
PER_LAYER = {name: layer_unit(name) for name in PER_LAYER_NAMES}


class BenchError(Exception):
    """A step that cannot produce a result."""


def build():
    """Builds the worker; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target))
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building the benchmark worker failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def step(exe, *args):
    """Runs one worker step in its own process.

    Returns its JSON result plus the process's CPU seconds and peak RSS in
    MB, read from the kernel's accounting for that child alone."""
    proc = subprocess.Popen([exe, *map(str, args)], stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker step {args[0]} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker step {args[0]} printed nothing")
    result = json.loads(lines[-1])
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


class Checks:
    """Correctness checks; each failure counts toward `failed`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


def setup(exe, a, work, reps):
    """One set-up step; returns its set-up times in seconds."""
    return step(exe, "setup", "--workload", a.workload, "--seed", a.seed,
                "--work", work, "--reps", reps)["setup_s"]


def run_passes(exe, a, work, jobs, checks, deadline, minimum, before_each=None):
    """Untraced passes until `deadline` (monotonic), at least `minimum`;
    `before_each` runs before every pass, untimed."""
    passes = []
    while len(passes) < minimum or time.monotonic() < deadline:
        if before_each:
            before_each()
        p = step(exe, "pass", "--workload", a.workload, "--seed", a.seed,
                 "--work", work, "--jobs", jobs)
        passes.append(p)
        # Cells are artefacts (figures) or shards (fleets); a quarantined
        # cell is a failure.
        checks.attempted += int(p["cells"])
        checks.failed += int(p["quarantined"])
        checks.check(p["digest"] == passes[0]["digest"],
                     f"pass {len(passes)} report differs from pass 1")
        if a.workload == "fleet_replay":
            checks.check(p["checkpoint_writes"] == p["cells"],
                         f"pass {len(passes)} wrote {p['checkpoint_writes']} checkpoints "
                         f"for {p['cells']} shards")
    return passes


def end_to_end(exe, a, work, jobs, checks):
    reps = SETUP_REPS[a.workload]
    setups = []
    before_each = None
    if a.workload in SETUP_STEPS_FIRST:
        for _ in range(SETUP_STEPS_FIRST[a.workload]):
            setups += setup(exe, a, work, reps)
    else:
        def before_each():
            setups.extend(setup(exe, a, work, reps))
    start = time.monotonic()
    passes = run_passes(exe, a, work, jobs, checks, start + a.seconds, MIN_PASSES,
                        before_each)
    if a.workload == "fleet_replay":
        # The replayed report must equal a run that generates the same
        # population's traces instead of decoding them.
        generated = step(exe, "pass", "--workload", a.workload, "--seed", a.seed,
                         "--work", work, "--jobs", jobs, "--generate")
        checks.check(generated["digest"] == passes[0]["digest"],
                     "replayed report differs from the generated run of the same spec")
    if a.workload == "figures":
        gaps = [p["paper_gap_pp"] for p in passes]
    else:
        # The fleets have no paper reference; the model's gap on the
        # held-out figure quantities is measured once per run instead.
        gaps = [step(exe, "gap", "--work", work, "--jobs", jobs)["paper_gap_pp"]]
    checks.check(all(g == gaps[0] and g > 0 for g in gaps), "paper gap is not reproducible")

    def med(key):
        return statistics.median(p[key] for p in passes)

    return {
        "setup_s": statistics.median(setups),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "devices_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
        "peak_rss_mb": med("peak_rss_mb"),
        "paper_gap_pp": gaps[0],
    }, len(passes)


def per_layer(exe, a, work, jobs, checks):
    start = time.monotonic()
    setup(exe, a, work, 1)
    passes = run_passes(exe, a, work, jobs, checks, 0, 2)
    remaining = max(1.0, a.seconds - (time.monotonic() - start))
    spans = os.path.join(".bench_work", f"spans-{a.workload}.tsv")
    traced = step(exe, "trace", "--workload", a.workload, "--seed", a.seed,
                  "--work", work, "--seconds", remaining, "--spans", spans)
    checks.check(traced["digests_agree"], "traced and shadow single-thread reports differ")
    checks.check(traced["digest"] == passes[0]["digest"],
                 "traced report differs from the untraced report")
    checks.check(traced["decode_fallbacks"] == 0,
                 f"{traced['decode_fallbacks']:.0f} replayed devices did not use their recording")
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics = dict(traced["layers"])
    metrics["bench.parallel_efficiency"] = traced["layer_time_s"] / (wall * jobs)
    metrics["trace_overhead_pct"] = traced["trace_overhead_pct"]
    checks.notes.append(f"spans written to {spans}")
    return metrics, int(traced["traced_passes"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    try:
        exe = build()
        jobs = len(os.sched_getaffinity(0))
        work = os.path.join(".bench_work", a.workload)
        checks = Checks()
        try:
            if a.trace:
                values, n = per_layer(exe, a, work, jobs, checks)
                units = PER_LAYER
            else:
                values, n = end_to_end(exe, a, work, jobs, checks)
                units = END_TO_END
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    # Every end-to-end metric is measured on every workload; a per-layer
    # metric the worker does not emit belongs to a layer the workload
    # leaves idle and reads 0.
    unknown = sorted(set(values) - set(units))
    checks.check(not unknown, f"worker emitted unknown metrics: {unknown}")
    if not a.trace:
        missing = sorted(set(units) - set(values))
        checks.check(not missing, f"metrics missing: {missing}")
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}

    seed_note = ("seed unused: inputs are the paper's fixed scenario catalogs"
                 if a.workload == "figures" else f"seed {a.seed} -> FleetSpec.seed")
    print(f"workload {a.workload}: {seed_note}; jobs={jobs}; "
          f"{n} {'traced' if a.trace else 'untraced'} passes")
    print("paper_gap_pp covers the held-out D-VSync quantities only; "
          "the model is otherwise unvalidated")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {checks.failed / checks.attempted:>16.6g} fraction "
          f"({checks.failed} of {checks.attempted} cells and checks)")
    for note in checks.notes:
        print(note)
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
