"""bccsim benchmark: time whole CLI preset sweeps and check their BER output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sweep runs ``bccsim run --preset ...`` in a fresh interpreter
(sweep.py), so set-up time, CPU time and peak RSS belong to that one
sweep.  Sweep i of a run uses CLI seed ``N * 1000 + i``.

``--trace 0`` runs sweeps until ``S`` seconds are used (at least
MIN_SWEEPS), with SETUP_SAMPLES set-up-only children spread before the
first of them, and reports the end-to-end metrics as medians over the
sweeps; ``setup_s`` is the fastest set-up of all children.

``--trace 1`` runs rounds of three sweeps of one seed, untraced at
``--jobs 1``, traced at ``--jobs 1`` and untraced at ``--jobs 2``, until
``S`` seconds are used (at least MIN_SWEEPS rounds), and reports
per-layer metrics; ratios between sweeps are medians over the rounds.

Both modes check the sweeps' CSVs against the reference table
(check.py); in trace mode the first CSV is checked and every other CSV
must equal it byte for byte.

Standard output: one JSON line with the run's provenance and raw samples,
then the result line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import failed_points, load_reference  # noqa: E402
from common import (BENCH_DIR, MAX_WORKLOAD_SEED, ROOT, WORKLOADS, BenchError,  # noqa: E402
                    import_bccsim, reference_path, resolved_scenario)
from spans import TARGETS  # noqa: E402

# Sweeps per run, or rounds in trace mode, at least.  fig6-j1 and fig7-nt
# sweeps take about 10 s and a traced round of them about 30 s; more would
# not fit the time the whole series of runs is given.
MIN_SWEEPS = 2
# A set-up child takes about 0.2 s.  SETUP_SAMPLES of them are spread over
# the first MIN_SWEEPS sweeps, since the host's speed changes in phases of
# about a minute; the fastest of them and of the sweeps' own set-ups is the
# set-up cost with the least interference from other work on the host.
SETUP_SAMPLES = 12
# The whole run, set-up samples and checks included, stays well inside 180 s.
DEADLINE_S = 170.0
WORK_DIR = BENCH_DIR / ".work"
SWEEP = BENCH_DIR / "sweep.py"


class Runner:
    """Starts sweep.py children for one workload and collects their results."""

    def __init__(self, name: str, tmp: Path, started: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.tmp = tmp
        self.started = started
        self._n = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, seed=0, jobs=1, trace=False, setup_only=False):
        """Run one child; returns (result dict, CSV bytes or None)."""
        self._n += 1
        out = self.tmp / f"sweep{self._n}.csv"
        result_path = self.tmp / f"sweep{self._n}.json"
        argv = [sys.executable, str(SWEEP), "--workload", self.name, "--seed", str(seed),
                "--jobs", str(jobs), "--out", str(out), "--result", str(result_path)]
        argv += ["--trace"] * trace + ["--setup-only"] * setup_only
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise BenchError(f"out of time before sweep {self._n}")
        try:
            proc = subprocess.run(argv + ["--spawned", repr(time.monotonic())],
                                  stdout=sys.stderr, timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"sweep {self._n} ran past the {DEADLINE_S} s deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"sweep {self._n} exited with {proc.returncode}")
        result = json.loads(result_path.read_text())
        return result, None if setup_only else out.read_bytes()


class Checker:
    """Checks CSVs against the reference and counts attempted and failed points."""

    def __init__(self, workload, scenario):
        from bccsim.cli import parse_csv

        self.parse_csv = parse_csv
        self.budget = scenario.n_data_symbols
        self.blocks = scenario.blocks
        self.reference = load_reference(reference_path(workload, self.budget), self.budget)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check_csv(self, csv: bytes):
        """Check one CSV; returns the number of symbol decisions it reports."""
        points = self.parse_csv(csv.decode())
        failures = failed_points(points, self.reference, self.budget, self.blocks)
        self.attempted += len(self.reference.keys() | failures.keys())
        self.failed += len(failures)
        for key, reason in sorted(failures.items()):
            print(f"failed point {key}: {reason}", file=sys.stderr)
        return sum(p.symbol_count for p in points)

    def guard(self, ok: bool, message: str) -> None:
        if not ok:
            print(f"guard failed: {message}", file=sys.stderr)
            self.problems.append(message)


def measure(runner: Runner, checker: Checker, seed: int, seconds: float, record: dict):
    """End-to-end metrics: medians over fresh-process sweeps."""
    runner.spawn(setup_only=True)  # fills bytecode caches; users do not pay this each run
    setup, samples = [], []
    while len(samples) < MIN_SWEEPS or (
            runner.elapsed() + median(s["sweep_s"] for s in samples) <= seconds):
        if len(samples) < MIN_SWEEPS:
            setup += [runner.spawn(setup_only=True)[0]["setup_s"]
                      for _ in range(SETUP_SAMPLES // MIN_SWEEPS)]
        result, csv = runner.spawn(seed * 1000 + len(samples), runner.workload.jobs)
        result["decisions"] = checker.check_csv(csv)
        setup.append(result["setup_s"])
        samples.append(result)
    record["setup_s"] = setup
    record["sweeps"] = samples
    return {
        "sweep_s": (median(s["sweep_s"] for s in samples), "s"),
        "decisions_per_s": (median(s["decisions"] / s["sweep_s"] for s in samples), "1/s"),
        "cpu_ns_per_decision": (
            median(s["cpu_s"] * 1e9 / s["decisions"] for s in samples), "ns"),
        "setup_s": (min(setup), "s"),
        "peak_rss_mb": (median(s["peak_rss_mb"] for s in samples), "MB"),
        "passed_point_share": (
            (checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }


def measure_traced(runner: Runner, checker: Checker, seed: int, seconds: float,
                   record: dict):
    """Per-layer metrics from rounds of untraced --jobs 1, traced --jobs 1 and
    untraced --jobs 2 sweeps of the workload's preset at one seed."""
    cli_seed = seed * 1000
    runner.spawn(setup_only=True)
    rounds = []
    csv = decisions = None
    while len(rounds) < MIN_SWEEPS or (
            runner.elapsed() + sum(s["sweep_s"] for s in rounds[-1]) <= seconds):
        j1, csv_j1 = runner.spawn(cli_seed, 1)
        if csv is None:
            csv, decisions = csv_j1, checker.check_csv(csv_j1)
        checker.guard(csv_j1 == csv, "untraced CSVs of one seed differ")
        traced, csv_traced = runner.spawn(cli_seed, 1, trace=True)
        checker.guard(csv_traced == csv, "traced CSV differs from untraced CSV")
        if rounds:
            checker.guard(_exact(traced) == _exact(rounds[0][1]),
                          "trace calls or counts differ between sweeps of one seed")
        j2, csv_j2 = runner.spawn(cli_seed, 2)
        checker.guard(csv_j2 == csv, "--jobs 2 CSV differs from --jobs 1 CSV")
        rounds.append((j1, traced, j2))
    record["rounds"] = [{"jobs1": j1, "traced": t, "jobs2": j2} for j1, t, j2 in rounds]
    return layer_metrics(rounds, decisions)


def _exact(traced_result):
    return traced_result["trace"]["calls"], traced_result["trace"]["counts"]


def layer_metrics(rounds, decisions: int) -> dict:
    """Per-layer metrics: times and ratios are medians over the rounds, counts exact."""
    traced = [t for _, t, _ in rounds]
    first = traced[0]["trace"]
    calls, counts = first["calls"], first["counts"]

    def self_s(*names):
        return median(sum(t["trace"]["self_ns"].get(n, 0) for n in names) / 1e9
                       for t in traced)

    inverse = ("channels.BurrXII.inverse_cdf", "channels.Weibull.inverse_cdf")
    inverse_calls = sum(calls.get(n, 0) for n in inverse)
    inverse_slots = counts.get("channels.inverse_cdf.slots", 0)
    frame_slots = counts["link.generate_received.slots"]
    weights = [f"detectors.weights.{t}" for t in ("probability", "deviation", "combination")]
    blocks = sum(calls.get(n, 0) for n in weights + ["detectors.mrc_detect"])
    degenerate = sum(v for k, v in counts.items()
                     if k.startswith("detectors.weights.")
                     and k.endswith(".raised.DegenerateTrainingError"))
    residual = median(t["sweep_s"] - sum(t["trace"]["self_ns"].values()) / 1e9 for t in traced)
    return {
        "channels.inverse_cdf.self_s": (self_s(*inverse), "s"),
        "channels.inverse_cdf.calls": (inverse_calls, "count"),
        "channels.inverse_cdf.slots": (inverse_slots, "count"),
        "channels.inverse_cdf.ns_per_slot": (self_s(*inverse) * 1e9 / inverse_slots, "ns"),
        "link.generate_received.self_s": (self_s("link.generate_received"), "s"),
        "link.generate_received.calls": (calls["link.generate_received"], "count"),
        "link.generate_received.slots": (frame_slots, "count"),
        "link.generate_received.ns_per_slot": (
            self_s("link.generate_received") * 1e9 / frame_slots, "ns"),
        "link.generate_received.bytes_computed": (
            counts["link.generate_received.bytes_computed"], "B"),
        "link.slots_per_decision": (frame_slots / decisions, "slot/decision"),
        "link.generate_data_symbols.self_s": (self_s("link.generate_data_symbols"), "s"),
        "detectors.compute_training_stats.self_s": (
            self_s("detectors.compute_training_stats"), "s"),
        "detectors.compute_training_stats.calls": (
            calls.get("detectors.compute_training_stats", 0), "count"),
        **{f"{n}.self_s": (self_s(n), "s") for n in weights},
        "detectors.fuse.self_s": (self_s("detectors.fuse"), "s"),
        "detectors.mrc_detect.self_s": (self_s("detectors.mrc_detect"), "s"),
        "detectors.degenerate_blocks": (degenerate, "count"),
        "montecarlo.blocks": (blocks, "count"),
        "montecarlo.block_yield": ((blocks - degenerate) / blocks, "ratio"),
        "montecarlo.self_s": (residual, "s"),
        "montecarlo.us_per_block": (residual * 1e6 / blocks, "us"),
        "montecarlo.jobs2_efficiency": (
            median(j1["sweep_s"] / (2.0 * j2["sweep_s"]) for j1, _, j2 in rounds), "ratio"),
        "cli.format_csv.self_s": (self_s("cli.format_csv"), "s"),
        "trace.overhead_share": (
            median(t["sweep_s"] / j1["sweep_s"] - 1.0 for j1, t, _ in rounds), "ratio"),
    }


def git_commit():
    """HEAD of the checkout, or None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < MAX_WORKLOAD_SEED:
        parser.error(f"--seed must be in [0, {MAX_WORKLOAD_SEED})")
    try:
        bccsim = import_bccsim()
        import numpy as np
        from bccsim.config import scenario_to_config

        workload = WORKLOADS[args.workload]
        scenario = resolved_scenario(workload, args.seed * 1000)
        checker = Checker(workload, scenario)
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "cli_seed_base": args.seed * 1000, "git_commit": git_commit(),
            "bccsim": getattr(bccsim, "__version__", None),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "traced_functions": sorted(TARGETS),
            "scenario": scenario_to_config(scenario),
        }
        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            runner = Runner(args.workload, Path(tmp), started)
            measure_fn = measure_traced if args.trace else measure
            metrics = measure_fn(runner, checker, args.seed, args.seconds, record)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed + len(checker.problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
