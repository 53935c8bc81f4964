"""Run alternating parent/change pairs of the benchmark and write their summary as JSON.

    python3 tools/bench_pairs.py --base REF --out BENCH_name.json
        [--pairs 10] [--workloads W ...] [--seconds S] [--first-seed 1] [--what TEXT]

The parent side is a ``git archive`` of REF and the change side a copy of
the working tree (the files git tracks or would track); each side runs
``perfbench/run.py --trace 0`` from its own copy, with its own sources and
its own benchmark code.  Pair i runs seed FIRST_SEED + i on both sides, the
parent first in even pairs and the change first in odd ones.  ``--seconds``
defaults to BENCHMARK.json's ``run_seconds`` and ``--workloads`` to all of
its workloads, each of whose pairs run back to back.

For every end-to-end metric of BENCHMARK.json the output gives each side's
median and quartiles (``statistics.quantiles``, n=4) over the pairs, the
ratio of the medians ``change_over_parent``, ``change_wins`` (the pairs in
which the change reads better in the metric's direction; ties count for
neither side), the per-pair runs in seed order, the metric's BENCHMARK.json
``bound`` and a ``verdict``, the first of these that holds:

* ``regression``: the change median is worse than the parent median by more
  than ``bound`` times the parent median;
* ``gain``: the change wins at least nine tenths of the pairs and its median
  is better than the parent's by more than the parent's quartile distance;
* ``unresolved``: the parent's quartile distance is wider than ``bound`` times
  its median, and not every change run is better than every parent run;
* ``no_change``.

``all_correct`` is true when every run of both sides printed ``"correct": true``.  The script only
invokes ``run.py``; it edits nothing in either tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _quartiles(runs) -> list:
    if len(runs) < 2:
        return [runs[0], runs[0]]
    low, _, high = statistics.quantiles(runs, n=4)
    return [low, high]


def verdict(parent_runs, change_runs, better: str, bound: float) -> str:
    """``regression``, ``gain``, ``unresolved`` or ``no_change``: see the module docstring."""
    sign = 1 if better == "higher" else -1
    parent, change = statistics.median(parent_runs), statistics.median(change_runs)
    low, high = _quartiles(parent_runs)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs))
    if sign * (parent - change) > bound * abs(parent):
        return "regression"
    if wins >= 0.9 * len(parent_runs) and sign * (change - parent) > high - low:
        return "gain"
    if high - low > bound * abs(parent) and not (min(sign * c for c in change_runs)
                                                 > max(sign * p for p in parent_runs)):
        return "unresolved"
    return "no_change"


def summarize(parent_runs, change_runs, better: str, unit: str, bound: float) -> dict:
    """Medians, quartiles, their ratio, the change's wins and the verdict over paired runs of
    one metric whose BENCHMARK.json bound is ``bound``."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same nonzero number of parent and change runs")
    sign = 1 if better == "higher" else -1
    parent_median, change_median = (statistics.median(runs) for runs in (parent_runs,
                                                                         change_runs))
    return {
        "unit": unit,
        "parent_median": parent_median,
        "parent_quartiles": _quartiles(parent_runs),
        "change_median": change_median,
        "change_quartiles": _quartiles(change_runs),
        "change_over_parent": change_median / parent_median if parent_median else None,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs)),
        "parent_runs": list(parent_runs),
        "change_runs": list(change_runs),
        "bound": bound,
        "verdict": verdict(parent_runs, change_runs, better, bound),
    }


def first_in_pair(i: int) -> str:
    """The side that runs first in pair i: the parent in even pairs, the change in odd ones."""
    return SIDES[i % 2]


def summarize_workload(seeds, results, end_to_end) -> dict:
    """One workload's entry from its per-pair run.py result lines, ``results[side][i]``."""
    return {
        "seeds": list(seeds),
        "pairs": len(seeds),
        "all_correct": all(r["correct"] is True for side in SIDES for r in results[side]),
        "first_in_pair": [first_in_pair(i) for i in range(len(seeds))],
        "summary": {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results["parent"]],
                                 [r["metrics"][m["name"]]["value"] for r in results["change"]],
                                 m["better"], m["unit"], m["bound"])
            for m in end_to_end
        },
    }


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def _archive(ref: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", ref], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {ref} failed")


def _copy_working_tree(dest: Path) -> None:
    listed = _git("ls-files", "--cached", "--others", "--exclude-standard", "-z")
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py --trace 0`` run in ``tree``."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REF", help="git ref of the parent")
    parser.add_argument("--out", required=True, metavar="PATH", help="JSON summary to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", metavar="W",
                        default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--what", default="", help="what the change does, kept in the JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip()
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    workloads = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        _archive(base, trees["parent"])
        _copy_working_tree(trees["change"])
        for workload in args.workloads:
            results = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                order = SIDES if first_in_pair(i) == "parent" else SIDES[::-1]
                for side in order:
                    results[side].append(_run(trees[side], workload, seed, args.seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{results[side][-1]['metrics']['decisions_per_s']['value']:.4g} "
                          "decisions/s", file=sys.stderr, flush=True)
            workloads[workload] = summarize_workload(seeds, results, benchmark["end_to_end"])
    record = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "method": f"tools/bench_pairs.py: {args.pairs} alternating parent/change pairs per "
                  "workload, pair i on seed first_seed + i, the parent first in even pairs; "
                  "parent = git archive of base, change = a copy of the working tree, each "
                  "running its own perfbench/run.py; medians and quartiles "
                  "(statistics.quantiles, n=4) over the per-run values run.py printed.",
        "base": base,
        "first_seed": args.first_seed,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
