"""One sweep of a workload in a fresh interpreter.

    python3 perfbench/sweep.py --workload W --seed S --jobs J --out CSV \
        --result JSON --spawned T [--trace] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to the moment the ``run`` call
could begin (interpreter start, imports, preset construction).  The
result JSON holds set-up time and, unless ``--setup-only``, the sweep's
wall time, CPU time of this process and its workers, peak RSS and,
with ``--trace``, the span summary.
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import WORKLOADS, BenchError, cli_args, import_bccsim  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_sweep(workload, seed: int, jobs: int, out, trace: bool = False) -> dict:
    """Time one ``bccsim run`` call in this process; optionally trace it."""
    from bccsim.cli import main as cli_main
    from spans import check_coverage, traced

    argv = cli_args(workload, seed, jobs, out)
    cpu_before = _cpu_s()
    with traced() if trace else contextlib.nullcontext() as tracer:
        start = time.perf_counter()
        status = cli_main(argv)
        sweep_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu_before
    if status != 0:
        raise BenchError(f"bccsim {' '.join(argv)} exited with {status}")
    # ru_maxrss is in KiB; RUSAGE_CHILDREN reports the largest reaped worker.
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {"sweep_s": sweep_s, "cpu_s": cpu_s, "peak_rss_mb": rss_kb / 1024.0}
    if tracer is not None:
        check_coverage(tracer, workload.uncalled)
        result["trace"] = {"calls": dict(tracer.calls), "self_ns": dict(tracer.self_ns),
                           "counts": dict(tracer.counts)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one timed sweep of a benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        import_bccsim()
        from bccsim.presets import preset

        preset(workload.preset)
        result = {"setup_s": time.monotonic() - args.spawned}
        if not args.setup_only:
            result.update(run_sweep(workload, args.seed, args.jobs, args.out, args.trace))
    except BenchError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 1
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
