"""Shared pieces of the benchmark: locating the sources and the workload table."""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

# Workload seeds stay below this; reference replicates use seeds from
# REFERENCE_SEED_BASE upwards, so the two sets never overlap.
MAX_WORKLOAD_SEED = 2 ** 40
REFERENCE_SEED_BASE = 2 ** 63


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_bccsim():
    """Import the package from this checkout's sources, never an installed copy."""
    if not (SRC / "bccsim" / "__init__.py").is_file():
        raise BenchError(f"no bccsim sources at {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bccsim

    if Path(bccsim.__file__).resolve().parent != (SRC / "bccsim").resolve():
        raise BenchError(f"imported bccsim from {bccsim.__file__}, not from {SRC}")
    return bccsim


@dataclass(frozen=True)
class Workload:
    """One CLI preset run: ``bccsim run --preset P [--symbols N] --jobs J``.

    ``symbols`` None keeps the preset's own per-point budget.  ``uncalled``
    names the traced functions the preset never reaches, so the trace
    does not demand a call from them.
    """

    preset: str
    symbols: int | None
    jobs: int
    uncalled: frozenset = frozenset()


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "fig6-j1": Workload("fig6", 100_000, 1),
    "fig6-j2": Workload("fig6", 100_000, 2),
    "fig7-nt": Workload("fig7", None, 1, frozenset({"detectors.mrc_detect"})),
    "fig4-small": Workload("fig4", 10_000, 1, frozenset({"channels.Weibull.inverse_cdf"})),
}


def cli_args(workload: Workload, seed: int, jobs: int, out) -> list[str]:
    """Arguments of ``bccsim.cli.main`` for one sweep of the workload."""
    args = ["run", "--preset", workload.preset, "--seed", str(seed), "--jobs", str(jobs),
            "--out", str(out)]
    if workload.symbols is not None:
        args += ["--symbols", str(workload.symbols)]
    return args


def resolved_scenario(workload: Workload, seed: int):
    """The Scenario the CLI runs for this workload, with its overrides applied."""
    from bccsim.presets import preset

    overrides = {"seed": seed}
    if workload.symbols is not None:
        overrides["n_data_symbols"] = workload.symbols
    return replace(preset(workload.preset), **overrides)


def reference_path(workload: Workload, budget: int) -> Path:
    return REFERENCE_DIR / f"{workload.preset}-{budget}.csv"
