"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import REPLICATES, failed_points, format_reference, load_reference  # noqa: E402
from common import (BENCH_DIR, ROOT, WORKLOADS, BenchError, Workload,  # noqa: E402
                    import_bccsim, reference_path, resolved_scenario)

import_bccsim()

import spans  # noqa: E402
from bccsim import montecarlo  # noqa: E402
from bccsim.cli import format_csv, parse_csv  # noqa: E402
from sweep import run_sweep  # noqa: E402

SMALL = replace(WORKLOADS["fig4-small"], symbols=400)


def test_check_flags_perturbed_ber_and_missing_row(tmp_path):
    workload = WORKLOADS["fig4-small"]
    scenario = resolved_scenario(workload, 0)
    budget, blocks = scenario.n_data_symbols, scenario.blocks
    reference = load_reference(reference_path(workload, budget), budget)
    out = tmp_path / "sweep.csv"
    run_sweep(workload, seed=11, jobs=1, out=out)
    points = parse_csv(out.read_text())
    assert failed_points(points, reference, budget, blocks) == {}

    target = points[len(points) // 2]
    key = (target.technique, target.tx_power_dbm, target.n_t)
    low, high = reference[key].band(budget, blocks)
    for ber in (low - 1.0 / budget, high + 1.0 / budget):
        perturbed = [replace(p, ber=ber) if p is target else p for p in points]
        assert list(failed_points(perturbed, reference, budget, blocks)) == [key]

    missing = parse_csv(format_csv([p for p in points if p is not target]))
    assert failed_points(missing, reference, budget, blocks) == {key: "row missing"}

    short = [replace(p, symbol_count=p.symbol_count - 100) if p is target else p
             for p in points]
    assert list(failed_points(short, reference, budget, blocks)) == [key]


def test_reference_with_other_replicate_count_is_refused(tmp_path):
    table = tmp_path / "fig4-100.csv"
    table.write_text(format_reference(100, {("mrc", 0.0, 50): [1] * (REPLICATES - 1)}))
    with pytest.raises(ValueError, match="replicates"):
        load_reference(table, 100)


def test_trace_keeps_csv_and_counts_repeat_exactly(tmp_path):
    original = montecarlo.generate_received
    run_sweep(SMALL, seed=5, jobs=1, out=tmp_path / "plain.csv")
    first = run_sweep(SMALL, seed=5, jobs=1, out=tmp_path / "t1.csv", trace=True)
    second = run_sweep(SMALL, seed=5, jobs=1, out=tmp_path / "t2.csv", trace=True)
    assert montecarlo.generate_received is original
    plain = (tmp_path / "plain.csv").read_bytes()
    assert (tmp_path / "t1.csv").read_bytes() == plain == (tmp_path / "t2.csv").read_bytes()
    for part in ("calls", "counts"):
        assert first["trace"][part] == second["trace"][part]
    points = parse_csv(plain.decode())
    assert first["trace"]["calls"]["link.generate_data_symbols"] == 100 * len(points)


def test_renamed_target_fails_loudly(monkeypatch):
    original = montecarlo.detect
    targets = {**spans.TARGETS, "link.gone": ("montecarlo", "no_such_function")}
    monkeypatch.setattr(spans, "TARGETS", targets)
    with pytest.raises(BenchError, match="no_such_function"):
        with spans.traced():
            pass
    assert montecarlo.detect is original


def test_uncalled_target_fails_loudly(tmp_path):
    fig7 = Workload("fig7", 40, 1)
    with pytest.raises(BenchError, match="detectors.mrc_detect"):
        run_sweep(fig7, seed=1, jobs=1, out=tmp_path / "fig7.csv", trace=True)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "fig4-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
