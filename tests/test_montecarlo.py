"""Monte-Carlo harness: determinism, accounting, limits, regression values."""

import importlib
import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bccsim import (
    TECHNIQUES,
    BurrXII,
    ParameterError,
    Scenario,
    Weibull,
    make_ber_point,
    preset,
    registry_entry,
    run_scenario,
)
from bccsim import cli, montecarlo
from bccsim.montecarlo import STREAM_VERSION, _substream

F9 = (registry_entry("f9"),)
ROOT = Path(__file__).resolve().parent.parent


def import_perfbench(name):
    """Import a perfbench/ module read-only, leaving sys.path as it was."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def single_point(scenario, power_dbm, technique):
    """The BER point of one (power, technique) pair, run on its own."""
    (point,) = run_scenario(replace(scenario, power_sweep_dbm=(power_dbm,),
                                    techniques=(technique,)))
    return point


def small_scenario(**overrides):
    base = dict(nodes=F9, power_sweep_dbm=(0.0, 10.0), n_data_symbols=4000,
                techniques=("probability", "deviation"), seed=5)
    base.update(overrides)
    return Scenario(**base)


class TestScenarioValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ParameterError):
            Scenario(nodes=())
        with pytest.raises(ParameterError):
            Scenario(nodes=F9, n_t=7)
        with pytest.raises(ParameterError):
            Scenario(nodes=F9, n_data_symbols=0)
        with pytest.raises(ParameterError):
            Scenario(nodes=F9, power_sweep_dbm=(10.0, 0.0))
        with pytest.raises(ParameterError):
            Scenario(nodes=F9, techniques=("probability", "guessing"))
        with pytest.raises(ParameterError):
            Scenario(nodes=F9, seed=-1)
        with pytest.raises(ParameterError):
            Scenario(nodes=F9, n_t=(50, 20))  # grid axes must increase
        with pytest.raises(ParameterError):
            Scenario(nodes=F9, n_t=())
        with pytest.raises(ParameterError):
            Scenario(nodes=F9 + F9)  # duplicate node ids

    @pytest.mark.parametrize("make, key", [
        (lambda: Scenario(nodes=F9, n_t=(50.7,)), "n_t"),
        (lambda: Scenario(nodes=F9, power_sweep_dbm=("10",)), "power_sweep_dbm"),
        (lambda: Scenario(nodes=F9, power_sweep_dbm=(10 ** 400,)), "power_sweep_dbm"),
        (lambda: Scenario(nodes=F9, blocks=2.5), "blocks"),
        (lambda: Scenario(nodes=F9, n_data_symbols=1e3), "n_data_symbols"),
        (lambda: Scenario(nodes=F9, seed=1.5), "seed"),
        (lambda: Scenario(nodes=F9, bandwidth_hz="1e5"), "bandwidth_hz"),
        (lambda: Scenario(nodes=F9, n0_dbm_per_hz=True), "n0_dbm_per_hz"),
        (lambda: Scenario(nodes=("f1",)), "nodes"),
        (lambda: BurrXII(True, 1.0, 1.0), "BurrXII.alpha"),
        (lambda: Weibull("1", 1.0), "Weibull.a"),
    ], ids=["float-n_t", "str-power", "huge-power", "float-blocks", "float-symbols",
            "float-seed", "str-bandwidth", "bool-n0", "name-node", "bool-burr", "str-weibull"])
    def test_wrong_types_raise_naming_the_key(self, make, key):
        with pytest.raises(ParameterError, match=key):
            make()

    def test_int_n_t_is_a_one_entry_axis(self):
        assert Scenario(nodes=F9, n_t=20).n_t == (20,)
        assert Scenario(nodes=F9, n_t=20) == Scenario(nodes=F9, n_t=(20,))

    def test_zero_power_sweep_is_allowed(self):
        scn = Scenario(nodes=F9, power_sweep_dbm=(float("-inf"),))
        assert scn.power_sweep_dbm == (float("-inf"),)


class TestBerPoint:
    def test_ci_matches_independent_binomial_computation(self):
        point = make_ber_point("deviation", 10.0, 50, 37, 10_000)
        p_hat = 37 / 10_000
        assert point.ber == p_hat
        assert abs(point.ci95 - 1.96 * math.sqrt(p_hat * (1 - p_hat) / 10_000)) < 1e-12

    def test_bounds(self):
        with pytest.raises(ParameterError):
            make_ber_point("deviation", 10.0, 50, 5, 4)
        with pytest.raises(ParameterError):
            make_ber_point("deviation", 10.0, 50, -1, 4)


class TestDeterminism:
    def test_identical_seeds_identical_counts(self):
        scn = small_scenario()
        assert run_scenario(scn) == run_scenario(scn)

    def test_worker_count_does_not_matter(self):
        scn = small_scenario()
        assert run_scenario(scn, jobs=1) == run_scenario(scn, jobs=3)

    def test_single_point_matches_sweep_row(self):
        scn = small_scenario()
        rows = {(p.technique, p.tx_power_dbm): p for p in run_scenario(scn)}
        assert single_point(scn, 10.0, "deviation") == rows[("deviation", 10.0)]

    def test_frozen_regression_value(self):
        # fixed-seed reference run, recorded when the stream version was set
        scn = Scenario(nodes=F9, power_sweep_dbm=(10.0,), techniques=("deviation",),
                       n_data_symbols=100_000, seed=42)
        (point,) = run_scenario(scn)
        assert STREAM_VERSION == 2  # stream 1 gave 50 errors here
        assert point.error_count == 40
        assert point.symbol_count == 100_000
        # every technique at K = 9 and K = 6, recorded at the same stream version
        fig6 = replace(preset("fig6"), power_sweep_dbm=(-14.0, -10.0), n_data_symbols=20_000,
                       blocks=20, seed=42)
        assert {(p.technique, p.tx_power_dbm): p.error_count for p in run_scenario(fig6)} == {
            ("combination", -14.0): 1372, ("combination", -10.0): 99,
            ("deviation", -14.0): 2947, ("deviation", -10.0): 683,
            ("mrc", -14.0): 458, ("mrc", -10.0): 21,
            ("probability", -14.0): 2263, ("probability", -10.0): 548}
        fig7 = replace(preset("fig7"), n_t=(10, 50), n_data_symbols=20_000, blocks=20, seed=42)
        assert {(p.technique, p.n_t): p.error_count for p in run_scenario(fig7)} == {
            ("combination", 10): 2, ("combination", 50): 4,
            ("deviation", 10): 56, ("deviation", 50): 39,
            ("probability", 10): 343, ("probability", 50): 92}


class TestAccounting:
    def test_symbol_budget_exact(self):
        for budget in (1, 99, 4000):
            scn = small_scenario(n_data_symbols=budget, power_sweep_dbm=(10.0,),
                                 techniques=("deviation",))
            (point,) = run_scenario(scn)
            assert point.symbol_count == budget

    def test_output_order_deterministic(self):
        points = run_scenario(small_scenario(n_t=(10, 50)))
        keys = [(p.technique, p.tx_power_dbm, p.n_t) for p in points]
        assert keys == sorted(keys)

    def test_pool_never_outnumbers_the_blocks(self, monkeypatch):
        # an in-process stand-in records the pool size and starts no process
        pool_sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        scn = small_scenario(blocks=2)
        serial = run_scenario(scn, jobs=1)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
        assert run_scenario(scn, jobs=8) == serial
        run_scenario(replace(scn, blocks=5), jobs=3)
        run_scenario(replace(scn, blocks=100, n_data_symbols=3), jobs=8)  # 3 blocks
        assert pool_sizes == [2, 3, 3]

    def test_preconditions(self):
        scn = small_scenario()
        for jobs in (0, -2):
            with pytest.raises(ParameterError, match="jobs"):
                run_scenario(scn, jobs=jobs)


class TestDegenerateLimits:
    def test_zero_noise_is_error_free(self):
        scn = Scenario(nodes=(registry_entry("f2"),), power_sweep_dbm=(10.0,),
                       bandwidth_hz=0.0, techniques=("probability", "deviation", "mrc"),
                       n_data_symbols=10_000, seed=1)
        points = run_scenario(scn)
        assert len(points) == 3
        for point in points:
            assert point.ber == 0.0

    def test_zero_noise_combination_degenerates(self):
        # the zeros half-frame is received as exact zeros, so A0 = 0
        scn = Scenario(nodes=(registry_entry("f2"),), power_sweep_dbm=(10.0,),
                       bandwidth_hz=0.0, techniques=("combination",),
                       n_data_symbols=1000, seed=1)
        with pytest.warns(RuntimeWarning, match="all 100 training blocks were degenerate"):
            assert run_scenario(scn) == []

    def test_zero_noise_sweep_reports_and_skips(self):
        scn = Scenario(nodes=(registry_entry("f2"),), power_sweep_dbm=(10.0,),
                       bandwidth_hz=0.0, techniques=("deviation", "combination"),
                       n_data_symbols=1000, seed=1)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            points = run_scenario(scn)
        assert [p.technique for p in points] == ["deviation"]

    def test_zero_power_is_coin_flip(self):
        scn = Scenario(nodes=F9, power_sweep_dbm=(float("-inf"),),
                       n_data_symbols=30_000, seed=2)
        points = run_scenario(scn)
        assert len(points) == 4
        for point in points:
            assert abs(point.ber - 0.5) < 0.02


class TestSweepShapes:
    def test_high_power_beats_low_power(self):
        scn = Scenario(nodes=F9, power_sweep_dbm=(-10.0, 30.0),
                       n_data_symbols=20_000, seed=3)
        points = {(p.technique, p.tx_power_dbm): p for p in run_scenario(scn)}
        for technique in scn.techniques:
            assert points[(technique, 30.0)].ber < points[(technique, -10.0)].ber

    def test_nt_sweep_points(self):
        scn = Scenario(nodes=F9, power_sweep_dbm=(10.0,), n_t=(10, 50),
                       techniques=("probability",), n_data_symbols=2000, seed=4)
        points = run_scenario(scn)
        assert sorted(p.n_t for p in points) == [10, 50]
        assert all(p.tx_power_dbm == 10.0 for p in points)
        assert run_scenario(scn) == points

    def test_nt_sweep_validation(self):
        for n_t in ((10, 15), (), (2, 10), (20, 10), (10, 10)):
            with pytest.raises(ParameterError, match="n_t"):
                small_scenario(n_t=n_t)

    def test_run_scenario_runs_the_power_by_nt_grid(self):
        scn = small_scenario(n_t=(10, 20, 50))
        points = run_scenario(scn)
        assert [(p.tx_power_dbm, p.n_t) for p in points[:6]] == list(
            itertools.product(scn.power_sweep_dbm, scn.n_t))
        assert len(points) == 2 * 3 * len(scn.techniques)
        # each row of the grid is the same as running that row alone
        for n_t in scn.n_t:
            row = run_scenario(replace(scn, n_t=n_t))
            assert row == [p for p in points if p.n_t == n_t]

    def test_nt_sweep_streams_independent_of_power_sweep(self):
        # a point's draws depend on (seed, block, n_t) only: running it alone
        # or beside other powers, techniques or training lengths is the same
        alone = Scenario(nodes=F9, n_t=20, power_sweep_dbm=(10.0,),
                         techniques=("combination",), n_data_symbols=3000, seed=7)
        point = single_point(alone, 10.0, "combination")
        in_power_sweep = replace(alone, power_sweep_dbm=(-4.0, 10.0, 24.0),
                                 techniques=TECHNIQUES)
        in_nt_sweep = replace(alone, techniques=("probability", "combination"),
                              n_t=(10, 20, 50))
        in_grid = replace(in_power_sweep, n_t=(10, 20, 50))
        assert point in run_scenario(in_power_sweep)
        assert point in run_scenario(in_nt_sweep, jobs=2)
        assert point in run_scenario(in_grid, jobs=2)

    def test_blocks_and_training_lengths_draw_distinct_values(self):
        draws = [_substream(7, *key).random(8)
                 for key in [(0,), (1,), (0, 20), (0, 50), (1, 20)]]
        for a, b in itertools.combinations(draws, 2):
            assert not np.array_equal(a, b)


class TestStreamVersion:
    def test_agrees_with_stream_1_reference(self):
        # fig4 at 10^4 symbols per point, seed 0, checked against the band
        # of 40 stream-1 replicates of every point (perfbench/reference)
        check = import_perfbench("check")
        scn = replace(preset("fig4"), n_data_symbols=10_000)
        reference = check.load_reference(
            ROOT / "perfbench" / "reference" / "fig4-10000.csv", 10_000)
        points = run_scenario(scn)
        assert len(points) == len(reference) == 104
        assert check.failed_points(points, reference, 10_000, scn.blocks) == {}


class TestTraceContract:
    def test_every_traced_layer_is_reached_and_restored(self):
        # the names perfbench's --trace 1 wraps must exist and be called by a
        # fig6 run (all nine laws plus MRC), and the wrappers must come off
        spans = import_perfbench("spans")

        def targets():
            found = []
            for path, attr in spans.TARGETS.values():
                module, _, cls = path.partition(".")
                owner = importlib.import_module(f"bccsim.{module}")
                found.append(getattr(getattr(owner, cls) if cls else owner, attr))
            return found

        originals = targets()
        scn = replace(preset("fig6"), power_sweep_dbm=(10.0,), n_data_symbols=200, blocks=2)
        with spans.traced() as tracer:
            cli.format_csv(run_scenario(scn))
        spans.check_coverage(tracer)
        assert all(a is b for a, b in zip(targets(), originals, strict=True))
