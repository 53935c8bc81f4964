"""Monte-Carlo harness: determinism, accounting, limits, regression values."""

import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bccsim import (
    TECHNIQUES,
    DegenerateTrainingError,
    ParameterError,
    Scenario,
    make_ber_point,
    preset,
    registry_entry,
    run_nt_sweep,
    run_point,
    run_scenario,
    run_sweep,
)
from bccsim.montecarlo import STREAM_VERSION, _substream

F9 = (registry_entry("f9"),)
ROOT = Path(__file__).resolve().parent.parent


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
            Scenario(nodes=F9, nt_sweep=(10, 20))  # needs single-power sweep
        with pytest.raises(ParameterError):
            Scenario(nodes=F9 + F9)  # duplicate node ids

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
        assert run_sweep(scn) == run_sweep(scn)

    def test_worker_count_does_not_matter(self):
        scn = small_scenario()
        assert run_sweep(scn, jobs=1) == run_sweep(scn, jobs=3)

    def test_run_point_matches_sweep_row(self):
        scn = small_scenario()
        rows = {(p.technique, p.tx_power_dbm): p for p in run_sweep(scn)}
        assert run_point(scn, 10.0, "deviation") == rows[("deviation", 10.0)]

    def test_frozen_regression_value(self):
        # fixed-seed reference run, recorded when the stream version was set
        scn = Scenario(nodes=F9, power_sweep_dbm=(10.0,), techniques=("deviation",),
                       n_data_symbols=100_000, seed=42)
        point = run_point(scn, 10.0, "deviation")
        assert STREAM_VERSION == 2  # stream 1 gave 50 errors here
        assert point.error_count == 40
        assert point.symbol_count == 100_000


class TestAccounting:
    def test_symbol_budget_exact(self):
        for budget in (1, 99, 4000):
            scn = small_scenario(n_data_symbols=budget, power_sweep_dbm=(10.0,),
                                 techniques=("deviation",))
            assert run_point(scn, 10.0, "deviation").symbol_count == budget

    def test_output_order_deterministic(self):
        points = run_sweep(small_scenario())
        keys = [(p.technique, p.tx_power_dbm) for p in points]
        assert keys == sorted(keys)

    def test_preconditions(self):
        scn = small_scenario()
        with pytest.raises(ParameterError):
            run_point(scn, 5.0, "deviation")  # power not in sweep
        with pytest.raises(ParameterError):
            run_point(scn, 10.0, "mrc")  # technique not in scenario


class TestDegenerateLimits:
    def test_zero_noise_is_error_free(self):
        scn = Scenario(nodes=(registry_entry("f2"),), power_sweep_dbm=(10.0,),
                       bandwidth_hz=0.0, techniques=("probability", "deviation", "mrc"),
                       n_data_symbols=10_000, seed=1)
        for point in run_sweep(scn):
            assert point.ber == 0.0

    def test_zero_noise_combination_degenerates(self):
        # the zeros half-frame is received as exact zeros, so A0 = 0
        scn = Scenario(nodes=(registry_entry("f2"),), power_sweep_dbm=(10.0,),
                       bandwidth_hz=0.0, techniques=("combination",),
                       n_data_symbols=1000, seed=1)
        with pytest.raises(DegenerateTrainingError):
            run_point(scn, 10.0, "combination")

    def test_zero_noise_sweep_reports_and_skips(self):
        scn = Scenario(nodes=(registry_entry("f2"),), power_sweep_dbm=(10.0,),
                       bandwidth_hz=0.0, techniques=("deviation", "combination"),
                       n_data_symbols=1000, seed=1)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            points = run_sweep(scn)
        assert [p.technique for p in points] == ["deviation"]

    def test_zero_power_is_coin_flip(self):
        scn = Scenario(nodes=F9, power_sweep_dbm=(float("-inf"),),
                       n_data_symbols=30_000, seed=2)
        for point in run_sweep(scn):
            assert abs(point.ber - 0.5) < 0.02


class TestSweepShapes:
    def test_high_power_beats_low_power(self):
        scn = Scenario(nodes=F9, power_sweep_dbm=(-10.0, 30.0),
                       n_data_symbols=20_000, seed=3)
        points = {(p.technique, p.tx_power_dbm): p for p in run_sweep(scn)}
        for technique in scn.techniques:
            assert points[(technique, 30.0)].ber < points[(technique, -10.0)].ber

    def test_nt_sweep_points(self):
        scn = Scenario(nodes=F9, power_sweep_dbm=(10.0,),
                       techniques=("probability",), n_data_symbols=2000, seed=4)
        points = run_nt_sweep(scn, (10, 50), 10.0)
        assert sorted(p.n_t for p in points) == [10, 50]
        assert all(p.tx_power_dbm == 10.0 for p in points)
        assert run_nt_sweep(scn, (10, 50), 10.0) == points

    def test_nt_sweep_validation(self):
        scn = small_scenario()
        with pytest.raises(ParameterError):
            run_nt_sweep(scn, (10, 15), 10.0)
        with pytest.raises(ParameterError):
            run_nt_sweep(scn, (), 10.0)

    def test_run_scenario_dispatches_on_nt_sweep(self):
        scn = Scenario(nodes=F9, power_sweep_dbm=(10.0,), techniques=("deviation",),
                       n_data_symbols=2000, seed=6, nt_sweep=(10, 20))
        points = run_scenario(scn)
        assert sorted(p.n_t for p in points) == [10, 20]
        power_scn = small_scenario()
        assert run_scenario(power_scn) == run_sweep(power_scn)

    def test_nt_sweep_streams_independent_of_power_sweep(self):
        # a point's draws depend on (seed, block, n_t) only: running it alone
        # or beside other powers, techniques or training lengths is the same
        alone = Scenario(nodes=F9, n_t=20, power_sweep_dbm=(10.0,),
                         techniques=("combination",), n_data_symbols=3000, seed=7)
        point = run_point(alone, 10.0, "combination")
        in_power_sweep = replace(alone, power_sweep_dbm=(-4.0, 10.0, 24.0),
                                 techniques=TECHNIQUES)
        in_nt_sweep = replace(alone, techniques=("probability", "combination"),
                              nt_sweep=(10, 20, 50))
        assert point in run_sweep(in_power_sweep)
        assert point in run_scenario(in_nt_sweep, jobs=2)

    def test_blocks_and_training_lengths_draw_distinct_values(self):
        draws = [_substream(7, *key).random(8)
                 for key in [(0,), (1,), (0, 20), (0, 50), (1, 20)]]
        for a, b in itertools.combinations(draws, 2):
            assert not np.array_equal(a, b)


class TestStreamVersion:
    def test_agrees_with_stream_1_reference(self):
        # fig4 at 10^4 symbols per point, seed 0, checked against the band
        # of 40 stream-1 replicates of every point (perfbench/reference)
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            from check import failed_points, load_reference
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
        scn = replace(preset("fig4"), n_data_symbols=10_000)
        reference = load_reference(ROOT / "perfbench" / "reference" / "fig4-10000.csv", 10_000)
        points = run_scenario(scn)
        assert len(points) == len(reference) == 104
        assert failed_points(points, reference, 10_000, scn.blocks) == {}
