"""Monte-Carlo harness: determinism, accounting, limits, regression values."""

import hashlib
import importlib
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
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
from bccsim.detectors import Workspace
from bccsim.montecarlo import STREAM_VERSION, _run_block, _substream
from bccsim.presets import PRESET_NAMES

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


class InlinePool:
    """In-process stand-in for ProcessPoolExecutor: appends its size to ``opened``,
    starts no process."""

    def __init__(self, opened, max_workers):
        opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


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

    def test_concurrent_runs_keep_their_own_scratch(self):
        # numpy releases the GIL inside its kernels, so runs in threads would
        # corrupt each other's counts if they shared scratch arrays
        scn = small_scenario(nodes=tuple(registry_entry(f"f{i}") for i in range(1, 10)),
                             techniques=TECHNIQUES, n_data_symbols=20_000, blocks=4)
        serial = run_scenario(scn)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run_scenario, scn) for _ in range(4)]
                runs = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(run == serial for run in runs)

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


class TestByteIdentity:
    # sha256 of the CSV of every preset at seed 3 and 4,000 symbols per point,
    # recorded at stream version 2 before blocks ran their powers in passes
    PINNED = {
        "fig3-f1": "b6d6fff59bd4084e9465287d6a97f70e180010c2596eb0ddc55e11d160fc17f8",
        "fig3-f2": "974b5f2233d00a9814c6a938af1deaf49930673ce4ee157f7794c3fc311fde0a",
        "fig3-f3": "88670af5dcea4c4e7be84f713a30ec628f74aff04c087cdd22e6213a7edb5c1b",
        "fig3-f4": "2a646c53ec3f96ed0e67be67b65e01cc51edcc158825e06fe4bd6cbe4f92d0d7",
        "fig3-f5": "97b5ac05f60a9c64e50f85bd7855e41749cbc7fe5c4a3f2215ee5724af5d0312",
        "fig3-f6": "36b2a7dbe1f59c8f0797594981951b8b67f20b1792e09e61b7a529ca4d5f002b",
        "fig3-f7": "eaec470a6b071c63c18ab0a79d5a69d91aa0ffffec9ea5127bc2204dcc418ffa",
        "fig3-f8": "10710dd5035f77633460fed310cd5e2661f06c04cf6f4ccd166e8f72b903f7f1",
        "fig3-f9": "2d8f0b0a50f17163f9e13dfbb0a50d067538e5f78a01beae673ee0c4ee76e4e8",
        "fig4": "7379c7615713261a1f76ce78ccf5e6c474865c08d884d803503cabd8d0c80750",
        "fig5-weak": "8bc85231e871ef908694834bcc8d19e46e24441b6a9d566ed8ac4df26e7cf1c1",
        "fig5-strong": "301b6d6b27b6e4010fab9d938f433d4297eeafb0ac3270235965c78909577bea",
        "fig6": "09ce8eb0924b29721fd81b4390c55dfcb98d56783c216e02920e15a11010e128",
        "fig7": "c9e1c3ea569c40de60b3c0f2c840fccb5a818b13c00408091a6818c848adf2b2",
    }

    def test_every_preset_csv_is_pinned(self):
        assert STREAM_VERSION == 2  # a new stream version records new hashes
        hashes = {}
        for name in PRESET_NAMES:
            csv = cli.format_csv(run_scenario(replace(preset(name), seed=3,
                                                      n_data_symbols=4000)))
            hashes[name] = hashlib.sha256(csv.encode()).hexdigest()
        assert hashes == self.PINNED


class TestPowerPasses:
    SCENARIOS = {
        "fig4": (replace(preset("fig4"), seed=11), 100),
        "fig6": (replace(preset("fig6"), power_sweep_dbm=(-14.0, -6.0, 2.0, 10.0), seed=11), 150),
        "fig7": (replace(preset("fig7"), n_t=(10, 50, 200), seed=11), 400),
        "grid": (Scenario(nodes=(registry_entry("f1"), registry_entry("f9")),
                          power_sweep_dbm=(-10.0, 0.0, 10.0), n_t=(10, 20, 50), seed=11), 250),
        "zero-noise": (Scenario(nodes=(registry_entry("f2"),), power_sweep_dbm=(0.0, 10.0),
                                bandwidth_hz=0.0, seed=11), 100),
    }

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_pass_size_does_not_change_counts(self, name, monkeypatch):
        # one power per pass, uneven last passes (700 splits fig4's 26 powers
        # into 7, 7, 7 and 5; 1,000 splits grid's 3 into 2 and 1), and every
        # power of the block in one pass
        scenario, slots = self.SCENARIOS[name]
        runs = []
        for budget in (1, 700, 1000, 2 ** 30):
            monkeypatch.setattr(montecarlo, "_PASS_ELEMENTS", budget)
            runs.append([_run_block(scenario, b, slots, Workspace()) for b in range(3)])
        assert all(np.array_equal(a, b) for run in runs[1:] for a, b in zip(runs[0], run))
        assert runs[0][0].shape == (len(scenario.power_sweep_dbm) * len(scenario.n_t),
                                    len(scenario.techniques))
        if name == "zero-noise":
            assert (runs[0][0][:, scenario.techniques.index("combination")] == -1).all()
        if "mrc" in scenario.techniques:
            # MRC runs once per pass and serves every training length
            j = scenario.techniques.index("mrc")
            longest = replace(scenario, n_t=scenario.n_t[-1:])
            alone = _run_block(longest, 0, slots, Workspace())[:, j]
            by_length = runs[0][0][:, j].reshape(len(scenario.power_sweep_dbm), -1)
            assert (by_length == alone[:, None]).all()

    @pytest.mark.parametrize("name", SCENARIOS)
    @pytest.mark.filterwarnings("ignore:skipping BER point")
    def test_blocks_sharing_a_workspace_count_as_fresh_blocks(self, name, monkeypatch):
        # uneven blocks (1,001 symbols in 251, 250, 250 and 250 slots) and
        # uneven passes (1,800 splits fig4's 26 powers into 7, 7, 7 and 5)
        # leave a worker's workspace arrays of many shapes; one run of all
        # four blocks, and runs of 1, 1 and 2 blocks on three workers, must
        # count what fresh blocks count
        scenario = replace(self.SCENARIOS[name][0], n_data_symbols=1001, blocks=4)
        sizes = montecarlo._block_sizes(scenario.n_data_symbols, scenario.blocks)
        assert sizes == [251, 250, 250, 250]
        monkeypatch.setattr(montecarlo, "_PASS_ELEMENTS", 1800)
        fresh = [_run_block(scenario, b, n, Workspace()) for b, n in enumerate(sizes)]
        errors = sum(np.maximum(c, 0) for c in fresh)
        symbols = sum((c >= 0) * n for c, n in zip(fresh, sizes))
        grid = itertools.product(scenario.power_sweep_dbm, scenario.n_t)
        expected = {(t, p, n_t): (errors[i, j], symbols[i, j])
                    for (i, (p, n_t)), (j, t) in itertools.product(
                        enumerate(grid), enumerate(scenario.techniques)) if symbols[i, j]}
        pool_sizes = []
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", partial(InlinePool, pool_sizes))
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        for jobs in (1, 3):
            points = run_scenario(scenario, jobs=jobs)
            assert {(p.technique, p.tx_power_dbm, p.n_t): (p.error_count, p.symbol_count)
                    for p in points} == expected
        assert pool_sizes == [3]

    def test_blocks_sharing_a_workspace_allocate_little(self):
        # the second of two fig7 blocks (K=6, 10^4 slots, seven training
        # lengths) reuses the first one's arrays, so its fresh allocations
        # peak near 210 B per slot; allocating its temporaries takes about 450
        scenario = replace(preset("fig7"), n_data_symbols=2 * 10 ** 4, blocks=2, seed=1)
        workspace = Workspace()
        tracemalloc.start()
        try:
            _run_block(scenario, 0, 10 ** 4, workspace)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _run_block(scenario, 1, 10 ** 4, workspace)
            assert tracemalloc.get_traced_memory()[1] - before <= 320 * 10 ** 4
            del workspace
            before = tracemalloc.get_traced_memory()[0]
            run_scenario(scenario)  # its workspace goes with it
            assert tracemalloc.get_traced_memory()[0] - before <= 64 * 1024
        finally:
            tracemalloc.stop()

    def test_one_training_frame_at_a_time(self):
        # four long training frames cost about as much memory as the longest alone
        def peak(n_t):
            scenario = Scenario(nodes=F9, power_sweep_dbm=(10.0,), n_t=n_t, seed=1,
                                techniques=("probability",), n_data_symbols=100, blocks=1)
            tracemalloc.start()
            try:
                _run_block(scenario, 0, 100, Workspace())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((100,))  # first-call allocations stay out of the comparison
        alone = peak((100_000,))
        assert peak((40_000, 60_000, 80_000, 100_000)) <= 1.5 * alone


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
        scn = small_scenario(blocks=2)
        serial = run_scenario(scn, jobs=1)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", partial(InlinePool, pool_sizes))
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        assert run_scenario(scn, jobs=8) == serial
        run_scenario(replace(scn, blocks=5), jobs=3)
        run_scenario(replace(scn, blocks=100, n_data_symbols=3), jobs=8)  # 3 blocks
        run_scenario(replace(scn, blocks=10), jobs=100_000)  # 4 CPUs
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)  # unknown: serial
        assert run_scenario(scn, jobs=8) == serial
        assert pool_sizes == [2, 3, 3, 4]

    def test_preconditions(self):
        scn = small_scenario()
        for jobs in (0, -2, 2.5, "2", True):
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
