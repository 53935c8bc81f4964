"""Monte-Carlo harness: determinism, accounting, limits, regression values."""

import collections
import hashlib
import importlib
import itertools
import math
import os
import signal
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from bccsim import (
    TECHNIQUES,
    BurrXII,
    DegenerateTrainingError,
    ParameterError,
    Scenario,
    ReceivedFrame,
    TrainingStats,
    Weibull,
    dbm_to_watts,
    generate_received,
    make_ber_point,
    noise_variance,
    preset,
    registry_entry,
    run_scenario,
)
from bccsim import cli, detectors, link, montecarlo
from bccsim.detectors import MarginTables, Workspace, compute_training_stats
from bccsim.montecarlo import MAX_N_T, STREAM_VERSION, _run_block, _streams, _train
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


def frame_training_stats(y, x) -> TrainingStats:
    """The statistics of a whole training frame, as compute_training_stats read one before
    it took the two halves' amplitudes: (..., K, n_t) ``y`` received for the pattern ``x``,
    checked to be n_t/2 ones then n_t/2 zeros.  The reference a block's statistics match."""
    n_t = x.size
    half = n_t // 2
    assert n_t >= 4 and n_t % 2 == 0 and (x[:half] == 1).all() and (x[half:] == 0).all()
    amp = np.abs(y)
    a_one = np.add.reduce(amp[..., :half], axis=-1) / half
    a_zero = np.add.reduce(amp[..., half:], axis=-1) / half
    a_th = 0.5 * (a_one + a_zero)
    detected = amp >= a_th[..., None]
    lo, hi = 2.0 / n_t, 1.0 - 2.0 / n_t
    p11 = np.add.reduce(detected[..., :half], axis=-1, dtype=float) / half
    p00 = 1.0 - np.add.reduce(detected[..., half:], axis=-1, dtype=float) / half
    p11, p00 = (np.minimum(np.maximum(p, lo), hi) for p in (p11, p00))
    return TrainingStats(a_th=a_th, a_one=a_one, a_zero=a_zero, p11=p11, p00=p00)


def inline_forks(runs, scenario, bounds):
    """In-process stand-in for montecarlo._forked: appends the call's runs of blocks,
    (first, stop) pairs, to ``runs`` and runs each in this process, forking nothing."""
    runs.append(list(zip(bounds, bounds[1:])))
    return [montecarlo._run_blocks(scenario, first, stop) for first, stop in runs[-1]]


def training_stats(scenario, blocks):
    """The (lengths, blocks, powers, K) training statistics of a group of ``blocks``, each
    row's pools drawn from that block's own streams, as a group draws them."""
    return montecarlo._training_stats(scenario, [_streams(scenario.seed, b) for b in blocks])


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

    def test_the_grid_is_bounded_not_one_axis(self):
        # MAX_POINTS bounds powers x training lengths: 100 x 100 is accepted, one
        # more of either rejected, and a 3,000-length axis over 8,001 powers
        # fails naming both keys, not the budget
        powers = tuple(float(p) for p in range(-50, 50))
        n_t = tuple(range(4, 204, 2))
        assert len(powers) * len(n_t) == montecarlo.MAX_POINTS
        assert len(Scenario(nodes=F9, power_sweep_dbm=powers, n_t=n_t).n_t) == 100
        for grid in (dict(power_sweep_dbm=powers + (50.0,), n_t=n_t),
                     dict(power_sweep_dbm=powers, n_t=n_t + (204,)),
                     dict(power_sweep_dbm=tuple(-100 + 0.025 * i for i in range(8001)),
                          n_t=tuple(range(4, 6004, 2)), n_data_symbols=10, blocks=1)):
            with pytest.raises(ParameterError, match=f"^power_sweep_dbm x n_t: at most "
                                                     f"{montecarlo.MAX_POINTS} points") as raised:
                Scenario(nodes=F9, **grid)
            assert "n_data_symbols" not in str(raised.value)

    def test_budgets_past_int64_raise_naming_the_key(self):
        # a point's error count over its blocks is an int64, so a budget may be
        # 2**63 - 1 symbols and no more, however it is dealt over the blocks
        for n, blocks in ((2 ** 63, 100), (2 ** 63, 1), (10 ** 30, 100)):
            with pytest.raises(ParameterError, match="^n_data_symbols must be in "):
                Scenario(nodes=F9, n_data_symbols=n, blocks=blocks)
        for nodes in (F9, preset("fig6").nodes):
            assert Scenario(nodes=nodes, n_data_symbols=2 ** 63 - 1).n_data_symbols == 2 ** 63 - 1


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
        assert STREAM_VERSION == 3  # stream 1 gave 50 errors here, stream 2 gave 40
        assert point.error_count == 46
        assert point.symbol_count == 100_000
        # every technique at K = 9 and K = 6, recorded at the same stream version
        fig6 = replace(preset("fig6"), power_sweep_dbm=(-14.0, -10.0), n_data_symbols=20_000,
                       blocks=20, seed=42)
        assert {(p.technique, p.tx_power_dbm): p.error_count for p in run_scenario(fig6)} == {
            ("combination", -14.0): 1388, ("combination", -10.0): 118,
            ("deviation", -14.0): 2982, ("deviation", -10.0): 671,
            ("mrc", -14.0): 529, ("mrc", -10.0): 24,
            ("probability", -14.0): 2289, ("probability", -10.0): 626}
        fig7 = replace(preset("fig7"), n_t=(10, 50), n_data_symbols=20_000, blocks=20, seed=42)
        assert {(p.technique, p.n_t): p.error_count for p in run_scenario(fig7)} == {
            ("combination", 10): 0, ("combination", 50): 3,
            ("deviation", 10): 48, ("deviation", 50): 35,
            ("probability", 10): 350, ("probability", 50): 90}


class TestByteIdentity:
    # sha256 of the CSV of every preset at seed 3 and 4,000 symbols per point,
    # recorded at stream version 3
    PINNED = {
        "fig3-f1": "ef97a05f11c91657029867491025caa3a8d4dd9257b562fcb4fe985458a98d45",
        "fig3-f2": "8b08dfece05cc540e9b95976b689417b27a5289d2dffbbce3e6d40dbb91285de",
        "fig3-f3": "8956db63c5507d2b19caeb95de6b4f1acd7a2bb815f6b92a30f04f4de71f1544",
        "fig3-f4": "946671e511cc0ed5d8dda6d18baa6f6810599d6c50736bc08ed19902936221a1",
        "fig3-f5": "ad3a4863a509dc9854193291cbe4bd62925744a840daf6592b56efd7ff9251ce",
        "fig3-f6": "957e866547abd5310e83d81eab9d1562bb94f071e5b9b8e864b7183ff796cf9c",
        "fig3-f7": "950a72a2189d8f25549071d283b38e67b2d16e1e0b2345717f34c0f60ccd24d0",
        "fig3-f8": "3125db9719bf5171205cc4bd633e864435f26ada11d30e7801cd095d0f8e1a20",
        "fig3-f9": "143e3938c64fef2a321865454aa86ccf898dd7cdc0b768b04af1333d4ff9ca45",
        "fig4": "4ff06ead5fd1f2d799dcf2d331b8a7d3722d1bca94c25b8ce40ecdd041c59362",
        "fig5-weak": "36da8eed796698876c2c6ed15e174f70722852a6bb95401df0977c037e3d0735",
        "fig5-strong": "d47ee40856fc755ba20d0272a65e8fcb51114eca1307b0c763d610a8650303c9",
        "fig6": "9bfb22bf63e1b7262037c179e7da5dbb97506a1ccc61dec228c78231a80da4e1",
        "fig7": "6293b9224824b453c17e4ea46f529444768b629b7052081d8ff9e649c57db1e5",
    }

    def test_every_preset_csv_is_pinned(self):
        assert STREAM_VERSION == 3  # a new stream version records new hashes
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
                                bandwidth_hz=0.0, techniques=("probability", "deviation", "mrc"),
                                seed=11), 100),
    }

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_pass_size_does_not_change_counts(self, name, monkeypatch):
        # one power per pass, uneven last passes (700 splits fig4's 26 powers
        # into 7, 7, 7 and 5; 1,000 splits grid's 3 into 2 and 1), and every
        # power of the block in one pass; the three blocks as one group count
        # what they count alone at every pass size
        scenario, slots = self.SCENARIOS[name]
        runs = []
        for budget in (1, 700, 1000, 2 ** 30):
            monkeypatch.setattr(montecarlo, "_PASS_ELEMENTS", budget)
            runs.append([_run_block(scenario, range(b, b + 1), slots, Workspace())[0]
                         for b in range(3)])
            runs.append(list(_run_block(scenario, range(3), slots, Workspace())))
        assert all(np.array_equal(a, b) for run in runs[1:] for a, b in zip(runs[0], run))
        assert runs[0][0].shape == (len(scenario.power_sweep_dbm) * len(scenario.n_t),
                                    len(scenario.techniques))
        if "mrc" in scenario.techniques:
            # MRC runs once per pass and serves every training length
            j = scenario.techniques.index("mrc")
            longest = replace(scenario, n_t=scenario.n_t[-1:])
            alone = _run_block(longest, range(1), slots, Workspace())[0, :, j]
            by_length = runs[0][0][:, j].reshape(len(scenario.power_sweep_dbm), -1)
            assert (by_length == alone[:, None]).all()

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_blocks_sharing_a_workspace_count_as_fresh_blocks(self, name, monkeypatch):
        # uneven blocks (1,001 symbols in 251, 250, 250 and 250 slots) and
        # uneven passes (1,800 splits fig4's 26 powers into 7, 7, 7 and 5)
        # leave a worker's workspace arrays of many shapes; one run of all
        # four blocks, and runs of 1, 1 and 2 blocks on three workers, must
        # count what fresh blocks count
        scenario = replace(self.SCENARIOS[name][0], n_data_symbols=1001, blocks=4)
        sizes = [251, 250, 250, 250]
        monkeypatch.setattr(montecarlo, "_PASS_ELEMENTS", 1800)
        fresh = [_run_block(scenario, range(b, b + 1), n, Workspace())[0]
                 for b, n in enumerate(sizes)]
        errors = sum(fresh)
        grid = itertools.product(scenario.power_sweep_dbm, scenario.n_t)
        expected = {(t, p, n_t): (errors[i, j], 1001)
                    for (i, (p, n_t)), (j, t) in itertools.product(
                        enumerate(grid), enumerate(scenario.techniques))}
        forked, planned = [], []

        def recorded(scenario, blocks, n_symbols, *args):
            planned.extend([n_symbols] * len(blocks))
            return _run_block(scenario, blocks, n_symbols, *args)

        monkeypatch.setattr(montecarlo, "_run_block", recorded)
        monkeypatch.setattr(montecarlo, "_forked", partial(inline_forks, forked))
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        for jobs in (1, 3):
            points = run_scenario(scenario, jobs=jobs)
            assert {(p.technique, p.tx_power_dbm, p.n_t): (p.error_count, p.symbol_count)
                    for p in points} == expected
        assert forked == [[(0, 1), (1, 2), (2, 4)]] and planned == sizes * 2

    def test_a_block_plan_holds_nothing_per_block(self, monkeypatch):
        # 10**7 one-slot blocks: each block's size comes from its index, so
        # nothing is built per block before the first training group trains
        class FirstBlock(Exception):
            pass

        def first_block(*args):
            raise FirstBlock

        monkeypatch.setattr(montecarlo, "_train", first_block)
        scenario = Scenario(nodes=F9, power_sweep_dbm=(10.0,), techniques=("probability",),
                            n_data_symbols=10 ** 7, blocks=10 ** 7)
        tracemalloc.start()
        try:
            with pytest.raises(FirstBlock):
                run_scenario(scenario)
            assert tracemalloc.get_traced_memory()[1] < 10 ** 6
        finally:
            tracemalloc.stop()

    @staticmethod
    def held_by_a_worker(scenario, slots, size=1):
        """What a worker holds while its second group of ``size`` blocks of ``slots`` slots
        runs: its workspace's bytes plus that warm group's traced allocation peak."""
        workspace = Workspace()
        tracemalloc.start()
        try:
            _run_block(scenario, range(size), slots, workspace)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _run_block(scenario, range(size, 2 * size), slots, workspace)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return sum(array.nbytes for array in workspace.values()) + peak

    def test_blocks_sharing_a_workspace_allocate_little(self):
        # the second of two fig7 blocks (K=6, 10^4 slots, seven training
        # lengths) reuses the first one's detector scratch and draws its frames
        # into their own arrays: about 1,985 KB held, where drawing the frames
        # into the workspace too held 2,242 KB
        scenario = replace(preset("fig7"), n_data_symbols=2 * 10 ** 4, blocks=2, seed=1)
        assert self.held_by_a_worker(scenario, 10 ** 4) <= 2241 * 1024
        tracemalloc.start()
        try:
            run_scenario(scenario)  # its workspace goes with it
            assert tracemalloc.get_traced_memory()[0] <= 64 * 1024
        finally:
            tracemalloc.stop()

    def test_fig6_blocks_sharing_a_workspace_allocate_little(self):
        # the second of two fig6 blocks (K=9, 1,000 slots, 9 data passes of up
        # to three powers) allocates its frames but no per-pass arrays: about
        # 1,248 KB held, where drawing the frames into the workspace held 1,318 KB
        scenario = replace(preset("fig6"), n_data_symbols=2000, blocks=2, seed=1)
        assert self.held_by_a_worker(scenario, 1000) <= 1318 * 1024

    def test_a_fig4_group_holds_what_a_fig6_block_holds(self):
        # a group of twelve fig4 blocks (K=1, 100 slots, 26 powers) is one
        # (12, 26, 1, 100) pass of 31,200 elements, which holds no more than
        # the fig6 block above, whatever the blocks' draws take
        scenario = replace(preset("fig4"), n_data_symbols=10 ** 4, seed=1)
        assert [len(blocks) for blocks, _ in montecarlo._groups(scenario, 0, 24)] == [12, 12]
        assert self.held_by_a_worker(scenario, 100, 12) <= 1318 * 1024

    def test_a_fig6_block_derives_its_tables_once(self, monkeypatch):
        # three training lengths reading one 2,000-slot ones pool, and nine data
        # passes of three powers: every length's margin tables come from one call
        # and MRC's h . h from one, once per block, each frame is drawn once with
        # its h * x, and each power of a frame is computed once, drawn with the
        # first pass or rescaled.  The draw fills its y through received, which
        # is not counted as a rescale
        scenario = replace(preset("fig6"), n_t=(10, 50, 4000), seed=11)
        expected = _run_block(scenario, range(1), 1000, Workspace())
        calls, drawn, rescaled = {"margin_tables": 0, "mrc_tables": 0}, [], []
        frames, drawing = [], []
        for name in calls:
            def counted(*args, name=name, original=getattr(detectors, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(detectors, name, counted)
            monkeypatch.setattr(montecarlo, name, counted)
        received = ReceivedFrame.received

        def counted_draw(x, nodes, power_w, *args, **kwargs):
            drawn.append((x.size, np.size(power_w)))
            drawing.append(x.size)
            try:
                frames.append(generate_received(x, nodes, power_w, *args, **kwargs))
            finally:
                drawing.pop()
            return frames[-1]

        def counted_received(frame, power_w, out=None):
            if not drawing:
                rescaled.append((frame.x.size, np.size(power_w)))
            return received(frame, power_w, out)

        monkeypatch.setattr(ReceivedFrame, "received", counted_received)
        monkeypatch.setattr(montecarlo, "generate_received", counted_draw)
        assert montecarlo._PASS_ELEMENTS // (9 * 1000) == 3  # three powers per data pass
        assert np.array_equal(_run_block(scenario, range(1), 1000, Workspace()), expected)
        assert calls == {"margin_tables": 1, "mrc_tables": 1}
        # the pool's passes are sized by the longest length, and 9 x 4,000 passes
        # 2^15, so the pool is taken one power at a time; the data frame takes
        # eight passes of 3 powers and one of 2
        assert drawn == [(2000, 1), (1000, 3)]
        assert rescaled == [(2000, 1)] * 25 + [(1000, 3)] * 7 + [(1000, 2)]
        assert [frame.signal.tobytes() == (frame.h * frame.x).tobytes()
                for frame in frames] == [True, True]

    @pytest.mark.parametrize("scenario, slots, count", [
        (preset("fig6"), 1000, 9),
        (replace(preset("fig7"), power_sweep_dbm=(-10.0, -2.0, 6.0, 10.0)), 10 ** 4, 4),
    ], ids=["fig6", "fig7"])
    def test_later_passes_reuse_the_first_passs_memory(self, scenario, slots, count):
        # fig6's (9, 1,000) data frame takes a pass three powers at a time, and
        # one power of fig7's (6, 10^4) frame passes 2^15 elements, so it takes
        # one; either way the frame is drawn into its own y, and every later
        # pass is rescaled into the front of that first y
        powers = np.array([dbm_to_watts(p) for p in scenario.power_sweep_dbm])
        variance = noise_variance(scenario.n0_dbm_per_hz, scenario.bandwidth_hz)
        x = montecarlo.generate_data_symbols(slots, np.random.default_rng(3))
        rng, shape = np.random.default_rng(4), (slots, len(scenario.nodes))
        frame, passes = montecarlo._passes(x, scenario.nodes, powers, variance,
                                           rng.random(shape), rng.standard_normal(shape))
        first = frame.y
        starts = []
        for at, y in passes:
            assert np.shares_memory(y, first)
            assert y.shape == (len(powers[at]), len(scenario.nodes), slots)
            assert np.array_equal(y, frame.received(powers[at]))
            starts.append(at.start)
        assert len(starts) == count and starts[0] == 0

    def test_a_blocks_memory_is_flat_in_its_slots(self):
        # the data phase is drawn and detected a chunk at a time, so a warm fig7
        # block of 10^6 slots (184 chunks) peaks about where one of 10^4 (two
        # chunks) does, where drawing it whole would hold 100 times as much
        scenario = replace(preset("fig7"), seed=1)
        workspace = Workspace()
        _run_block(scenario, range(1), 10 ** 4, workspace)  # the workspace's arrays stay out

        def peak(slots):
            tracemalloc.start()
            try:
                _run_block(scenario, range(1, 2), slots, workspace)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10 ** 6) <= 1.25 * peak(10 ** 4)

    @pytest.mark.parametrize("name, slots, elements, chunks", [
        ("fig7", 12_001, 7_000, [5461, 5461, 1079]),
        ("fig6", 11_001, 8_991, [3640, 3640, 3640, 81]),
    ], ids=["fig7", "fig6"])
    def test_chunk_size_does_not_change_counts(self, name, slots, elements, chunks, monkeypatch):
        # each stream is drawn slot-major, so a block counts the same in chunks
        # of 2^15 elements (uneven last chunks), in smaller ones (1,166 and 999
        # slots) and in one chunk; no chunk here is a single slot, whose node
        # sums numpy would add in another order at K >= 8
        scenario = replace(preset(name), seed=11)
        drawn = []

        def counted(n, rng):
            drawn.append(n)
            return link.generate_data_symbols(n, rng)

        monkeypatch.setattr(montecarlo, "generate_data_symbols", counted)
        runs, sizes = [], []
        for size in (montecarlo._CHUNK_ELEMENTS, elements, 2 ** 30):
            monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", size)
            runs.append(_run_block(scenario, range(1), slots, Workspace()))
            sizes.append(drawn[:])
            drawn.clear()
        assert sizes[0] == chunks and sizes[2] == [slots]
        assert sum(sizes[1]) == slots and max(sizes[1]) == elements // len(scenario.nodes)
        assert min(size for run in sizes for size in run) > 1
        assert all(np.array_equal(runs[0], run) for run in runs[1:])

    def test_the_ufunc_buffer_is_the_callers_after_a_run(self, monkeypatch):
        # blocks run under _UFUNC_BUFFER; the caller's buffer comes back after
        # run_scenario returns and after a block raises.  Blocks of 101 and 100
        # slots run as two groups
        scenario = small_scenario(n_data_symbols=201, blocks=2)
        seen = []

        def watched(*args):
            seen.append(np.getbufsize())
            return _run_block(*args)

        def failing(*args):
            raise RuntimeError("block failed")

        previous = np.setbufsize(4096)
        try:
            monkeypatch.setattr(montecarlo, "_run_block", watched)
            run_scenario(scenario)
            assert seen == [montecarlo._UFUNC_BUFFER] * 2 and np.getbufsize() == 4096
            monkeypatch.setattr(montecarlo, "_run_block", failing)
            with pytest.raises(RuntimeError, match="block failed"):
                run_scenario(scenario)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(previous)

    @pytest.mark.parametrize("name", ["fig4", "fig6", "fig7"])
    def test_the_ufunc_buffer_does_not_change_counts(self, name, monkeypatch):
        # a reduction that casts, or a cast op, runs through the buffer; no
        # count, and no bit of the margin tables, may follow its size
        scenario = replace(preset(name), n_data_symbols=3000, blocks=3, seed=7)
        runs, tables = [], []

        def kept(stats):
            tables[-1].append(detectors.margin_tables(stats))
            return tables[-1][-1]

        monkeypatch.setattr(montecarlo, "margin_tables", kept)
        for size in (16, 8192):
            monkeypatch.setattr(montecarlo, "_UFUNC_BUFFER", size)
            tables.append([])
            runs.append(run_scenario(scenario))
        assert runs[0] == runs[1]
        # one call per training group, every length: each preset's three 1,000-slot
        # blocks train as one group
        assert len(tables[0]) == 1 == len(tables[1])
        assert all(np.array_equal(a, b) for t16, t8192 in zip(*tables)
                   for a, b in zip(t16, t8192))

    def test_one_training_frame_at_a_time(self):
        # four long training frames cost about as much memory as the longest alone
        def peak(n_t):
            scenario = Scenario(nodes=F9, power_sweep_dbm=(10.0,), n_t=n_t, seed=1,
                                techniques=("probability",), n_data_symbols=100, blocks=1)
            tracemalloc.start()
            try:
                _run_block(scenario, range(1), 100, Workspace())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((100,))  # first-call allocations stay out of the comparison
        alone = peak((100_000,))
        assert peak((40_000, 60_000, 80_000, 100_000)) <= 1.5 * alone

    def test_a_fig6_block_reduces_its_training_frame_in_two_passes(self, monkeypatch):
        # training passes are sized by the (powers, 9, n_t/2) ones pool, not by
        # the data frame: 32,768 // (9 * 200) = 18 powers per pass at n_t = 400,
        # so 26 powers take 2 calls where the data frame's three-power passes
        # take 9; the preset's n_t = 50 pool takes all 26 powers in one call.
        # Every call reads the one (9, n_t/2) zeros pool
        calls = []

        def counted(ones, zeros):
            calls.append((ones.shape, zeros.shape))
            return compute_training_stats(ones, zeros)

        monkeypatch.setattr(montecarlo, "compute_training_stats", counted)
        _run_block(replace(preset("fig6"), seed=11), range(1), 1000, Workspace())
        assert calls == [((1, 26, 9, 25), (1, 1, 9, 25))]
        calls.clear()
        step = montecarlo._PASS_ELEMENTS // (9 * 200)
        _run_block(replace(preset("fig6"), n_t=(400,), seed=11), range(1), 1000, Workspace())
        assert len(calls) == math.ceil(26 / step) == 2
        assert calls == [((1, 18, 9, 200), (1, 1, 9, 200)), ((1, 8, 9, 200), (1, 1, 9, 200))]

    @pytest.mark.parametrize("name", ["fig4", "fig6", "fig7"])
    def test_a_workers_workspace_holds_only_the_detectors_arrays(self, name, monkeypatch):
        # the link layer draws every frame into its own arrays, so the one
        # workspace a worker keeps across its blocks holds detector scratch alone
        workspaces = []

        def recorded(scenario, blocks, n_symbols, workspace, trained):
            workspaces.append(workspace)
            return _run_block(scenario, blocks, n_symbols, workspace, trained)

        monkeypatch.setattr(montecarlo, "_run_block", recorded)
        # blocks of 2,001 and 2,000 slots, two groups
        scenario = replace(preset(name), n_data_symbols=4001, blocks=2, seed=1)
        montecarlo._run_blocks(scenario, 0, 2)
        assert len(workspaces) == 2 and workspaces[0] is workspaces[1]
        assert {key for key, _ in workspaces[0]} == {"margin", "mask", "scratch"}

    def test_a_long_training_frame_is_not_kept_in_the_workspace(self):
        # a training frame whose one power passes _PASS_ELEMENTS is rescaled
        # into its own amplitudes and no frame is drawn into the worker's
        # workspace, so the workspace, which outlives the block, holds only
        # arrays the size of a data pass
        scenario = replace(preset("fig6"), power_sweep_dbm=(4.0, 10.0), n_t=(MAX_N_T,), seed=1)
        workspace = Workspace()
        _run_block(scenario, range(1), 100, workspace)
        assert 9 * MAX_N_T > montecarlo._PASS_ELEMENTS
        assert workspace and max(a.size for a in workspace.values()) <= montecarlo._PASS_ELEMENTS

    def test_training_passes_never_stack_a_long_frame(self):
        # a training frame longer than _PASS_ELEMENTS is reduced one power at a
        # time, so 26 powers cost about what one does, not 26 frames
        def peak(powers):
            scenario = Scenario(nodes=F9, power_sweep_dbm=powers, n_t=MAX_N_T, seed=1,
                                techniques=("deviation",), n_data_symbols=100, blocks=1)
            tracemalloc.start()
            try:
                _run_block(scenario, range(1), 100, Workspace())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((10.0,))  # first-call allocations stay out of the comparison
        alone = peak((10.0,))
        assert peak(tuple(float(p) for p in range(-20, 31, 2))) <= 1.5 * alone


class TestBlockGroups:
    """A worker runs its blocks in groups: consecutive blocks of equal slots, as many as fit
    one pass, each drawing from its own streams into its row of the group's arrays, and the
    rest run once for the group."""

    def test_a_fig4_run_draws_and_detects_once_per_group(self, monkeypatch):
        # 100 blocks of 100 slots at K=1 and 26 powers: 32,768 // 2,600 = 12
        # blocks a group, so nine groups each draw two frames, the training
        # pool's and the data's, and detect each trained technique once, where
        # running the blocks alone drew 200 frames and detected 300 times
        calls = collections.Counter()
        for name in ("generate_received", "detect"):
            def counted(*args, original=getattr(montecarlo, name), name=name, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(montecarlo, name, counted)
        run_scenario(replace(preset("fig4"), n_data_symbols=10 ** 4, seed=1))
        groups = math.ceil(100 / 12)
        assert calls == {"generate_received": 2 * groups, "detect": 3 * groups}

    def test_groups_count_what_their_blocks_count_alone(self, monkeypatch):
        # 10,050 symbols are 50 blocks of 101 slots, then 50 of 100, so a group
        # ends where the size changes; the workers of --jobs 3 start at blocks
        # 33 and 66, inside groups that --jobs 1 runs
        scenario = replace(preset("fig4"), n_data_symbols=10_050, seed=3)
        plan = [(len(blocks), slots) for blocks, slots in montecarlo._groups(scenario, 0, 100)]
        assert plan == ([(12, 101)] * 4 + [(2, 101)] + [(12, 100)] * 4 + [(2, 100)])
        assert [len(blocks) for blocks, _ in montecarlo._groups(scenario, 33, 66)] == [12, 5,
                                                                                      12, 4]
        errors = sum(_run_block(scenario, range(b, b + 1), scenario.block_slots(b),
                                Workspace())[0] for b in range(100))
        grid = itertools.product(scenario.power_sweep_dbm, scenario.n_t)
        expected = {(t, p, n_t): errors[i, j]
                    for (i, (p, n_t)), (j, t) in itertools.product(
                        enumerate(grid), enumerate(scenario.techniques))}
        forked = []
        monkeypatch.setattr(montecarlo, "_forked", partial(inline_forks, forked))
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        for jobs in (1, 3):
            points = run_scenario(scenario, jobs=jobs)
            assert {(p.technique, p.tx_power_dbm, p.n_t): p.error_count
                    for p in points} == expected
        assert forked == [[(0, 33), (33, 66), (66, 100)]]

    def test_an_mrc_only_group_restates_only_its_data_streams(self):
        # MRC reads the symbols, gains and noise alone, so each row of a group
        # that counts it alone restates two kept generators, not five, and a
        # trained group's rows restate all five; each is left where its stream
        # is after the row's draws: 100 data slots, and 25 of each training pool
        scenario = replace(preset("fig6"), techniques=("mrc",), n_data_symbols=200, blocks=2,
                           seed=3)
        kept = []
        for techniques, count in [(("mrc",), 2), (("probability", "mrc"), 5)]:
            counted = replace(scenario, techniques=techniques)
            _run_block(counted, range(2), 100, Workspace(), _train(counted, range(2), kept))
            assert [len(row) for row in kept] == [count, count]
            for block, row in enumerate(kept):
                streams = _streams(scenario.seed, block)
                montecarlo._draw(streams[montecarlo._GAINS:montecarlo._ONES_GAINS],
                                 np.empty((2, 100, 9)))
                montecarlo._draw(streams[montecarlo._ONES_GAINS:], np.empty((3, 25, 9)))
                assert [g.bit_generator.state for g in row] == [
                    g.bit_generator.state for g in streams[1:count + 1]]

    def test_a_group_of_many_chunks_counts_what_its_blocks_count_alone(self):
        # three 5,000-slot fig6 blocks take two data chunks each (3,640 and
        # 1,360 slots at K=9); a group of them, which _groups does not make,
        # draws every row's chunks from that row's own streams
        scenario = replace(preset("fig6"), power_sweep_dbm=(-10.0, 0.0), n_data_symbols=15_000,
                           blocks=3, seed=5)
        alone = np.stack([_run_block(scenario, range(b, b + 1), 5000, Workspace())[0]
                          for b in range(3)])
        assert alone.sum() > 0
        assert np.array_equal(_run_block(scenario, range(3), 5000, Workspace()), alone)

    # fig7: 15 blocks of 5,501 slots, then 7 of 5,500, each a data group of its own, training
    # ten a group (32,768 // (6 x 500)), so blocks 10 to 19 hold both sizes; fig6: 7 blocks of
    # 201 slots, then 5 of 200, training five a group (32,768 // (26 x 9 x 25)), so blocks 5
    # to 9 hold both.  --jobs 3 starts workers at blocks 7 and 14 (fig7) and 4 and 8 (fig6),
    # inside the training groups --jobs 1 runs; each of its workers trains as one group
    TRAINING_GROUPS = {
        "fig7": (121_015, 22, {1: [(0, 10), (10, 20), (20, 22)], 3: [(0, 7), (7, 14), (14, 22)]}),
        "fig6": (2407, 12, {1: [(0, 5), (5, 10), (10, 12)], 3: [(0, 4), (4, 8), (8, 12)]}),
    }

    @pytest.mark.parametrize("name", TRAINING_GROUPS)
    def test_training_groups_count_what_their_blocks_count_alone(self, name, monkeypatch):
        symbols, blocks, plans = self.TRAINING_GROUPS[name]
        scenario = replace(preset(name), n_data_symbols=symbols, blocks=blocks, seed=3)
        groups = list(montecarlo._training_groups(scenario, 0, blocks))
        assert [(run[0][0].start, run[-1][0].stop) for run in groups] == plans[1]
        assert len({slots for _, slots in groups[1]}) == 2  # both block sizes train as one
        errors = sum(_run_block(scenario, range(b, b + 1), scenario.block_slots(b),
                                Workspace())[0] for b in range(blocks))
        grid = itertools.product(scenario.power_sweep_dbm, scenario.n_t)
        expected = {(t, p, n_t): errors[i, j]
                    for (i, (p, n_t)), (j, t) in itertools.product(
                        enumerate(grid), enumerate(scenario.techniques))}
        derived, forked = [], []

        def kept(stats):
            derived.append(detectors.margin_tables(stats))
            return derived[-1]

        monkeypatch.setattr(montecarlo, "margin_tables", kept)
        monkeypatch.setattr(montecarlo, "_forked", partial(inline_forks, forked))
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        for jobs, plan in plans.items():
            derived.clear()
            points = run_scenario(scenario, jobs=jobs)
            assert {(p.technique, p.tx_power_dbm, p.n_t): p.error_count
                    for p in points} == expected
            # one set of tables for each training group, a row for each of its blocks
            assert [tables.a_th.shape[1] for tables in derived] == [b - a for a, b in plan]
        assert forked == [plans[3]]


class TestTrainingGroups:
    """Every training length reads the front of the block's two training pools, drawn once
    at max(n_t)/2 slots each, and keeps the bits of its own pools drawn alone."""

    SCENARIOS = {
        "fig7": (replace(preset("fig7"), power_sweep_dbm=(-10.0, 0.0, 10.0), seed=13), 10),
        "nine-node": (Scenario(nodes=preset("fig6").nodes, n_t=(10, 1000, 4000),
                               power_sweep_dbm=(-20.0, -6.0, 4.0, 10.0, 30.0), seed=13), 1),
    }

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_each_lengths_tables_are_those_of_its_frame_drawn_alone(self, name, monkeypatch):
        # fig7's seven lengths read a 500-slot pool in passes of up to ten
        # powers; the nine-node lengths a 2,000-slot pool one power at a time,
        # since two powers of 9 x 2,000 pass 2^15.  Alone, a length draws n_t/2
        # slots of each pool at every power at once, as one frame
        scenario, step = self.SCENARIOS[name]
        k = len(scenario.nodes)
        assert max(1, montecarlo._PASS_ELEMENTS // (k * scenario.n_t[-1] // 2)) == step
        powers = np.array([dbm_to_watts(p) for p in scenario.power_sweep_dbm])
        variance = noise_variance(scenario.n0_dbm_per_hz, scenario.bandwidth_hz)
        derived = []

        def kept(stats):
            derived.append(detectors.margin_tables(stats))
            return derived[-1]

        monkeypatch.setattr(montecarlo, "margin_tables", kept)
        for b in range(2):
            _run_block(scenario, range(b, b + 1), 100, Workspace())
            assert len(derived) == b + 1  # one call covers every length
            for i, n_t in enumerate(scenario.n_t):
                streams, shape = _streams(scenario.seed, b), (n_t // 2, k)
                ones = generate_received(np.ones(n_t // 2, dtype=np.int64), scenario.nodes,
                                         powers, variance,
                                         streams[montecarlo._ONES_GAINS].random(shape),
                                         streams[montecarlo._ONES_NOISE].standard_normal(shape))
                zeros = link.generate_noise(
                    variance, streams[montecarlo._ZEROS_NOISE].standard_normal(shape))
                y = np.concatenate([ones.y, np.broadcast_to(zeros, ones.y.shape)], axis=-1)
                pattern = np.repeat([1, 0], n_t // 2)
                alone = detectors.margin_tables(frame_training_stats(y, pattern))
                for field, single, pooled in zip(MarginTables._fields, alone,
                                                 derived[-1].rows((i, 0))):
                    assert (pooled.dtype, pooled.shape) == (single.dtype, single.shape), field
                    assert pooled.tobytes() == single.tobytes(), (n_t, field)

    @pytest.mark.parametrize("scenario", [
        replace(preset("fig4"), seed=3),
        replace(preset("fig6"), seed=3),
        replace(preset("fig7"), seed=3),
        Scenario(nodes=preset("fig6").nodes, n_t=(10, 1000, 4000), power_sweep_dbm=(-6.0, 10.0),
                 n_data_symbols=3000, seed=3),
    ], ids=["fig4", "fig6", "fig7", "config"])
    def test_block_statistics_are_those_of_each_lengths_frame(self, scenario):
        # a group reduces the fronts of its blocks' two pools' amplitudes; each
        # block's pools joined into each length's (powers, K, n_t) frame of ones
        # then zeros, as a block once built it alone, give the same bits.  config
        # is the nine nodes of tools/identity_csvs.py, whose pool is read a power
        # at a time
        powers = np.array([dbm_to_watts(p) for p in scenario.power_sweep_dbm])
        variance = noise_variance(scenario.n0_dbm_per_hz, scenario.bandwidth_hz)
        shape = (scenario.n_t[-1] // 2, len(scenario.nodes))
        stats = training_stats(scenario, range(2))
        for b in range(2):
            streams = _streams(scenario.seed, b)
            ones = generate_received(np.ones(shape[0], dtype=np.int64), scenario.nodes, powers,
                                     variance, streams[montecarlo._ONES_GAINS].random(shape),
                                     streams[montecarlo._ONES_NOISE].standard_normal(shape)).y
            zeros = link.generate_noise(
                variance, streams[montecarlo._ZEROS_NOISE].standard_normal(shape))
            for i, n_t in enumerate(scenario.n_t):
                half = n_t // 2
                y = np.empty(ones.shape[:-1] + (n_t,))
                y[..., :half], y[..., half:] = ones[..., :half], zeros[:, :half]
                reference = frame_training_stats(y, np.repeat([1, 0], n_t // 2))
                for field, value in vars(reference).items():
                    pooled = getattr(stats, field)[i, b]
                    assert pooled.shape == value.shape == (len(powers), shape[1])
                    assert pooled.tobytes() == value.tobytes(), (n_t, field)

    def test_deviation_decides_every_length_of_a_pass_in_one_call(self, monkeypatch):
        # fig7's seven lengths at three powers, two blocks of 6,000 slots: each block's
        # data runs in chunks of 5,461 and 539 slots at K = 6, the first in three
        # one-power passes (2^15 // (6 * 5,461) = 1), the second in one of all three.
        # Each pass calls deviation once, on its (lengths, blocks, powers, K, 1) tables,
        # and probability and combination once per length
        scenario = replace(preset("fig7"), power_sweep_dbm=(-10.0, 0.0, 10.0),
                           n_data_symbols=12_000, blocks=2, seed=5)
        calls = collections.defaultdict(list)

        def recorded(technique, y, tables, workspace):
            calls[technique].append((y.shape, tables.a_th.shape))
            return detectors.detect(technique, y, tables, workspace)

        monkeypatch.setattr(montecarlo, "detect", recorded)
        montecarlo._run_blocks(scenario, 0, 2)
        passes = [(1, 1, 6, 5461)] * 3 + [(1, 3, 6, 539)]
        assert calls[detectors.DEVIATION] == [(y, (7,) + y[:3] + (1,)) for y in passes * 2]
        for technique in (detectors.PROBABILITY, detectors.COMBINATION):
            assert calls[technique] == [(y, y[:3] + (1,)) for y in passes * 2 for _ in range(7)]

    def test_a_fig7_block_pays_its_fixed_costs_once(self, monkeypatch):
        # counts repeat exactly where times do not.  A warm fig7 block seeds one
        # generator and draws two frames, the ones pool of its seven training
        # lengths and the data's, with one inverse_cdf call per node each, reduces
        # each length once and derives every length's tables in one call; the
        # three blocks of a run are one group, which draws the two frames of all
        # three; a scenario's powers and noise are converted once, when it is built
        scenario = replace(preset("fig7"), n_data_symbols=3000, blocks=3, seed=5)
        workspace = Workspace()
        _run_block(scenario, range(1), 1000, workspace)
        calls = collections.Counter()
        for owner, name in [(montecarlo, "_streams"), (montecarlo, "generate_received"),
                            (montecarlo, "margin_tables"),
                            (montecarlo, "compute_training_stats"), (BurrXII, "inverse_cdf"),
                            (Weibull, "inverse_cdf"), (montecarlo, "dbm_to_watts"),
                            (link, "dbm_to_watts")]:
            def counted(*args, original=getattr(owner, name), name=name, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        _run_block(scenario, range(1, 2), 1000, workspace)
        assert calls == {"_streams": 1, "generate_received": 2, "inverse_cdf": 12,
                         "margin_tables": 1, "compute_training_stats": 7}
        calls.clear()
        montecarlo._run_blocks(scenario, 0, 3)
        assert calls["dbm_to_watts"] == 0  # the run reads the watts the scenario kept
        assert calls["generate_received"] == 2 and calls["_streams"] == 3
        assert calls["margin_tables"] == 1 and calls["compute_training_stats"] == 7
        calls.clear()
        montecarlo._run_blocks(replace(scenario), 0, 3)  # a scenario's whole life
        assert calls["dbm_to_watts"] == 2  # the one power and the noise density


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
        # an in-process stand-in records the runs of blocks and forks nothing
        forked = []
        scn = small_scenario(blocks=2)
        serial = run_scenario(scn, jobs=1)
        monkeypatch.setattr(montecarlo, "_forked", partial(inline_forks, forked))
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        assert run_scenario(scn, jobs=8) == serial
        run_scenario(replace(scn, blocks=5), jobs=3)
        run_scenario(replace(scn, blocks=100, n_data_symbols=3), jobs=8)  # 3 blocks
        run_scenario(replace(scn, blocks=10), jobs=100_000)  # 4 CPUs
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)  # unknown: serial
        assert run_scenario(scn, jobs=8) == serial
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        monkeypatch.delattr(montecarlo.os, "fork")  # no fork: serial
        assert run_scenario(scn, jobs=8) == serial
        assert forked == [[(0, 1), (1, 2)], [(0, 1), (1, 3), (3, 5)], [(0, 1), (1, 2), (2, 3)],
                          [(0, 2), (2, 5), (5, 7), (7, 10)]]

    def test_preconditions(self):
        scn = small_scenario()
        for jobs in (0, -1, -2, 2.5, "2", True):
            with pytest.raises(ParameterError, match="jobs"):
                run_scenario(scn, jobs=jobs)


class TestForkedWorkers:
    """Real forked workers.  A child inherits this process, so a _run_blocks patched
    before the call runs in the children; after every call no child is left."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # conftest.py checks that each fork forks a process of one thread
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        yield
        with pytest.raises(ChildProcessError):  # none running, none unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_counts_are_those_of_the_serial_run(self):
        scn = small_scenario(blocks=3)
        assert run_scenario(scn, jobs=2) == run_scenario(scn, jobs=1)

    @pytest.mark.parametrize("error", [ParameterError("n_t: raised in a worker"),
                                       MemoryError("Unable to allocate 7.28 TiB")],
                             ids=["parameter-error", "memory-error"])
    def test_a_workers_exception_comes_back_with_its_type(self, error, monkeypatch):
        def second_fails(scenario, first, stop, run_blocks=montecarlo._run_blocks):
            if first > 0:
                raise error
            return run_blocks(scenario, first, stop)

        monkeypatch.setattr(montecarlo, "_run_blocks", second_fails)
        with pytest.raises(type(error)) as raised:
            run_scenario(small_scenario(), jobs=2)
        assert type(raised.value) is type(error) and str(raised.value) == str(error)

    @pytest.mark.parametrize("end, how", [
        (lambda: os._exit(1), "exit status 1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ], ids=["exit", "killed"])
    def test_a_worker_that_sends_nothing_names_how_it_ended(self, end, how, monkeypatch):
        monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: end())
        with pytest.raises(ChildProcessError,
                           match=rf"ended without sending its counts \({how}\)"):
            run_scenario(small_scenario(), jobs=2)

    def test_a_worker_killed_while_it_sends_its_counts_names_how_it_ended(
            self, killed_while_sending):
        # each worker writes half its counts and is killed: a cut payload is no
        # pickle, so the exit status, not the bytes, tells that the worker failed
        with pytest.raises(ChildProcessError,
                           match=r"ended without sending its counts \(killed by signal 9\)"):
            run_scenario(replace(preset("fig4"), n_data_symbols=400), jobs=2)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_worker_that_cannot_start_leaves_nothing_open(self, second_fork_fails):
        # the first worker is killed and reaped, and the failed attempt's pipe is closed
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(ChildProcessError) as raised:
            run_scenario(small_scenario(), jobs=2)
        assert str(raised.value) == second_fork_fails
        assert len(os.listdir("/proc/self/fd")) == open_fds
        with pytest.raises(ChildProcessError):  # the first worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupt_kills_the_running_workers(self, monkeypatch):
        # the workers sleep; an alarm interrupts the parent as Ctrl-C would
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: time.sleep(60))
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                run_scenario(small_scenario(), jobs=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30


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


class TestZeroNoiseRule:
    """A0, the zeros half-frame's mean |noise|, is 0 exactly when N0*B/2 is,
    which is why run_scenario can decide combination's degeneracy per scenario."""

    NODES = preset("fig6").nodes  # all nine channel laws

    @pytest.mark.parametrize("n_t", [4, 50, 1000])
    def test_zero_noise_zeros_reference_is_exactly_zero(self, n_t):
        scn = Scenario(nodes=self.NODES, bandwidth_hz=0.0,
                       power_sweep_dbm=(float("-inf"),) + Scenario.power_sweep_dbm)
        stats = training_stats(replace(scn, n_t=n_t), range(5))
        assert stats.a_zero.shape == (1, 5, 27, 9) and (stats.a_zero == 0.0).all()
        with pytest.raises(DegenerateTrainingError):  # the guard stays loud in a block
            _run_block(replace(scn, techniques=("combination",)), range(1), 100, Workspace())

    @pytest.mark.parametrize("n0", [-174.0, -3200.0])  # default and subnormal variance
    def test_noisy_references_are_positive(self, n0):
        scn = Scenario(nodes=self.NODES, n_t=(4, 50), n0_dbm_per_hz=n0,
                       power_sweep_dbm=(float("-inf"), -20.0, 30.0), techniques=("combination",))
        assert 0.0 < noise_variance(n0, scn.bandwidth_hz) < 1e-15
        stats = training_stats(scn, range(5))  # both lengths, read from one pair of pools
        assert stats.a_one.shape == (2, 5, 3, 9)
        assert all((ref > 0.0).all() for ref in (stats.a_one, stats.a_zero, stats.a_th))
        assert _run_block(scn, range(5), 100, Workspace()).shape == (5, 6, 1)

    def test_zero_noise_combination_alone_draws_nothing(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("drew a frame")

        monkeypatch.setattr(montecarlo, "generate_received", fail)
        scn = Scenario(nodes=F9, bandwidth_hz=0.0, techniques=("combination",),
                       n_t=(10, 50), n_data_symbols=30, blocks=3)
        with pytest.warns(RuntimeWarning) as caught:
            assert run_scenario(scn) == []
        assert len(caught) == 26 * 2
        assert all("all 3 training blocks were degenerate" in str(w.message) for w in caught)

    @pytest.mark.parametrize("techniques, noise", [(("mrc",), {}),
                                                   (("combination", "mrc"), {"bandwidth_hz": 0.0})],
                             ids=["mrc-alone", "zero-noise-combination-mrc"])
    def test_mrc_counts_are_those_of_the_all_technique_run(self, techniques, noise,
                                                            monkeypatch):
        # MRC reads only the data streams, so its counts do not depend on which
        # techniques share its blocks, and a block that counts MRC alone draws and
        # reduces no training pools; every other RuntimeWarning stays an error
        def fail(*args, **kwargs):
            raise AssertionError("an MRC-only block did training work")

        scn = replace(preset("fig6"), power_sweep_dbm=(-math.inf, -10.0, 10.0),
                      n_data_symbols=3000, blocks=3, seed=4, **noise)
        with warnings.catch_warnings(record=True) as caught:
            warnings.filterwarnings("always", "skipping BER point", RuntimeWarning)
            everything = run_scenario(scn)
            with monkeypatch.context() as patch:
                for name in ("compute_training_stats", "generate_noise", "margin_tables"):
                    patch.setattr(montecarlo, name, fail)
                alone = run_scenario(replace(scn, techniques=techniques))
        assert alone == [p for p in everything if p.technique == "mrc"] and len(alone) == 3
        assert len(caught) == (2 * 3 if noise else 0)  # each run's three combination points


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

    def test_blocks_and_streams_draw_distinct_values(self):
        # stream j of block b is the generator seeded by the key (3, b),
        # advanced j * 2^64 draws, and no two streams or blocks repeat
        draws = [generator.random(8) for b in (0, 1) for generator in _streams(7, b)]
        for a, b in itertools.combinations(draws, 2):
            assert not np.array_equal(a, b)
        for j, generator in enumerate(_streams(7, 1)):
            bits = np.random.PCG64DXSM(np.random.SeedSequence(entropy=7, spawn_key=(3, 1)))
            bits.advance(j << 64)
            assert np.array_equal(generator.random(8), np.random.Generator(bits).random(8))


class TestStreamVersion:
    def test_agrees_with_stream_1_reference(self):
        # fig4 at 10^4 symbols per point, fig6 at 10^5 and fig7 at its own 10^6
        # (two chunks in each 10^4-slot block), seed 0, each checked against
        # the band of 40 stream-1 replicates of every point (perfbench/reference),
        # which does not depend on the stream
        check = import_perfbench("check")
        for name, symbols, count in (("fig4", 10_000, 104), ("fig6", 100_000, 104),
                                     ("fig7", 1_000_000, 21)):
            scn = replace(preset(name), n_data_symbols=symbols)
            reference = check.load_reference(
                ROOT / "perfbench" / "reference" / f"{name}-{symbols}.csv", symbols)
            points = run_scenario(scn)
            assert len(points) == len(reference) == count
            assert check.failed_points(points, reference, symbols, scn.blocks) == {}, name


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
