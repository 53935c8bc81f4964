"""Physical-layer model: unit bridges, symbol frames, received signals."""

import math

import numpy as np
import pytest

from bccsim import (
    ParameterError,
    ReceivedFrame,
    Weibull,
    NodeProfile,
    dbm_to_watts,
    generate_data_symbols,
    generate_received,
    noise_variance,
    preset,
    registry_entry,
    training_symbols,
)
from bccsim.detectors import Workspace
from bccsim.montecarlo import _run_block


NOISE_W = noise_variance(-174.0, 1e5)


class StubRng:
    """Deterministic rng stand-in: constant uniform and constant noise value."""

    def __init__(self, uniform=0.5, noise=0.0):
        self.uniform = uniform
        self.noise = noise

    def random(self, size=None):
        return self.uniform if size is None else np.full(size, self.uniform)

    def normal(self, loc, scale, size=None):
        return self.noise if size is None else np.full(size, self.noise)


class TestDbmToWatts:
    def test_definition_points(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-14)
        assert dbm_to_watts(30.0) == 1.0

    def test_noise_floor(self):
        # independent evaluation of 10^-20.4
        oracle = math.exp(-20.4 * math.log(10.0))
        assert dbm_to_watts(-174.0) == pytest.approx(oracle, rel=1e-12)
        assert dbm_to_watts(-174.0) == pytest.approx(3.981e-21, rel=1e-3)

    def test_zero_power_limit(self):
        assert dbm_to_watts(float("-inf")) == 0.0

    def test_rejects_nan_and_positive_inf(self):
        with pytest.raises(ParameterError):
            dbm_to_watts(float("nan"))
        with pytest.raises(ParameterError):
            dbm_to_watts(float("inf"))
        with pytest.raises(ParameterError):
            dbm_to_watts(4000.0)  # 10^397 W overflows a float


class TestNoiseVariance:
    def test_reference_value(self):
        oracle = math.exp(-20.4 * math.log(10.0)) * 1e5 / 2.0
        assert noise_variance(-174.0, 1e5) == pytest.approx(oracle, rel=1e-12)
        assert noise_variance(-174.0, 1e5) == pytest.approx(1.9905e-16, rel=1e-4)

    def test_zero_bandwidth(self):
        assert noise_variance(-174.0, 0.0) == 0.0

    def test_linear_in_bandwidth(self):
        assert noise_variance(-174.0, 2e5) == 2.0 * noise_variance(-174.0, 1e5)

    def test_negative_bandwidth(self):
        with pytest.raises(ParameterError):
            noise_variance(-174.0, -1.0)

    def test_non_finite_variance_rejected(self):
        for n0, bandwidth in ((300.0, 1e300), (-174.0, math.inf), (-math.inf, math.inf),
                              (math.nan, 1e5)):
            with pytest.raises(ParameterError):
                noise_variance(n0, bandwidth)


class TestTrainingSymbols:
    def test_examples(self):
        assert training_symbols(4).tolist() == [1, 1, 0, 0]
        assert training_symbols(2).tolist() == [1, 0]

    def test_nt_50(self):
        x = training_symbols(50)
        assert x[:25].tolist() == [1] * 25
        assert x[25:].tolist() == [0] * 25

    def test_rejects_odd_and_zero(self):
        for bad in (0, 3, 7, -2):
            with pytest.raises(ParameterError):
                training_symbols(bad)


class TestGenerateDataSymbols:
    def test_mapping_convention(self):
        assert generate_data_symbols(5, StubRng(uniform=0.3)).tolist() == [1] * 5
        assert generate_data_symbols(5, StubRng(uniform=0.7)).tolist() == [0] * 5

    def test_single_symbol(self):
        assert generate_data_symbols(1, np.random.default_rng(0))[0] in (0, 1)

    def test_equiprobable(self):
        x = generate_data_symbols(1_000_000, np.random.default_rng(5))
        assert abs(x.mean() - 0.5) < 0.002

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            generate_data_symbols(0, np.random.default_rng(0))


class TestGenerateReceived:
    def test_zero_symbol_zero_noise_gives_zero(self):
        frame = generate_received(np.zeros(64, dtype=int), (registry_entry("f9"),),
                                  dbm_to_watts(10.0), 0.0, np.random.default_rng(0))
        assert np.all(frame.y == 0.0)

    def test_signal_only_equals_scaled_channel(self):
        node = registry_entry("f5")
        frame = generate_received(np.ones(8, dtype=int), (node,), dbm_to_watts(20.0), 0.0,
                                  StubRng(uniform=0.5, noise=0.0))
        expected = math.sqrt(dbm_to_watts(20.0)) * 1.76e-6 * math.log(2.0) ** (1.0 / 3.88)
        assert frame.y == pytest.approx(np.full((1, 8), expected), rel=1e-12)

    def test_direct_substitution(self):
        # P = 1 W, h = 2, noise draw = 0.3 -> y = 2.3
        node = NodeProfile(1, Weibull(2.0, 1.7), "weak")
        u_at_scale = 1.0 - math.exp(-1.0)  # quantile there is the scale, h = 2
        frame = generate_received(np.ones(3, dtype=int), (node,), 1.0, NOISE_W,
                                  StubRng(uniform=u_at_scale, noise=0.3))
        assert frame.y == pytest.approx(np.full((1, 3), 2.3), rel=1e-12)

    def test_noise_only_variance(self):
        frame = generate_received(np.zeros(1_000_000, dtype=int), (registry_entry("f1"),),
                                  dbm_to_watts(10.0), NOISE_W, np.random.default_rng(8))
        measured = frame.y.var()
        assert measured == pytest.approx(NOISE_W, rel=0.01)

    def test_power_scaling(self):
        # scaling P by s^2 scales the signal part by s (noise disabled)
        node = registry_entry("f9")
        x = np.ones(1000, dtype=int)
        lo = generate_received(x, (node,), dbm_to_watts(10.0), 0.0, np.random.default_rng(21))
        hi = generate_received(x, (node,), dbm_to_watts(30.0), 0.0, np.random.default_rng(21))
        assert hi.y == pytest.approx(10.0 * lo.y, rel=1e-12)

    def test_reproducible_bit_exact(self):
        nodes = (registry_entry("f1"), registry_entry("f9"))
        x = training_symbols(50)
        a = generate_received(x, nodes, dbm_to_watts(10.0), NOISE_W, np.random.default_rng(99))
        b = generate_received(x, nodes, dbm_to_watts(10.0), NOISE_W, np.random.default_rng(99))
        assert np.array_equal(a.y, b.y) and np.array_equal(a.h, b.h)

    def test_frames_compare_as_objects(self):
        # array fields have no single truth value, so == is identity
        nodes = (registry_entry("f1"), registry_entry("f9"))
        a, b = (generate_received(training_symbols(4), nodes, dbm_to_watts(10.0), NOISE_W,
                                  np.random.default_rng(99)) for _ in range(2))
        assert a == a and a != b

    def test_shape_and_frame_fields(self):
        nodes = (registry_entry("f1"), registry_entry("f2"), registry_entry("f3"))
        frame = generate_received(training_symbols(10), nodes, dbm_to_watts(0.0), NOISE_W,
                                  np.random.default_rng(1))
        assert frame.y.shape == frame.h.shape == frame.noise.shape == (3, 10)
        assert frame.power_w == dbm_to_watts(0.0) and frame.x.tolist() == [1] * 5 + [0] * 5

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            generate_received(np.ones(4, dtype=int), (), 1.0, NOISE_W, rng)
        with pytest.raises(ParameterError):
            generate_received(np.array([]), (registry_entry("f1"),), 1.0, NOISE_W, rng)
        with pytest.raises(ParameterError):
            generate_received(np.array([0, 2, 1]), (registry_entry("f1"),), 1.0, NOISE_W, rng)

    @pytest.mark.parametrize("power_w, variance_w", [
        (math.nan, NOISE_W), (-1e-3, NOISE_W), (math.inf, NOISE_W),
        (1e-3, math.nan), (1e-3, -1e-16), (1e-3, math.inf)],
        ids=["nan-power", "negative-power", "inf-power",
             "nan-variance", "negative-variance", "inf-variance"])
    def test_rejects_bad_power_and_variance(self, power_w, variance_w):
        with pytest.raises(ParameterError, match="power and noise variance"):
            generate_received(np.ones(4, dtype=int), (registry_entry("f1"),), power_w,
                              variance_w, np.random.default_rng(0))


class TestAtPower:
    def test_matches_a_frame_drawn_at_that_power(self):
        # the draws do not depend on the power, so rescaling one frame gives
        # bit for bit the frame that the same stream draws at another power
        nodes = (registry_entry("f1"), registry_entry("f9"))
        x = generate_data_symbols(200, np.random.default_rng(3))
        low = generate_received(x, nodes, dbm_to_watts(-10.0), NOISE_W, np.random.default_rng(4))
        high = generate_received(x, nodes, dbm_to_watts(25.0), NOISE_W, np.random.default_rng(4))
        moved = low.at_power(dbm_to_watts(25.0))
        assert np.array_equal(moved.y, high.y)
        assert np.array_equal(moved.noise, low.noise) and moved.h is low.h
        assert moved.power_w == dbm_to_watts(25.0)
        assert low.at_power(dbm_to_watts(-10.0)) is low

    def test_array_of_powers_matches_stacked_float_draws(self):
        nodes = (registry_entry("f1"), registry_entry("f9"))
        x = generate_data_symbols(200, np.random.default_rng(3))
        powers = [dbm_to_watts(p) for p in (-10.0, 4.0, 25.0)]
        stacked = generate_received(x, nodes, np.array(powers), NOISE_W, np.random.default_rng(4))
        singles = [generate_received(x, nodes, p, NOISE_W, np.random.default_rng(4))
                   for p in powers]
        assert stacked.y.shape == (3, 2, 200) and stacked.h.shape == (2, 200)
        assert np.array_equal(stacked.y, np.stack([f.y for f in singles]))
        # a float and a one-power array give the same bits, (K, N) and (1, K, N)
        one = singles[0].at_power(np.array(powers[1:2]))
        assert np.array_equal(one.y, singles[1].y[None])
        assert np.array_equal(one.at_power(powers[2]).y, singles[2].y)
        # the held power returns the frame itself, matched by value and shape
        assert stacked.at_power(np.array(powers)) is stacked
        assert one.at_power(np.array(powers[1:2])) is one
        assert one.at_power(powers[1]) is not one and singles[1].at_power(powers[1]) is singles[1]

    def test_a_block_rescales_its_data_frame_once(self, monkeypatch):
        # fig7 has one power and seven training lengths: the data frame is
        # rescaled once per pass, not once per training length
        slots, sizes = 300, []
        at_power = ReceivedFrame.at_power

        def counted(frame, power_w):
            sizes.append(frame.x.size)
            return at_power(frame, power_w)

        monkeypatch.setattr(ReceivedFrame, "at_power", counted)
        scenario = preset("fig7")
        _run_block(scenario, 0, slots, Workspace())
        assert len(scenario.n_t) == 7 and slots not in scenario.n_t
        assert sizes.count(slots) == 1
        assert sorted(n for n in sizes if n != slots) == list(scenario.n_t)
