"""Physical-layer model: unit bridges, symbol frames, received signals."""

import math
from dataclasses import fields, replace

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
)
from bccsim import montecarlo
from bccsim.detectors import Workspace
from bccsim.montecarlo import _run_block


NOISE_W = noise_variance(-174.0, 1e5)


class StubRng:
    """Deterministic rng stand-in: constant uniform and constant standard normal value,
    in arrays of the ``size`` asked for, as a Generator's draws are."""

    def __init__(self, uniform=0.5, noise=0.0):
        self.uniform = uniform
        self.noise = noise

    def random(self, size=None):
        return self.uniform if size is None else np.full(size, self.uniform)

    def standard_normal(self, size=None):
        return self.noise if size is None else np.full(size, self.noise)


def one_generator(seed, slots, k=1):
    """The (slots, K) gain uniforms and then the noise normals that one generator seeded by
    ``seed`` draws, slot-major."""
    rng = np.random.default_rng(seed)
    return rng.random((slots, k)), rng.standard_normal((slots, k))


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
                                  dbm_to_watts(10.0), 0.0, *one_generator(0, 64))
        assert np.all(frame.y == 0.0)

    def test_signal_only_equals_scaled_channel(self):
        node = registry_entry("f5")
        rng = StubRng(uniform=0.5, noise=0.0)
        frame = generate_received(np.ones(8, dtype=int), (node,), dbm_to_watts(20.0), 0.0,
                                  rng.random((8, 1)), rng.standard_normal((8, 1)))
        expected = math.sqrt(dbm_to_watts(20.0)) * 1.76e-6 * math.log(2.0) ** (1.0 / 3.88)
        assert frame.y == pytest.approx(np.full((1, 8), expected), rel=1e-12)

    def test_direct_substitution(self):
        # P = 1 W, h = 2, noise draw = 0.3 at unit variance -> y = 2.3
        node = NodeProfile(1, Weibull(2.0, 1.7), "weak")
        u_at_scale = 1.0 - math.exp(-1.0)  # quantile there is the scale, h = 2
        rng = StubRng(uniform=u_at_scale, noise=0.3)
        frame = generate_received(np.ones(3, dtype=int), (node,), 1.0, 1.0, rng.random((3, 1)),
                                  rng.standard_normal((3, 1)))
        assert frame.y == pytest.approx(np.full((1, 3), 2.3), rel=1e-12)

    def test_noise_only_variance(self):
        frame = generate_received(np.zeros(1_000_000, dtype=int), (registry_entry("f1"),),
                                  dbm_to_watts(10.0), NOISE_W, *one_generator(8, 1_000_000))
        measured = frame.y.var()
        assert measured == pytest.approx(NOISE_W, rel=0.01)

    def test_power_scaling(self):
        # scaling P by s^2 scales the signal part by s (noise disabled)
        node = registry_entry("f9")
        x = np.ones(1000, dtype=int)
        lo = generate_received(x, (node,), dbm_to_watts(10.0), 0.0, *one_generator(21, 1000))
        hi = generate_received(x, (node,), dbm_to_watts(30.0), 0.0, *one_generator(21, 1000))
        assert hi.y == pytest.approx(10.0 * lo.y, rel=1e-12)

    def test_reproducible_bit_exact(self):
        nodes = (registry_entry("f1"), registry_entry("f9"))
        x = np.repeat([1, 0], 25)
        a = generate_received(x, nodes, dbm_to_watts(10.0), NOISE_W, *one_generator(99, 50, 2))
        b = generate_received(x, nodes, dbm_to_watts(10.0), NOISE_W, *one_generator(99, 50, 2))
        assert np.array_equal(a.y, b.y) and np.array_equal(a.h, b.h)

    def test_frames_compare_as_objects(self):
        # array fields have no single truth value, so == is identity
        nodes = (registry_entry("f1"), registry_entry("f9"))
        a, b = (generate_received(np.repeat([1, 0], 2), nodes, dbm_to_watts(10.0), NOISE_W,
                                  *one_generator(99, 4, 2)) for _ in range(2))
        assert a == a and a != b

    def test_shape_and_frame_fields(self):
        nodes = (registry_entry("f1"), registry_entry("f2"), registry_entry("f3"))
        frame = generate_received(np.repeat([1, 0], 5), nodes, dbm_to_watts(0.0), NOISE_W,
                                  *one_generator(1, 10, 3))
        assert frame.y.shape == frame.h.shape == frame.noise.shape == (3, 10)
        assert frame.x.tolist() == [1] * 5 + [0] * 5
        # the draw stores its h * x, which every rescale reads
        assert [f.name for f in fields(ReceivedFrame)] == ["y", "x", "h", "noise", "signal"]
        assert frame.signal.tobytes() == (frame.h * frame.x).tobytes()

    def test_rejects_bad_inputs(self):
        f1 = (registry_entry("f1"),)
        with pytest.raises(ParameterError):
            generate_received(np.ones(4, dtype=int), (), 1.0, NOISE_W, *one_generator(0, 4, 0))
        with pytest.raises(ParameterError):
            generate_received(np.array([]), f1, 1.0, NOISE_W, *one_generator(0, 0))
        with pytest.raises(ParameterError):
            generate_received(np.array([0, 2, 1]), f1, 1.0, NOISE_W, *one_generator(0, 3))
        # draws of another shape than (N, K), slot-major, behind the leading axes of x
        for draws in (one_generator(0, 4, 2), one_generator(0, 5), (np.zeros((1, 4)),) * 2):
            with pytest.raises(ParameterError, match="uniforms and normals"):
                generate_received(np.ones(4, dtype=int), f1, 1.0, NOISE_W, *draws)
        uniforms, normals = one_generator(0, 4)
        with pytest.raises(ParameterError, match="uniforms and normals"):
            generate_received(np.ones(4, dtype=int), f1, 1.0, NOISE_W, uniforms, normals[:3])

    @pytest.mark.parametrize("x", [[0, 2, 1], [0.5], [-1, 0], [1, 0, math.nan]],
                             ids=["two", "half", "minus-one", "nan"])
    def test_rejects_symbols_other_than_zero_and_one(self, x):
        with pytest.raises(ParameterError, match="symbols must be 0 or 1"):
            generate_received(np.array(x), (registry_entry("f1"),), 1.0, NOISE_W,
                              *one_generator(0, len(x)))

    @pytest.mark.parametrize("power_w", [
        np.array([1e-3, math.nan]), np.array([1e-3, math.inf]), np.array([[1e-3], [-1e-3]]),
        np.array([-math.inf]), np.array([-0.5, math.inf])],
        ids=["nan", "inf", "negative", "-inf", "negative-and-inf"])
    def test_rejects_bad_power_arrays(self, power_w):
        with pytest.raises(ParameterError, match="power and noise variance"):
            generate_received(np.ones(4, dtype=int), (registry_entry("f1"),), power_w,
                              NOISE_W, *one_generator(0, 4))

    def test_accepts_an_empty_power_array_and_zero_powers(self):
        nodes = (registry_entry("f1"), registry_entry("f9"))
        for power_w, shape in ((np.array([]), (0, 2, 4)), (np.array([0.0, -0.0]), (2, 2, 4)),
                               (0.0, (2, 4))):
            frame = generate_received(np.ones(4, dtype=int), nodes, power_w, NOISE_W,
                                      *one_generator(0, 4, 2))
            assert frame.y.shape == shape and frame.h.shape == (2, 4)

    @pytest.mark.parametrize("power_w, variance_w", [
        (math.nan, NOISE_W), (-1e-3, NOISE_W), (math.inf, NOISE_W),
        (1e-3, math.nan), (1e-3, -1e-16), (1e-3, math.inf)],
        ids=["nan-power", "negative-power", "inf-power",
             "nan-variance", "negative-variance", "inf-variance"])
    def test_rejects_bad_power_and_variance(self, power_w, variance_w):
        with pytest.raises(ParameterError, match="power and noise variance"):
            generate_received(np.ones(4, dtype=int), (registry_entry("f1"),), power_w,
                              variance_w, *one_generator(0, 4))


class TestPieces:
    """generate_received reads its draws slot-major, so frames drawn one after another from
    the same (gains, noise) generators are the pieces of the frame drawn whole, and a group
    of frames, each row drawn from its own generators, is those frames stacked."""

    NODES = (registry_entry("f1"), registry_entry("f5"), registry_entry("f9"))  # both laws
    LENGTHS = (10, 4, 50)

    def test_consecutive_frames_join_the_frame_drawn_whole(self):
        powers = np.array([dbm_to_watts(p) for p in (-10.0, 4.0, 25.0)])
        x = generate_data_symbols(sum(self.LENGTHS), np.random.default_rng(3))
        shape = (x.size, len(self.NODES))
        whole = generate_received(x, self.NODES, powers, NOISE_W,
                                  np.random.default_rng(21).random(shape),
                                  np.random.default_rng(22).standard_normal(shape))
        gains, noise = np.random.default_rng(21), np.random.default_rng(22)
        pieces = [generate_received(x[end - n:end], self.NODES, powers, NOISE_W,
                                    gains.random((n, 3)), noise.standard_normal((n, 3)))
                  for n, end in zip(self.LENGTHS, np.cumsum(self.LENGTHS))]
        for name in ("y", "h", "noise", "signal"):
            joined = np.concatenate([getattr(frame, name) for frame in pieces], axis=-1)
            assert joined.tobytes() == getattr(whole, name).tobytes(), name
            # C order, as the detectors' node sums add in memory order
            assert getattr(whole, name).flags.c_contiguous, name
        # one generator draws the gains and then the noise
        one = generate_received(x, self.NODES, powers, NOISE_W, *one_generator(21, *shape))
        assert one.h.tobytes() == whole.h.tobytes()
        assert one.noise.tobytes() != whole.noise.tobytes()

    @pytest.mark.parametrize("powers", [np.array([dbm_to_watts(p) for p in (-10.0, 25.0)]),
                                        dbm_to_watts(4.0)], ids=["array", "float"])
    def test_a_group_of_frames_is_its_frames_stacked(self, powers):
        # x of (blocks, N) symbols and (blocks, N, K) draws give (blocks, powers, K, N)
        # amplitudes and (blocks, K, N) gains, noise and signal, each row the bits of its
        # frame drawn alone
        rng = np.random.default_rng(5)
        x = generate_data_symbols(4 * 20, rng).reshape(4, 20)
        draws = [one_generator(seed, 20, 3) for seed in range(4)]
        group = generate_received(x, self.NODES, powers, NOISE_W,
                                  *(np.stack(d) for d in zip(*draws)))
        alone = [generate_received(row, self.NODES, powers, NOISE_W, *d)
                 for row, d in zip(x, draws)]
        assert group.y.shape == (4,) + np.shape(powers) + (3, 20)
        for name in ("y", "h", "noise", "signal"):
            stacked = np.stack([getattr(frame, name) for frame in alone])
            assert getattr(group, name).tobytes() == stacked.tobytes(), name
            assert getattr(group, name).flags.c_contiguous, name
        assert group.received(powers).tobytes() == group.y.tobytes()


class TestAtPower:
    """ReceivedFrame.received: a frame's amplitudes at other powers, from the same draws."""

    def test_matches_a_frame_drawn_at_that_power(self):
        # the draws do not depend on the power, so rescaling one frame gives
        # bit for bit the amplitudes that the same stream draws at another power
        nodes = (registry_entry("f1"), registry_entry("f9"))
        x = generate_data_symbols(200, np.random.default_rng(3))
        low = generate_received(x, nodes, dbm_to_watts(-10.0), NOISE_W, *one_generator(4, 200, 2))
        high = generate_received(x, nodes, dbm_to_watts(25.0), NOISE_W, *one_generator(4, 200, 2))
        noise, y = low.noise.copy(), low.y.copy()
        assert np.array_equal(low.received(dbm_to_watts(25.0)), high.y)
        assert np.array_equal(low.received(dbm_to_watts(-10.0)), low.y)
        assert np.array_equal(low.noise, noise) and np.array_equal(low.y, y)

    def test_array_of_powers_matches_stacked_float_draws(self):
        nodes = (registry_entry("f1"), registry_entry("f9"))
        x = generate_data_symbols(200, np.random.default_rng(3))
        powers = [dbm_to_watts(p) for p in (-10.0, 4.0, 25.0)]
        stacked = generate_received(x, nodes, np.array(powers), NOISE_W,
                                    *one_generator(4, 200, 2))
        singles = [generate_received(x, nodes, p, NOISE_W, *one_generator(4, 200, 2))
                   for p in powers]
        assert stacked.y.shape == (3, 2, 200) and stacked.h.shape == (2, 200)
        assert np.array_equal(stacked.y, np.stack([f.y for f in singles]))
        assert np.array_equal(singles[0].received(np.array(powers)), stacked.y)
        # a float and a one-power array give the same bits, (K, N) and (1, K, N)
        assert np.array_equal(singles[0].received(np.array(powers[1:2])), singles[1].y[None])
        assert np.array_equal(stacked.received(powers[2]), singles[2].y)

    def test_writes_into_out_and_returns_it(self):
        nodes = (registry_entry("f1"), registry_entry("f9"))
        x = generate_data_symbols(200, np.random.default_rng(3))
        frame = generate_received(x, nodes, dbm_to_watts(-10.0), NOISE_W,
                                  *one_generator(4, 200, 2))
        powers = np.array([dbm_to_watts(p) for p in (4.0, 25.0)])
        out = np.full((2, 2, 200), np.nan)
        assert frame.received(powers, out) is out
        assert np.array_equal(out, frame.received(powers))

    def test_a_block_rescales_its_data_frame_once(self, monkeypatch):
        # fig7 at eleven powers has seven training lengths and eleven one-power
        # data passes (one power of 6 x 4,000 slots fits 2^15 elements, two do
        # not): each frame is drawn once, and the data frame is rescaled once per
        # later pass, not once per training length; the seven lengths read one
        # 500-slot ones pool, which takes a pass of ten powers (sized by the
        # pool) and is rescaled for the eleventh; the draw's own received call
        # is not a rescale
        slots, drawn, rescaled, drawing = 4000, [], [], []
        received = ReceivedFrame.received

        def counted(x, *args, **kwargs):
            drawn.append(x.size)
            drawing.append(x.size)
            try:
                return generate_received(x, *args, **kwargs)
            finally:
                drawing.pop()

        def counted_rescale(frame, power_w, out=None):
            if not drawing:
                rescaled.append(frame.x.size)
            return received(frame, power_w, out)

        monkeypatch.setattr(montecarlo, "generate_received", counted)
        monkeypatch.setattr(ReceivedFrame, "received", counted_rescale)
        scenario = replace(preset("fig7"), power_sweep_dbm=tuple(range(-10, 11, 2)))
        _run_block(scenario, range(1), slots, Workspace())
        assert len(scenario.n_t) == 7 and max(scenario.n_t) // 2 == 500 != slots
        assert montecarlo._PASS_ELEMENTS // (6 * 500) == 10
        assert drawn == [500, slots]
        assert rescaled == [500] + [slots] * 10
