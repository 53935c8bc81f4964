"""Distribution layer: closed-form quantiles, sampling, and the registry."""

import math

import numpy as np
import pytest

from bccsim import (
    STRONG_NODES,
    WEAK_NODES,
    BurrXII,
    NodeProfile,
    ParameterError,
    Weibull,
    registry_entry,
    table1_registry,
)
from bccsim.channels import _check_uniform

F1 = BurrXII(4.71e-7, 2.43, 5.61)
F5 = Weibull(1.76e-6, 3.88)


def bisect_quantile(cdf, u, hi):
    """Independent quantile oracle: bracketing bisection on the CDF."""
    lo = 0.0
    while cdf(hi) < u:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBurrInverseCdf:
    def test_lower_endpoint(self):
        assert F1.inverse_cdf(0.0) == 0.0

    def test_quantile_at_scale(self):
        # F(alpha) = 1 - 2^-k, so the quantile there is the scale itself
        for spec in (F1, BurrXII(9.32e-7, 38.8, 0.552), BurrXII(7.76e-6, 9.71, 7.87)):
            u = 1.0 - 2.0 ** (-spec.k)
            assert spec.inverse_cdf(u) == pytest.approx(spec.alpha, rel=1e-12)

    def test_median_f1_against_bisection_oracle(self):
        expected = bisect_quantile(F1.cdf, 0.5, hi=1e-5)
        x = F1.inverse_cdf(0.5)
        assert x == pytest.approx(expected, rel=1e-10)
        assert F1.cdf(x) == pytest.approx(0.5, abs=1e-12)
        assert x == pytest.approx(2.044e-7, rel=1e-3)

    def test_domain_errors(self):
        for bad in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(ParameterError, match=r"u must lie in \[0, 1\)"):
                F1.inverse_cdf(bad)
        with pytest.raises(ParameterError, match=r"u must lie in \[0, 1\)"):
            F1.inverse_cdf(np.array([0.2, 1.0]))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            BurrXII(0.0, 2.43, 5.61)
        with pytest.raises(ParameterError):
            BurrXII(1e-7, -2.43, 5.61)
        with pytest.raises(ParameterError):
            BurrXII(1e-7, 2.43, float("inf"))


class TestUniformCheck:
    """_check_uniform, which every inverse_cdf call runs: u in [0, 1), NaN rejected."""

    @pytest.mark.parametrize("u", [[math.nan], [1.0], [-1e-300], [-math.inf], [math.inf],
                                   [0.2, math.nan, 0.3], [[0.5, 0.1], [0.2, 1.0]]],
                             ids=["nan", "one", "negative", "-inf", "inf", "nan-inside", "2-d"])
    def test_rejects_what_lies_outside(self, u):
        with pytest.raises(ParameterError, match=r"u must lie in \[0, 1\)"):
            _check_uniform(np.array(u))

    @pytest.mark.parametrize("u", [[], [0.0], [-0.0], [np.nextafter(1.0, 0.0)],
                                   [[0.0, 0.5], [0.25, 0.999]]],
                             ids=["empty", "zero", "negative-zero", "below-one", "2-d"])
    def test_accepts_its_range_and_empty_input(self, u):
        checked = _check_uniform(u)
        assert checked.dtype == float and np.array_equal(checked, np.asarray(u, dtype=float))
        assert F1.inverse_cdf(u).shape == F5.inverse_cdf(u).shape == checked.shape


class TestWeibullInverseCdf:
    def test_lower_endpoint(self):
        assert F5.inverse_cdf(0.0) == 0.0

    def test_quantile_at_scale(self):
        # F(a) = 1 - e^-1
        u = 1.0 - math.exp(-1.0)
        assert F5.inverse_cdf(u) == pytest.approx(F5.a, rel=1e-12)

    def test_median_f5(self):
        expected = F5.a * math.log(2.0) ** (1.0 / F5.b)
        x = F5.inverse_cdf(0.5)
        assert x == pytest.approx(expected, rel=1e-12)
        assert F5.cdf(x) == pytest.approx(0.5, abs=1e-12)
        assert x == pytest.approx(1.601e-6, rel=1e-3)

    def test_errors(self):
        with pytest.raises(ParameterError, match=r"u must lie in \[0, 1\)"):
            F5.inverse_cdf(1.0)
        with pytest.raises(ParameterError):
            Weibull(1.76e-6, 0.0)


@pytest.mark.parametrize("profile", table1_registry(), ids=[f"f{i}" for i in range(1, 10)])
class TestRegistryLaws:
    def test_round_trip(self, profile):
        u = np.arange(1000) / 1000.0
        x = profile.dist.inverse_cdf(u)
        assert np.max(np.abs(profile.dist.cdf(x) - u)) < 1e-12

    def test_monotone(self, profile):
        u = np.sort(np.random.default_rng(7).random(4000))
        x = profile.dist.inverse_cdf(u)
        assert np.all(np.diff(x) >= 0.0)

    def test_in_place_steps_give_the_bits_of_the_closed_form(self, profile):
        # the quantile runs every step in place in its checked copy of u, folding the
        # negation of -log1p(-u) / k into the divide; each value keeps the bits of the
        # closed-form expression, at the ends of [0, 1) and on a grid, and u is not written
        u = np.concatenate([[0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53],
                            np.random.default_rng(profile.node_id).random(10_000)])
        before, law = u.copy(), profile.dist
        if isinstance(law, BurrXII):
            closed = law.alpha * np.expm1(-np.log1p(-u) / law.k) ** (1.0 / law.c)
        else:
            closed = law.a * (-np.log1p(-u)) ** (1.0 / law.b)
        assert law.inverse_cdf(u).tobytes() == closed.tobytes()
        assert u.tobytes() == before.tobytes()
        for value, expected in zip(u[:4], closed[:4]):
            assert law.inverse_cdf(float(value)).tobytes() == expected.tobytes()

    def test_scalar_in_float_out(self, profile):
        assert type(profile.dist.inverse_cdf(0.5)) is np.float64
        assert type(profile.dist.cdf(1e-6)) is np.float64

    def test_samples_positive_and_ks_close(self, profile):
        n = 100_000
        rng = np.random.default_rng(2000 + profile.node_id)
        samples = np.sort(profile.dist.inverse_cdf(rng.random(n)))
        assert np.all(samples > 0.0)
        grid = profile.dist.cdf(samples)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - grid), np.max(grid - (i - 1) / n))
        # 1% significance: sqrt(-ln(0.005)/2) / sqrt(n)
        assert ks < math.sqrt(-math.log(0.005) / 2.0) / math.sqrt(n)


class TestRegistry:
    def test_nine_unique_entries(self):
        entries = table1_registry()
        assert [p.node_id for p in entries] == list(range(1, 10))

    def test_reference_rows(self):
        f1 = registry_entry("f1")
        assert isinstance(f1.dist, BurrXII)
        assert (f1.dist.alpha, f1.dist.c, f1.dist.k) == (4.71e-7, 2.43, 5.61)
        assert f1.condition == "weak"
        f5 = registry_entry("f5")
        assert isinstance(f5.dist, Weibull)
        assert (f5.dist.a, f5.dist.b) == (1.76e-6, 3.88)
        assert f5.condition == "weak"
        f9 = registry_entry("f9")
        assert (f9.dist.alpha, f9.dist.c, f9.dist.k) == (7.76e-6, 9.71, 7.87)
        assert f9.condition == "strong"

    def test_strong_weak_partition(self):
        strong = {f"f{p.node_id}" for p in table1_registry() if p.condition == "strong"}
        weak = {f"f{p.node_id}" for p in table1_registry() if p.condition == "weak"}
        assert strong == set(STRONG_NODES) == {"f2", "f4", "f9"}
        assert weak == set(WEAK_NODES) == {"f1", "f3", "f5", "f6", "f7", "f8"}

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            registry_entry("f10")

    def test_node_profile_validation(self):
        with pytest.raises(ParameterError):
            NodeProfile(0, F1, "weak")
        with pytest.raises(ParameterError):
            NodeProfile(1, F1, "medium")
