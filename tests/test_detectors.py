"""Detection layer: training statistics, the three margin rules, fusion, MRC."""

import ast
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bccsim import (
    DegenerateTrainingError,
    ParameterError,
    TrainingStats,
    compute_training_stats,
    dbm_to_watts,
    detect,
    fuse,
    generate_data_symbols,
    generate_received,
    margins,
    mrc_detect,
    registry_entry,
)
from bccsim import detectors
from bccsim.detectors import (COMBINATION, DEVIATION, NONCOHERENT, PROBABILITY, MarginTables,
                              Workspace, _pair, _select, margin_tables, mrc_tables)


def poison(workspace):
    """Fill every scratch array with 0xFF bytes (NaN, -1, True), so a stale read shows, and
    forget whose hard decision the mask held, which the fill has overwritten."""
    for array in workspace.values():
        array.view(np.uint8).fill(0xFF)
    workspace.mask_of = None
    return workspace


def halves(y):
    """The (ones, zeros) amplitude halves of a training frame's (..., K, n_t) ``y``."""
    amplitudes = np.abs(np.atleast_2d(np.asarray(y, dtype=float)))
    half = amplitudes.shape[-1] // 2
    return amplitudes[..., :half], amplitudes[..., half:]


def stats_single(a_one, a_zero, p11, p00):
    a_one = np.array([float(a_one)])
    a_zero = np.array([float(a_zero)])
    return TrainingStats(a_th=0.5 * (a_one + a_zero), a_one=a_one, a_zero=a_zero,
                         p11=np.array([float(p11)]), p00=np.array([float(p00)]))


def random_stats(rng, k, n_t=50):
    """Random statistics of ``k`` nodes; a tuple ``k`` gives (..., K) statistics."""
    a_one = rng.lognormal(mean=0.0, sigma=1.0, size=k)
    a_zero = a_one * rng.uniform(0.02, 0.98, size=k)
    lo, hi = 2.0 / n_t, 1.0 - 2.0 / n_t
    return TrainingStats(a_th=0.5 * (a_one + a_zero), a_one=a_one, a_zero=a_zero,
                         p11=rng.uniform(lo, hi, size=k), p00=rng.uniform(lo, hi, size=k))


def reference_weights(y, stats):
    """Each rule's (symbol-1, symbol-0) weights of (..., K, N) ``y``, written out with np.where."""
    a_one, a_zero, a_th, p11, p00 = (getattr(stats, field)[..., None]
                                     for field in ("a_one", "a_zero", "a_th", "p11", "p00"))
    detected = y >= a_th
    prob = (np.where(detected, np.log(p11), np.log1p(-p11)),
            np.where(detected, np.log1p(-p00), np.log(p00)))
    dev = (y - a_one, a_zero - y)
    comb = (-dev[0] ** 2 / a_one + dev[0] ** 2 / a_th * prob[0],
            -dev[1] ** 2 / a_zero + dev[1] ** 2 / a_th * prob[1])
    return dict(zip(NONCOHERENT, (prob, dev, comb)))


def coefficient_margins(y, stats):
    """Each rule's margin of (..., K, N) ``y`` in coefficient form, written out with np.where:
    the coefficients of a polynomial in |y| of the rule's own degree, picked by the hard
    decision, in the order of operations ``margins`` evaluates."""
    a_one, a_zero, a_th, p11, p00 = (getattr(stats, field)[..., None]
                                     for field in ("a_one", "a_zero", "a_th", "p11", "p00"))
    detected = y >= a_th
    alpha1 = np.where(detected, np.log(p11) / a_th - 1.0 / a_one,
                      np.log1p(-p11) / a_th - 1.0 / a_one)
    alpha0 = np.where(detected, np.log1p(-p00) / a_th - 1.0 / a_zero,
                      np.log(p00) / a_th - 1.0 / a_zero)
    return {PROBABILITY: np.where(detected, np.log(p11) - np.log1p(-p00),
                                  np.log1p(-p11) - np.log(p00)),
            DEVIATION: (y - a_th) * 2.0,
            COMBINATION: (y - a_one) ** 2 * alpha1 - (y - a_zero) ** 2 * alpha0}


def close_to_paper_form(m, w1, w0):
    """|m - (w1 - w0)| <= 1e-12 (|w1| + |w0|) everywhere."""
    return np.all(np.abs(m - (w1 - w0)) <= 1e-12 * (np.abs(w1) + np.abs(w0)))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestComputeTrainingStats:
    def test_worked_example_nt4(self):
        stats = compute_training_stats(*halves([[3.0, 1.0, 0.5, 0.5]]))
        assert stats.a_th[0] == 1.25
        assert stats.a_one[0] == 2.0
        assert stats.a_zero[0] == 0.5
        # raw counts: detected [1, 0, 0, 0]; cap and floor are both 1/2 at n_t = 4
        assert stats.p11[0] == 0.5
        assert stats.p00[0] == 0.5

    def test_all_equal_amplitudes_saturate(self):
        stats = compute_training_stats(*halves([[2.0] * 8]))
        # every slot detects 1 under the >= rule
        assert stats.p11[0] == 1.0 - 2.0 / 8
        assert stats.p00[0] == 2.0 / 8

    def test_perfect_separation_nt50_hits_cap(self):
        y = [[10.0] * 25 + [0.1] * 25]
        stats = compute_training_stats(*halves(y))
        assert stats.p11[0] == 0.96
        assert stats.p00[0] == 0.96

    def test_midpoint_identity_random_frames(self):
        rng = np.random.default_rng(17)
        for n_t in (4, 10, 50, 128):
            y = rng.lognormal(mean=0.0, sigma=2.0, size=(200, n_t))
            stats = compute_training_stats(*halves(y))
            assert np.array_equal(stats.a_th, 0.5 * (stats.a_one + stats.a_zero))
            # and the midpoint reproduces the full-frame mean amplitude
            assert np.allclose(stats.a_th, np.abs(y).mean(axis=1), rtol=1e-12)

    def test_probability_bounds(self):
        rng = np.random.default_rng(23)
        y = rng.lognormal(size=(500, 10))
        stats = compute_training_stats(*halves(y))
        assert np.all(stats.p11 >= 0.2) and np.all(stats.p11 <= 0.8)
        assert np.all(stats.p00 >= 0.2) and np.all(stats.p00 <= 0.8)

    def test_stats_compare_as_objects(self):
        # array fields have no single truth value, so == is identity
        rng = np.random.default_rng(5)
        a, b = random_stats(rng, 3), random_stats(rng, 3)
        assert a == a and a != b

    def test_rejects_small_or_non_training_frames(self):
        # the halves of one training frame: n_t/2 >= 2 slots each, as many in
        # both, and leading axes that broadcast
        for ones, zeros in [(np.ones((1, 1)), np.ones((1, 1))),  # n_t = 2
                            (np.ones((1, 2)), np.ones((1, 3))),
                            (np.ones((2, 3, 4)), np.ones((4, 4))),
                            (np.ones(()), np.ones(()))]:
            with pytest.raises(ParameterError, match="training halves"):
                compute_training_stats(ones, zeros)

    def test_detectors_import_nothing_from_link(self):
        # the statistics take amplitudes, not frames, so the frame type stays in link
        tree = ast.parse(Path(detectors.__file__).read_text())
        assert not [node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[-1] == "link"]

    def test_halves_broadcast_over_leading_axes(self):
        # a zeros half shared by every leading index gives each index's own
        # statistics, in the broadcast shape
        rng = np.random.default_rng(29)
        ones, zeros = rng.lognormal(size=(3, 4, 6)), rng.lognormal(size=(4, 6))
        stats = compute_training_stats(ones, zeros)
        for i in range(3):
            alone = compute_training_stats(ones[i], zeros)
            for field in ("a_th", "a_one", "a_zero", "p11", "p00"):
                assert getattr(stats, field).shape == (3, 4)
                assert np.array_equal(getattr(stats, field)[i], getattr(alone, field))


class TestProbWeights:
    def test_above_threshold(self):
        stats = stats_single(2.0, 0.5, p11=0.8, p00=0.7)
        m = margins("probability", np.array([[1.3]]), stats)  # 1.3 >= 1.25
        assert m[0, 0] == pytest.approx(math.log(0.8) - math.log(0.3), rel=1e-12)

    def test_below_threshold(self):
        stats = stats_single(2.0, 0.5, p11=0.8, p00=0.7)
        m = margins("probability", np.array([[1.2]]), stats)
        assert m[0, 0] == pytest.approx(math.log(0.2) - math.log(0.7), rel=1e-12)

    def test_uninformative_node(self):
        stats = stats_single(2.0, 0.5, p11=0.5, p00=0.5)
        m = margins("probability", np.array([[0.1, 1.25, 7.0]]), stats)
        assert m.tolist() == [[0.0, 0.0, 0.0]]


class TestDevWeights:
    def test_zero_points(self):
        # zero at the threshold, +-(A1 - A0) at the two reference amplitudes
        stats = stats_single(2.0, 0.5, 0.9, 0.9)
        m = margins("deviation", np.array([[2.0, 0.5, 1.25]]), stats)
        assert m.tolist() == [[1.5, -1.5, 0.0]]

    def test_direct_substitution(self):
        stats = stats_single(2.0, 0.5, 0.9, 0.9)
        # (1.5 - 2) - (0.5 - 1.5)
        assert margins("deviation", np.array([[1.5]]), stats)[0, 0] == 0.5


class TestCombWeights:
    def test_zero_at_reference_amplitudes(self):
        # at A1 the symbol-1 term vanishes and at A0 the symbol-0 term does,
        # so the margin is the other term alone
        stats = stats_single(2.0, 0.5, 0.8, 0.8)
        m = margins("combination", np.array([[2.0, 0.5]]), stats)
        assert m[0, 0] == pytest.approx(2.25 / 0.5 - 2.25 / 1.25 * math.log(0.2), rel=1e-12)
        assert m[0, 1] == pytest.approx(-2.25 / 2.0 + 2.25 / 1.25 * math.log(0.2), rel=1e-12)

    def test_direct_substitution(self):
        # deviations 1 and -2.5, A1 = 2, A0 = 0.5, Ath = 1.25, detected
        stats = stats_single(2.0, 0.5, p11=0.8, p00=0.8)
        m = margins("combination", np.array([[3.0]]), stats)
        w1 = -0.5 + 0.8 * math.log(0.8)
        w0 = -6.25 / 0.5 + 6.25 / 1.25 * math.log(0.2)
        assert m[0, 0] == pytest.approx(w1 - w0, rel=1e-12)

    def test_degenerate_training(self):
        stats = stats_single(2.0, 0.0, 0.8, 0.8)
        with pytest.raises(DegenerateTrainingError):
            margins("combination", np.array([[1.0]]), stats)
        with pytest.raises(DegenerateTrainingError):
            detect("combination", np.array([[1.0]]), stats)


class TestFuse:
    def test_sum_comparison(self):
        assert fuse(np.array([[0.5], [0.5]])).tolist() == [1]

    def test_tie_resolves_to_zero(self):
        assert fuse(np.array([[1.0], [-1.0]])).tolist() == [0]

    def test_single_node(self):
        assert fuse(np.array([[0.4]])).tolist() == [1]

    def test_vectorized_columns(self):
        assert fuse(np.array([[1.0, -1.0], [1.0, -1.0]])).tolist() == [1, 0]

    def test_rejects_empty(self):
        with pytest.raises(ParameterError, match=r"K >= 1"):
            fuse(np.empty((0, 3)))

    def test_rejects_non_2d_weights(self):
        # leading axes are allowed, but a margin array needs a node and a slot axis
        # and at least one node
        for shape in ((), (2,), (0, 3), (2, 0, 3)):
            with pytest.raises(ParameterError, match=r"\(K, N\)"):
                fuse(np.ones(shape))


class TestDetect:
    def test_single_node_deviation_is_strict_threshold(self):
        stats = stats_single(2.0, 0.5, 0.9, 0.9)  # a_th = 1.25 exactly
        for y, expected in ((0.0, 0), (1.2499, 0), (1.25, 0), (1.2501, 1), (5.0, 1)):
            assert detect("deviation", np.array([y])[:, None], stats)[0] == expected

    def test_single_node_probability_matches_threshold_rule(self):
        # informative stats: decision is exactly the >= threshold comparison
        stats = stats_single(2.0, 0.5, 0.9, 0.8)
        for y, expected in ((0.0, 0), (1.2499, 0), (1.25, 1), (1.2501, 1), (5.0, 1)):
            assert detect("probability", np.array([y])[:, None], stats)[0] == expected

    def test_remark1_equivalence_randomized(self):
        # single receive node: probability and deviation agree whenever the
        # training was informative (p11 + p00 > 1) and the input is not a tie
        rng = np.random.default_rng(11)
        n = 20_000
        stats = random_stats(rng, n)
        y = stats.a_th * rng.uniform(0.0, 2.5, size=n)
        margin_p = margins("probability", y[:, None], stats)[:, 0]
        margin_d = margins("deviation", y[:, None], stats)[:, 0]
        informative = stats.p11 + stats.p00 > 1.0
        non_tie = (margin_p != 0.0) & (margin_d != 0.0) & (y != stats.a_th)
        mask = informative & non_tie
        assert mask.sum() > 5000
        assert np.array_equal(margin_p[mask] > 0, margin_d[mask] > 0)

    def test_saturated_stats_majority_rule(self):
        n_t = 50
        cap = 1.0 - 2.0 / n_t
        for k in range(1, 6):
            ones = np.ones(k)
            stats = TrainingStats(a_th=ones, a_one=1.5 * ones, a_zero=0.5 * ones,
                                  p11=cap * ones, p00=cap * ones)
            for pattern in itertools.product((0, 1), repeat=k):
                y = np.where(np.array(pattern) == 1, 1.4, 0.2)
                expected = 1 if sum(pattern) > k - sum(pattern) else 0
                assert detect("probability", y.astype(float)[:, None], stats)[0] == expected

    def test_positive_scaling_covariance(self):
        rng = np.random.default_rng(29)
        stats = random_stats(rng, 6)
        y = stats.a_th[:, None] * rng.uniform(0.0, 2.5, size=(6, 40))
        base_prob = detect("probability", y, stats)
        base_dev = detect("deviation", y, stats)
        base_dev_margins = margins("deviation", y, stats)
        for s in (2.0 ** -10, 2.0, 2.0 ** 13):  # exact binary scalings
            scaled = TrainingStats(a_th=s * stats.a_th, a_one=s * stats.a_one,
                                   a_zero=s * stats.a_zero, p11=stats.p11,
                                   p00=stats.p00)
            assert np.array_equal(detect("probability", s * y, scaled), base_prob)
            assert np.array_equal(detect("deviation", s * y, scaled), base_dev)
            assert np.array_equal(margins("deviation", s * y, scaled), s * base_dev_margins)

    def test_all_weights_finite(self):
        rng = np.random.default_rng(31)
        stats = random_stats(rng, 5)
        y = np.array([0.0, 1e-12, 1.0, 1e6, 1e30])[None, :] * np.ones((5, 1))
        for technique in NONCOHERENT:
            assert np.all(np.isfinite(margins(technique, y, stats)))

    def test_margins_match_the_per_hypothesis_weights(self):
        # each rule's margin is bit for bit its coefficient form, and its symbol-1
        # minus its symbol-0 weight to rounding; the decisions are the paper form's
        rng = np.random.default_rng(37)
        stats = random_stats(rng, 6)
        y = stats.a_th[:, None] * rng.uniform(0.0, 2.5, size=(6, 400))
        coefficient = coefficient_margins(y, stats)
        for technique, (w1, w0) in reference_weights(y, stats).items():
            m = margins(technique, y, stats)
            assert same_bits(m, coefficient[technique])
            assert close_to_paper_form(m, w1, w0)
            assert np.array_equal(detect(technique, y, stats),
                                  ((w1 - w0).sum(axis=0) > 0.0).astype(np.int64))

    def test_one_workspace_through_every_technique_and_pass_shape(self):
        # the mask and scratch arrays are reused in place from technique to
        # technique and from pass to pass, as a worker's block loop reuses them
        rng = np.random.default_rng(47)
        workspace = Workspace()
        for shape in ((3, 6, 400), (2, 6, 250), (4, 6, 500)):
            stats = random_stats(rng, shape[:2])
            y = stats.a_th[..., None] * rng.uniform(0.0, 2.5, size=shape)
            weights, coefficient = reference_weights(y, stats), coefficient_margins(y, stats)
            for technique in (PROBABILITY, DEVIATION, COMBINATION, PROBABILITY):
                w1, w0 = weights[technique]
                m = margins(technique, y, stats, workspace)
                assert same_bits(m, coefficient[technique]) and close_to_paper_form(m, w1, w0)
                assert np.array_equal(detect(technique, y, stats, workspace),
                                      ((w1 - w0).sum(axis=-2) > 0.0).astype(np.int64))

    def test_calls_in_any_order_decide_as_a_fresh_workspace_does(self):
        # three training lengths' tables, alone and stacked on a leading axis, in an
        # order that puts deviation's one call on the stack between probability and the
        # combination that reuses its hard decision: the workspace keeps nothing from
        # call to call but that decision, so each call decides as a fresh workspace does
        rng = np.random.default_rng(73)
        tables = [margin_tables(random_stats(rng, (3, 6))) for _ in range(3)]
        stack = MarginTables._make(np.stack(fields) for fields in zip(*tables))
        y = tables[0].a_th * rng.uniform(0.0, 2.5, size=(3, 6, 400))
        workspace = Workspace()
        for technique, i in [(DEVIATION, 0), (PROBABILITY, 1), (DEVIATION, None),
                             (COMBINATION, 1), (DEVIATION, 2), (COMBINATION, 0),
                             (DEVIATION, None)]:
            expected = (np.stack([detect(technique, y, t) for t in tables]) if i is None
                        else detect(technique, y, tables[i]))
            got = detect(technique, y, stack if i is None else tables[i], workspace)
            assert np.array_equal(got, expected)
        assert set(vars(workspace)) == {"_views", "mask_of"}

    def test_workspace_holds_three_full_size_arrays(self):
        # mask, scratch and margin, plus the (P, N) node sum and decisions;
        # deviation alone needs only the last two
        rng = np.random.default_rng(53)
        stats = random_stats(rng, (3, 6))
        y = stats.a_th[..., None] * rng.uniform(0.0, 2.5, size=(3, 6, 400))
        workspace = Workspace()
        detect(DEVIATION, y, stats, workspace)
        assert sum(a.nbytes for a in workspace.values()) <= 2 * 3 * 400 * 8
        for technique in NONCOHERENT:
            detect(technique, y, stats, workspace)
        assert sum(a.nbytes for a in workspace.values()) <= 3 * y.nbytes + 2 * 3 * 400 * 8

    def test_unknown_technique(self):
        for fn in (margins, detect):
            with pytest.raises(ParameterError, match="'mrc'"):
                fn("mrc", np.array([[1.0]]), stats_single(2.0, 0.5, 0.8, 0.8))

    def test_rejects_non_2d_amplitudes(self):
        stats = stats_single(2.0, 0.5, 0.8, 0.8)
        for y in (np.float64(1.0), np.array([1.0]), np.ones((1, 2, 1)), np.ones((2, 3))):
            for technique, fn in itertools.product(NONCOHERENT, (margins, detect)):
                with pytest.raises(ParameterError, match=r"\(K, N\)"):
                    fn(technique, y, stats)
        no_nodes = TrainingStats(*(np.empty(0) for _ in range(5)))
        for technique in NONCOHERENT:  # deviation's node sum included
            with pytest.raises(ParameterError, match=r"K >= 1"):
                detect(technique, np.empty((0, 3)), no_nodes)


class TestCoefficientForm:
    """The coefficient form decides as the paper form; its tables never overflow."""

    def test_detect_decides_as_the_paper_form(self):
        # 10^6 decisions per technique over K = 1, 2, 6 and 9 nodes, four powers
        # each: one power with p11, p00 at the n_t = 50 clamp limits, one the other
        # way round, one at the n_t = 4 limit 1/2; a fifth of the amplitudes tie
        # exactly with a_th and a twentieth are 0.  Where every node of a slot
        # ties, deviation's sum_k |y_k| equals sum_k a_th,k and decides 0, while
        # the paper form's margin there is the rounding error of A1 + A0 in a_th,
        # of either sign; everywhere else all three techniques decide alike
        rng = np.random.default_rng(67)
        workspace, decisions = Workspace(), 0
        for k in (1, 2, 6, 9):
            stats = random_stats(rng, (4, k))
            stats.p11[1], stats.p00[1], stats.p11[2], stats.p00[2] = 0.04, 0.96, 0.96, 0.04
            stats.p11[3] = stats.p00[3] = 0.5
            y = stats.a_th[..., None] * rng.uniform(0.0, 2.5, size=(4, k, 62_500))
            threshold = np.broadcast_to(stats.a_th[..., None], y.shape)
            ties = rng.random(y.shape) < 0.2
            y[ties] = threshold[ties]
            y[rng.random(y.shape) < 0.05] = 0.0
            every_node_ties = (y == threshold).all(axis=-2)
            tables = margin_tables(stats)
            for technique, (w1, w0) in reference_weights(y, stats).items():
                paper = ((w1 - w0).sum(axis=-2) > 0.0).astype(np.int64)
                got = detect(technique, y, tables, workspace)
                if technique == DEVIATION:
                    assert not got[every_node_ties].any()
                    got[every_node_ties] = paper[every_node_ties]
                assert np.array_equal(got, paper)
            decisions += every_node_ties.size
        assert decisions >= 10 ** 6

    @pytest.mark.parametrize("k", [8, 9, 17])
    @pytest.mark.parametrize("slots", [1, 3])
    @pytest.mark.parametrize("y_layout, stats_order", [("C", "C"), ("F", "C"), ("nodes", "C"),
                                                       ("C", "F")])
    def test_deviation_ties_decide_0_in_any_layout(self, k, slots, y_layout, stats_order):
        # numpy adds the K node rows of a (..., K, N) |y| in an order the memory layout
        # sets, pairwise from K = 8 on when the nodes are adjacent, so a slot whose
        # every node sits exactly on a_th must be compared with a sum of a_th added the
        # same way; 1,200 single-slot ties at K = 9 once gave 188 ones
        rng = np.random.default_rng(k)
        workspace = Workspace()
        for _ in range(300):
            stats = random_stats(rng, (4, k))
            tables = margin_tables(TrainingStats(*(np.array(v, order=stats_order)
                                                   for v in vars(stats).values())))
            y = np.broadcast_to(tables.a_th, (4, k, slots))
            y = (np.array(y, order=y_layout) if y_layout != "nodes"  # nodes adjacent in memory
                 else np.ascontiguousarray(y.transpose(0, 2, 1)).transpose(0, 2, 1))
            assert not detect(DEVIATION, y, tables, workspace).any()

    @pytest.mark.parametrize("reference", [0.0, -0.0, 5e-324, 1e-310, 2.0 ** -1000])
    def test_tables_of_tiny_references_raise_no_floating_point_error(self, reference):
        # a zero, signed-zero or subnormal reference at each of A1, A0 and a_th in
        # turn; the alphas stay finite, and combination rejects zero references
        rng = np.random.default_rng(71)
        for field in ("a_one", "a_zero", "a_th"):
            stats = random_stats(rng, (2, 3))
            getattr(stats, field)[1, 1] = reference
            with np.errstate(all="raise"):
                tables = margin_tables(stats)
            for flip, zero in ((tables.one_flip, tables.one_zero),
                               (tables.zero_flip, tables.zero_zero)):
                for alpha in (flip ^ zero, zero):  # its value if detected, and if not
                    assert np.isfinite(alpha.view(float)).all()
            y = np.ones((2, 3, 5))
            if reference == 0.0:
                for s in (stats, tables):
                    with pytest.raises(DegenerateTrainingError):
                        margins(COMBINATION, y, s)
                    with pytest.raises(DegenerateTrainingError):
                        detect(COMBINATION, y, s)
                assert margins(COMBINATION, y[:1], tables.rows(slice(0, 1))).shape == (1, 3, 5)


class TestMrcDetect:
    def test_single_node_midpoint(self):
        assert mrc_detect(np.array([[0.6]]), np.array([[1.0]]), 1.0).tolist() == [1]
        assert mrc_detect(np.array([[0.4]]), np.array([[1.0]]), 1.0).tolist() == [0]

    def test_two_nodes_direct_substitution(self):
        # z = 2.7 against threshold (sqrt(4)/2) * 2 = 2
        y = np.array([1.5, 1.2])[:, None]
        h = np.array([1.0, 1.0])[:, None]
        assert mrc_detect(y, h, 4.0)[0] == 1

    def test_zero_signal_gives_zero(self):
        assert mrc_detect(np.zeros((3, 1)), np.ones((3, 1)), 1.0)[0] == 0

    def test_vectorized(self):
        y = np.array([[1.5, 0.1], [1.2, 0.0]])
        h = np.ones((2, 2))
        assert mrc_detect(y, h, 4.0).tolist() == [1, 0]

    def test_rejects_mismatched(self):
        with pytest.raises(ParameterError):
            mrc_detect(np.ones((2, 1)), np.ones((3, 1)), 1.0)

    def test_rejects_non_2d_input(self):
        for shape in ((), (3,)):
            with pytest.raises(ParameterError, match=r"\(K, N\)"):
                mrc_detect(np.ones(shape), np.ones(shape), 1.0)
        with pytest.raises(ParameterError, match=r"\(K, N\)"):
            mrc_detect(np.ones((3, 0, 1)), np.ones((3, 0, 1)), 1.0)

    def test_gains_with_leading_axes_broadcast_against_the_powers(self):
        # (blocks, 1, K, N) gains against (powers,) give (blocks, powers) leading
        # axes, each the bits of its block detected alone at its power
        rng = np.random.default_rng(19)
        h = rng.lognormal(size=(4, 1, 9, 7))
        powers = np.array([1e-3, 0.5, 2.0])
        y = np.sqrt(powers)[:, None, None] * h * (rng.random((4, 1, 1, 7)) < 0.5)
        y = y + rng.normal(size=y.shape)
        group = mrc_detect(y, h, powers)
        assert group.shape == (4, 3, 7)
        for b, p in itertools.product(range(4), range(3)):
            assert np.array_equal(group[b, p], mrc_detect(y[b, p], h[b, 0], powers[p]))
        tables = mrc_tables(h, powers)
        assert tables.energy.shape == (4, 1, 7)
        assert np.array_equal(mrc_detect(y[:, 1:], tables.rows(slice(1, 3))), group[:, 1:])
        with pytest.raises(ParameterError, match=r"\(K, N\)"):
            mrc_detect(y[:2], h, powers)

    @pytest.mark.parametrize("p_watts", [np.inf, np.array([1.0, np.inf])], ids=["scalar", "array"])
    def test_rejects_an_infinite_power(self, p_watts):
        # as generate_received does: an infinite threshold would decide 0 in every slot
        y = np.ones(np.shape(p_watts) + (2, 3))
        with pytest.raises(ParameterError, match="finite and >= 0"):
            mrc_detect(y, np.ones((2, 3)), p_watts)


class TestWorkspace:
    def test_take_reuses_one_view_per_shape_until_the_array_grows(self):
        workspace = Workspace()
        small = workspace.take("margin", (2, 3))
        flags = workspace.take("margin", (2, 3), bool)
        assert workspace.take("margin", (2, 3)) is small
        flat = workspace.take("margin", (6,))
        assert flat is not small and np.shares_memory(flat, small)
        assert not np.shares_memory(flags, small)
        workspace.take("margin", (4, 5))  # the float array grows
        grown = workspace["margin", float]
        for shape, stale in (((2, 3), small), ((6,), flat)):
            view = workspace.take("margin", shape)
            assert view.shape == shape and np.shares_memory(view, grown)
            assert not np.shares_memory(view, stale)
        assert workspace.take("margin", (2, 3), bool) is flags  # another dtype keeps its views
        assert list(workspace) == [("margin", float), ("margin", bool)]


class TestSelect:
    # signed zeros, infinities, quiet and signalling NaNs with payloads, subnormals
    ENTRIES = np.array([0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
                        0xFFF0000000000000, 0x7FF8000000000000, 0xFFF800000000BEEF,
                        0x7FF0000000000ABC, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
                        0x3FF8000000000000], dtype=np.uint64).view(float)

    def test_matches_np_where_bit_for_bit(self):
        rng = np.random.default_rng(43)
        if_one = self.ENTRIES.reshape(2, 5, 1)
        if_zero = np.roll(self.ENTRIES, 1).reshape(2, 5, 1)  # pairs -0.0 with 0.0
        detected = rng.random((2, 5, 300)) < 0.5
        expected = np.where(detected, if_one, if_zero)
        mask = -detected.astype(np.int64)
        out = np.empty(detected.shape)
        assert same_bits(_select(mask, *_pair(if_one, if_zero), out), expected)
        assert same_bits(_select(mask, *_pair(if_zero, if_one), out),
                         np.where(detected, if_zero, if_one))
        in_place = _select(mask, *_pair(if_one, if_zero), mask)
        assert np.shares_memory(in_place, mask) and same_bits(in_place, expected)


class TestLeadingAxes:
    """(P, K, N) input is P independent (K, N) problems, computed bit for bit alike."""

    POWERS = [dbm_to_watts(p) for p in (-14.0, -2.0, 10.0)]

    @staticmethod
    def frames():
        nodes = tuple(registry_entry(name) for name in ("f1", "f5", "f9"))
        rng = np.random.default_rng(41)
        x = generate_data_symbols(300, rng)
        data = generate_received(x, nodes, 1e-3, 1e-12, rng.random((300, 3)),
                                 rng.standard_normal((300, 3)))
        training = generate_received(np.repeat([1, 0], 10), nodes, 1e-3, 1e-12,
                                     rng.random((20, 3)), rng.standard_normal((20, 3)))
        return data, training

    def test_stacked_calls_match_bit_for_bit(self):
        data, training = self.frames()
        powers = np.array(self.POWERS)
        single = [compute_training_stats(*halves(training.received(p))) for p in self.POWERS]
        stacked = compute_training_stats(*halves(training.received(powers)))
        # the zeros half is the noise at every power, so one (K, n_t/2) zeros
        # half broadcast over the powers gives the same bits, as a block reads it
        ones, _ = halves(training.received(powers))
        shared = compute_training_stats(ones, np.abs(training.noise[:, 10:]))
        for field in ("a_th", "a_one", "a_zero", "p11", "p00"):
            assert getattr(stacked, field).shape == (3, 3)
            assert np.array_equal(getattr(stacked, field),
                                  np.stack([getattr(s, field) for s in single]))
            assert getattr(shared, field).tobytes() == getattr(stacked, field).tobytes()
        ys = [data.received(p) for p in self.POWERS]
        y = data.received(powers)
        assert np.array_equal(y, np.stack(ys))
        # one workspace reused by every call, poisoned before each; the last
        # two powers stand for a shorter last pass, computed in views of it
        workspace = Workspace()
        for technique in NONCOHERENT:
            detect(technique, np.abs(y), stacked, workspace)
        arrays = {key: id(array) for key, array in workspace.items()}
        last = TrainingStats(*(v[1:] for v in vars(stacked).values()))
        for technique in NONCOHERENT:
            m = margins(technique, np.abs(y), stacked)
            expected = [margins(technique, np.abs(f), s) for f, s in zip(ys, single)]
            assert np.array_equal(m, np.stack(expected))
            assert np.array_equal(fuse(m), np.stack([fuse(e) for e in expected]))
            assert np.array_equal(margins(technique, np.abs(y), stacked, poison(workspace)), m)
            assert np.array_equal(fuse(m, poison(workspace)), fuse(m))
            assert np.array_equal(detect(technique, np.abs(y), stacked, poison(workspace)),
                                  fuse(m))
            assert np.array_equal(detect(technique, np.abs(y[1:]), last, poison(workspace)),
                                  fuse(m[1:]))
        assert {key: id(array) for key, array in workspace.items()} == arrays
        assert np.array_equal(mrc_detect(y, data.h, powers),
                              np.stack([mrc_detect(f, data.h, p)
                                        for f, p in zip(ys, self.POWERS)]))

    def test_a_float_power_is_a_one_power_array(self):
        data, _ = self.frames()
        for p in self.POWERS:
            y, one = data.received(p), data.received(np.array([p]))
            assert y.shape == data.h.shape and one.shape == (1,) + data.h.shape
            assert np.array_equal(y, one[0])
            assert np.array_equal(mrc_detect(y, data.h, p),
                                  mrc_detect(one, data.h, np.array([p]))[0])

    def test_leading_axes_must_match(self):
        data, training = self.frames()
        stats = compute_training_stats(*halves(training.received(np.array(self.POWERS))))
        y = data.received(np.array(self.POWERS[:2]))
        with pytest.raises(ParameterError, match=r"\(K, N\)"):
            margins("deviation", np.abs(y), stats)
        with pytest.raises(ParameterError, match=r"\(K, N\)"):
            mrc_detect(y, data.h, np.array(self.POWERS))
        with pytest.raises(ParameterError, match="p_watts"):
            mrc_detect(y, data.h, np.array([1.0, -1.0]))

    def test_degenerate_power_fails_the_whole_call(self):
        # two powers' statistics, the first with a zero reference amplitude:
        # combination rejects the call for every power, deviation has no A0 term
        x = np.array([1, 0, 1, 1, 0])
        a_one = np.array([[1.0, 2.0], [1.0, 2.0]])
        a_zero = np.array([[0.0, 0.5], [0.5, 0.5]])
        ones = np.ones((2, 2))
        stats = TrainingStats(a_th=0.5 * (a_one + a_zero), a_one=a_one, a_zero=a_zero,
                              p11=0.9 * ones, p00=0.8 * ones)
        y = np.stack([np.outer([1.0, 2.0], x) + 0.4] * 2)
        last = TrainingStats(*(v[1:] for v in vars(stats).values()))
        assert detect("combination", y[1:], last).shape == (1, 5)
        assert detect("deviation", y, stats).shape == (2, 5)
        for fn in (margins, detect):
            with pytest.raises(DegenerateTrainingError):
                fn("combination", y, stats)


class TestOneShapeRule:
    """margins and detect broadcast the leading axes of the statistics or tables against the
    amplitudes', as compute_training_stats and mrc_detect do; K must match."""

    @pytest.mark.parametrize("k, slots", [(6, 40), (9, 1), (6, 1)])
    def test_a_stack_of_lengths_decides_as_each_length_alone(self, k, slots):
        # four lengths' (blocks, powers, K) statistics against one (blocks, powers, K, N)
        # block, as a pass reads every training length: bit for bit the stacked calls of
        # each length.  Every third slot ties length 0's a_th on every node, so deviation
        # there decides 0, and at N = 1 and K = 9 only if the stack's node sums of a_th
        # add pairwise, as numpy adds the amplitudes'
        rng = np.random.default_rng(100 * k + slots)
        stats = random_stats(rng, (4, 2, 3, k))
        y = stats.a_th[0][..., None] * rng.uniform(0.0, 2.5, size=(2, 3, k, slots))
        y[..., ::3] = stats.a_th[0][..., None]
        alone = [TrainingStats(*(v[i] for v in vars(stats).values())) for i in range(4)]
        workspace = Workspace()
        for technique in NONCOHERENT:
            expected = np.stack([margins(technique, y, s) for s in alone])
            decided = np.stack([detect(technique, y, s) for s in alone])
            assert expected.shape == (4, 2, 3, k, slots) and decided.shape == (4, 2, 3, slots)
            for given in (stats, margin_tables(stats)):
                assert same_bits(margins(technique, y, given, poison(workspace)), expected)
                assert np.array_equal(detect(technique, y, given, poison(workspace)), decided)
        assert not np.stack([detect(DEVIATION, y, s) for s in alone])[0][..., ::3].any()

    def test_only_leading_axes_that_broadcast_are_accepted(self):
        # (4, 3, 6) statistics broadcast against amplitudes of 3 powers, of 1, of none
        # and with an axis of their own in front; 2 powers, 5 lengths or another K,
        # 1 included where numpy alone would broadcast it, raise naming both shapes
        rng = np.random.default_rng(79)
        stats = random_stats(rng, (4, 3, 6))
        for shape, result in [((3, 6, 10), (4, 3)), ((1, 6, 10), (4, 3)), ((6, 10), (4, 3)),
                              ((2, 1, 3, 6, 10), (2, 4, 3))]:
            y = rng.uniform(size=shape)
            for technique in NONCOHERENT:
                assert margins(technique, y, stats).shape == result + (6, 10)
                assert detect(technique, y, stats).shape == result + (10,)
        for given, shape in [(stats, (2, 6, 10)), (stats, (5, 3, 6, 10)), (stats, (3, 5, 10)),
                             (stats, (3, 1, 10)), (stats, (10,)),
                             (random_stats(rng, (3, 1)), (3, 6, 10))]:
            named = f"{re.escape(str(given.a_th.shape))}.*{re.escape(str(shape))}"
            for technique, fn in itertools.product(NONCOHERENT, (margins, detect)):
                with pytest.raises(ParameterError, match=named):
                    fn(technique, rng.uniform(size=shape), given)


class TestSlicedTables:
    """A block derives its tables once and each pass slices them: no second kernel."""

    PASSES = (slice(0, 2), slice(2, 4), slice(4, 5))

    def test_each_pass_reads_what_its_own_statistics_give(self):
        # (5, K) statistics cut into passes of 2, 2 and 1 powers, with a signed
        # zero reference at power 1 (combination fails that pass on both paths),
        # subnormal references and amplitudes, and p11, p00 at the clamp limits
        # of n_t = 50 and n_t = 4; amplitudes include exact ties with a_th.
        # Probability leaves its mask for combination, which consumes it, so the
        # probability after it must build its own
        rng = np.random.default_rng(59)
        stats = random_stats(rng, (5, 4))
        stats.a_one[1, 0], stats.a_zero[1, 2], stats.a_th[1, 3] = 0.0, -0.0, 0.0
        stats.a_zero[3, 1], stats.a_th[3, 2], stats.a_one[4, 0] = 5e-324, 2e-310, 1e-320
        stats.p11[2], stats.p00[2], stats.p11[3], stats.p00[3] = 0.04, 0.96, 0.96, 0.04
        stats.p11[4] = stats.p00[4] = 0.5
        y = stats.a_th[..., None] * rng.uniform(0.0, 2.5, size=(5, 4, 300))
        y[..., :7] = stats.a_th[..., None]
        y[..., 7:10] = (0.0, 5e-324, 1e-310)
        tables, workspace = margin_tables(stats), Workspace()
        with np.errstate(all="ignore"):  # subnormal references overflow combination
            for at in self.PASSES:
                amplitudes, rows = np.ascontiguousarray(y[at]), tables.rows(at)
                sliced = TrainingStats(*(v[at] for v in vars(stats).values()))
                for technique in (PROBABILITY, DEVIATION, COMBINATION, PROBABILITY):
                    if technique == COMBINATION and at.start == 0:
                        for s in (rows, sliced):
                            with pytest.raises(DegenerateTrainingError):
                                margins(technique, amplitudes, s, workspace)
                        continue
                    fresh = margins(technique, y[at], sliced)
                    assert same_bits(margins(technique, amplitudes, rows, workspace), fresh)
                    if technique == PROBABILITY:  # combination reuses this pass's mask
                        assert workspace.mask_of[0] is amplitudes
                        assert workspace.mask_of[1] is rows

    def test_mrc_reads_what_its_own_powers_give(self):
        rng = np.random.default_rng(61)
        h = rng.lognormal(size=(4, 300))
        powers = np.array([0.0, 5e-324, 1e-3, 2.0, 1e300])
        y = np.sqrt(powers)[:, None, None] * h * (rng.random(300) < 0.5) + rng.normal(size=300)
        tables, workspace = mrc_tables(h, powers), Workspace()
        for at in self.PASSES:
            assert np.array_equal(mrc_detect(y[at], tables.rows(at), None, workspace),
                                  mrc_detect(y[at], h, powers[at]))
