"""Training statistics, per-node detection margins, fusion, and MRC baseline.

All operations are pure and vectorized: per-node inputs are (..., K, N)
arrays with the node axis second to last, so a block of data slots is
detected in one call, at every index of any leading axes (one per transmit
power, say) with matching (..., K) statistics.  A single slot is (K, 1).

Three noncoherent techniques share the same training phase and the same
fusion rule.  Each turns a node's amplitude |y| into a margin, its evidence
for symbol 1 minus its evidence for symbol 0, a polynomial in |y| whose
coefficients the hard decision |y| >= a_th picks from the training statistics:

* probability  -- degree 0: the log-probability scores of the hard decision.
* deviation    -- degree 1: the signed distances to the two half-frame mean
  amplitudes, so the fused test is sum_k |y_k| > sum_k a_th,k.
* combination  -- degree 2: squared deviations weighted by the reference
  amplitudes and the log-probability scores.

The fusion center sums the node margins.  The coherent baseline is
matched-filter combining with perfect per-slot channel knowledge.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrainingError, ParameterError

__all__ = [
    "PROBABILITY",
    "DEVIATION",
    "COMBINATION",
    "MRC",
    "TECHNIQUES",
    "NONCOHERENT",
    "TrainingStats",
    "MarginTables",
    "MrcTables",
    "Workspace",
    "compute_training_stats",
    "margin_tables",
    "margins",
    "fuse",
    "detect",
    "mrc_tables",
    "mrc_detect",
]

PROBABILITY = "probability"
DEVIATION = "deviation"
COMBINATION = "combination"
MRC = "mrc"
TECHNIQUES = (PROBABILITY, DEVIATION, COMBINATION, MRC)
NONCOHERENT = (PROBABILITY, DEVIATION, COMBINATION)


@dataclass(frozen=True, eq=False)
class TrainingStats:
    """Per-node reference values extracted from one training frame.

    ``a_th`` is the mean received amplitude over the whole frame, ``a_one``
    and ``a_zero`` the half-frame means over the ones/zeros halves, ``p11``
    and ``p00`` the clamped empirical correct-detection probabilities.
    All arrays have shape (..., K), the leading axes of the frame's halves.
    """

    a_th: np.ndarray
    a_one: np.ndarray
    a_zero: np.ndarray
    p11: np.ndarray
    p00: np.ndarray


class MarginTables(namedtuple("MarginTables", "a_one a_zero a_th th_sum margin_flip margin_zero "
                              "one_flip one_zero zero_flip zero_zero degenerate")):
    """What margins and detect read of (..., K) statistics, derived once by ``margin_tables``."""

    def rows(self, index) -> MarginTables:
        """The tables at ``index`` of the leading axes, as a block's pass reads them."""
        return MarginTables._make([v[index] for v in self])


class MrcTables(namedtuple("MrcTables", "h energy half_root")):
    """What mrc_detect reads of gains and powers, derived once by ``mrc_tables``."""

    def rows(self, index) -> MrcTables:
        """The tables at ``index`` of the powers' axes, as a block's pass reads them."""
        return MrcTables(self.h, self.energy, self.half_root[index])


class Workspace(dict):
    """Scratch arrays that margins, fuse and detect reuse from call to call.

    Each (name, dtype) array grows to the largest size asked of it, and a smaller
    call gets a view of its front, made once per shape and cached beside the
    arrays until the array grows.  A kernel may return one of these arrays, valid
    until the workspace's next use, so a workspace is never shared between threads.
    ``mask_of`` is the (amplitudes, tables) pair whose hard decision "mask" holds.
    """

    def __init__(self):
        super().__init__()
        self._views = {}
        self.mask_of = None

    def take(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        """An uninitialised ``shape`` array of ``dtype`` under ``name``."""
        view = self._views.get((name, dtype, shape))
        if view is None:
            size = math.prod(shape)
            array = self.get((name, dtype))
            if array is None or array.size < size:
                array = self[name, dtype] = np.empty(size, dtype)
                self._views = {key: v for key, v in self._views.items()
                               if key[:2] != (name, dtype)}
            view = self._views[name, dtype, shape] = array[:size].reshape(shape)
        return view


def compute_training_stats(ones_abs, zeros_abs) -> TrainingStats:
    """Reference values from the (..., K, n_t/2) amplitudes |y| of a training frame's
    halves, n_t/2 ones then n_t/2 zeros, whose leading axes broadcast to the (..., K) result.

    The amplitude threshold is the midpoint of the two half-frame means,
    which is algebraically the full-frame mean; computing it as the
    midpoint keeps the identity exact in floating point.  Each training
    slot is re-detected against the threshold (>= maps to symbol 1) and
    the per-half correct-detection rates are clamped into
    [2/n_t, 1 - 2/n_t] so that downstream log-weights stay finite.
    """
    ones, zeros = np.asarray(ones_abs, dtype=float), np.asarray(zeros_abs, dtype=float)
    half = ones.shape[-1] if ones.ndim else 0
    try:
        shape = np.broadcast(ones, zeros).shape[:-1]  # of the (..., K) statistics
    except ValueError:  # leading axes that do not broadcast
        half = 0
    if half < 2 or zeros.shape[-1:] != (half,):
        raise ParameterError(f"training halves must be (..., K, n_t/2) amplitudes of one even "
                             f"n_t >= 4, with leading axes that broadcast, got shapes "
                             f"{ones.shape} and {zeros.shape}")
    a_one, a_zero = (np.divide(np.add.reduce(amplitudes, axis=-1), half, out=np.empty(shape))
                     for amplitudes in (ones, zeros))  # ndarray.mean's sum and divide
    a_th = 0.5 * (a_one + a_zero)
    lo, hi = 1.0 / half, 1.0 - 1.0 / half  # 2/n_t, to the bit
    p11 = np.add.reduce(ones >= a_th[..., None], axis=-1, dtype=float) / half
    p00 = 1.0 - np.add.reduce(zeros >= a_th[..., None], axis=-1, dtype=float) / half
    p11, p00 = (np.minimum(np.maximum(p, lo), hi) for p in (p11, p00))
    return TrainingStats(a_th=a_th, a_one=a_one, a_zero=a_zero, p11=p11, p00=p00)


def margin_tables(stats: TrainingStats) -> MarginTables:
    """(..., K, 1) tables of A1, A0 and a_th, the (..., 1) node sum of a_th in node order
    (as numpy adds the node rows of |y| for N > 1), probability's margins, combination's
    alpha1 and alpha0 as ``_pair`` gives them to ``_select``, and (...) flags of a zero
    reference.  The alphas read each reference as at least 2**-1000, far below any
    trained amplitude, so none overflows."""
    a_one, a_zero, a_th, p11, p00 = (getattr(stats, name)[..., None]
                                     for name in ("a_one", "a_zero", "a_th", "p11", "p00"))
    log_p11, log_q11 = np.log(p11), np.log1p(-p11)
    log_q00, log_p00 = np.log1p(-p00), np.log(p00)
    usable = np.logical_and.reduce(np.concatenate([stats.a_one, stats.a_zero, stats.a_th], -1), -1)
    th, one, zero = (np.maximum(a, 2.0 ** -1000) for a in (a_th, a_one, a_zero))
    inv_one, inv_zero = 1.0 / one, 1.0 / zero
    return MarginTables(a_one, a_zero, a_th, np.cumsum(stats.a_th, axis=-1)[..., -1:],
                        *_pair(log_p11 - log_q00, log_q11 - log_p00),
                        *_pair(log_p11 / th - inv_one, log_q11 / th - inv_one),
                        *_pair(log_q00 / th - inv_zero, log_p00 / th - inv_zero), ~usable)


def margins(technique: str, y_abs, stats, workspace=None) -> np.ndarray:
    """Each node's evidence for symbol 1 minus its evidence for symbol 0.

    Takes (..., K, N) amplitudes and returns (..., K, N) margins, each a
    polynomial in |y| whose coefficients the hard decision d = (|y| >= a_th) picks:

    * probability  -- log(p11) - log(1 - p00) when detected, log(1 - p11) -
      log(p00) otherwise; training's clamping keeps each log argument in (0, 1).
    * deviation    -- 2 (|y| - a_th), that is (|y| - A1) - (A0 - |y|).
    * combination  -- alpha1(d) (|y| - A1)**2 - alpha0(d) (|y| - A0)**2 with
      alpha_i(d) = L_i(d) / a_th - 1 / A_i, L_i(d) symbol i's log-probability score:
      w1 - w0 with w_i = -(|y| - A_i)**2 / A_i + (|y| - A_i)**2 / a_th * L_i(d).
      Raises DegenerateTrainingError on a zero reference amplitude (a guard for
      direct callers: run_scenario never gives it zero-noise statistics).

    ``stats`` are TrainingStats or their ``margin_tables``.  The hard decision, an
    int64 mask of all ones where |y| >= a_th, picks each coefficient by ``_select``.
    A call on the same amplitude and table objects as the workspace's last probability
    call reuses its mask, so amplitudes rewritten in place need fresh tables.
    """
    y, tables = _checked(technique, y_abs, stats)
    if technique == COMBINATION and np.logical_or.reduce(tables.degenerate, axis=None):
        raise DegenerateTrainingError(
            "training produced a zero reference amplitude; combination margins are undefined")
    workspace = Workspace() if workspace is None else workspace
    margin = workspace.take("margin", y.shape)
    if technique == DEVIATION:
        return np.multiply(np.subtract(y, tables.a_th, out=margin), 2.0, out=margin)
    mask, source = workspace.take("mask", y.shape, np.int64), workspace.mask_of
    if not (source and source[0] is y and source[1] is tables):
        np.negative(np.greater_equal(y, tables.a_th, out=mask), out=mask)
    workspace.mask_of = (y, tables) if technique == PROBABILITY else None
    if technique == PROBABILITY:
        return _select(mask, tables.margin_flip, tables.margin_zero, margin)
    scratch = workspace.take("scratch", y.shape)
    alpha = _select(mask, tables.one_flip, tables.one_zero, scratch)
    np.multiply(np.square(np.subtract(y, tables.a_one, out=margin), out=margin), alpha, out=margin)
    alpha = _select(mask, tables.zero_flip, tables.zero_zero, mask)
    other = np.square(np.subtract(y, tables.a_zero, out=scratch), out=scratch)
    return np.subtract(margin, np.multiply(other, alpha, out=other), out=margin)


def _checked(technique: str, y_abs, stats):
    """(..., K, N) amplitudes as floats and the tables of ``stats``, checked to match."""
    if technique not in NONCOHERENT:
        raise ParameterError(f"unknown noncoherent technique {technique!r}; "
                             f"expected one of {sorted(NONCOHERENT)}")
    tables = stats if isinstance(stats, MarginTables) else margin_tables(stats)
    y = np.asarray(y_abs, dtype=float)
    if y.shape[:-1] != tables.a_th.shape[:-1] or y.shape[-2:-1] == (0,):
        raise ParameterError(f"y_abs must be (K, N) with K >= 1, with the leading axes of the "
                             f"(..., K) statistics {tables.a_th.shape[:-1]}, got shape {y.shape}")
    return y, tables


def _pair(if_one, if_zero):
    """The int64 bits (if_one ^ if_zero, if_zero) of two float tables, for ``_select``."""
    zero = if_zero.view(np.int64)
    return if_one.view(np.int64) ^ zero, zero


def _select(mask, flip, zero, out):
    """``np.where(mask, one, zero)`` into ``out``, which may be ``mask``, branch-free.

    ``mask`` holds int64 words of all ones or all zeros and (flip, zero) is
    ``_pair(one, zero)``, so (mask & flip) ^ zero copies one table entry's 64 bits
    whole, signed zeros and NaN payloads included.  Returns ``out`` as floats.
    """
    bits = np.bitwise_and(mask, flip, out=out.view(np.int64))
    return np.bitwise_xor(bits, zero, out=bits).view(float)


def fuse(node_margins, workspace=None):
    """Fusion-center decision: 1 when the summed node margins are positive.

    A perfectly balanced margin set cancels to an exact zero; ties resolve
    to symbol 0.  Takes (..., K, N) margins and returns a (..., N) int array.
    """
    m = np.asarray(node_margins, dtype=float)
    if m.ndim < 2 or m.shape[-2] == 0:
        raise ParameterError(f"margins must be (K, N) with K >= 1, got shape {m.shape}")
    take = (Workspace() if workspace is None else workspace).take
    total = np.add.reduce(m, axis=-2, out=take("total", m.shape[:-2] + m.shape[-1:]))
    return np.greater(total, 0.0, out=take("decision", total.shape, np.int64))


def detect(technique: str, y_abs, stats, workspace=None):
    """Detect the (..., N) symbols of a (..., K, N) block with one noncoherent technique.

    Deviation compares the node sum of |y| with the node sum of a_th: its summed margins
    2 (|y_k| - a_th,k) are positive when the first is larger.  Both sums add in the same
    order, so a slot where every node ties its threshold decides 0.  numpy's order follows
    the memory layout, so |y| is taken C-contiguous: its node rows then add in node order,
    as ``th_sum`` does, when N > 1, and pairwise from K = 8 on when N = 1, as a C-contiguous
    a_th does.  The others ``fuse``.
    """
    if technique != DEVIATION:
        return fuse(margins(technique, y_abs, stats, workspace), workspace)
    y, tables = _checked(technique, y_abs, stats)
    y = np.ascontiguousarray(y)
    take = (Workspace() if workspace is None else workspace).take
    total = np.add.reduce(y, axis=-2, out=take("total", y.shape[:-2] + y.shape[-1:]))
    th_sum = (tables.th_sum if y.shape[-1] > 1
              else np.add.reduce(np.ascontiguousarray(tables.a_th), axis=-2))
    return np.greater(total, th_sum, out=take("decision", total.shape, np.int64))


def mrc_tables(h, p_watts) -> MrcTables:
    """The (K, N) gains, sum_k h_k^2 per slot and sqrt(P)/2 as a (..., 1) column."""
    h, p = np.asarray(h, dtype=float), np.asarray(p_watts, dtype=float)
    if h.ndim != 2 or h.shape[0] == 0:
        raise ParameterError(f"h must be a (K, N) array with K >= 1, got shape {h.shape}")
    if not np.logical_and.reduce((p >= 0.0) & (p < np.inf), axis=None):
        raise ParameterError(f"p_watts must be finite and >= 0, got {p_watts!r}")
    return MrcTables(h, np.add.reduce(h * h, axis=0), (0.5 * np.sqrt(p))[..., None])


def mrc_detect(y, h, p_watts=None, workspace=None):
    """Coherent MRC baseline with perfect per-slot channel knowledge.

    Matched-filter statistic sum_k h_k*y_k compared against the midpoint
    threshold (sqrt(P)/2) * sum_k h_k^2; ties resolve to 0.  Takes (..., K, N)
    ``y``, (K, N) ``h`` and a float or (...) array of powers, or as ``h`` their
    ``mrc_tables``; gives (..., N) ints.
    """
    tables = h if isinstance(h, MrcTables) else mrc_tables(h, p_watts)
    y = np.asarray(y, dtype=float)
    if y.shape != tables.half_root.shape[:-1] + tables.h.shape:
        raise ParameterError(f"y and h must be matching (K, N) arrays, and y's leading axes "
                             f"those of p_watts, got {y.shape} and {tables.h.shape}")
    take = (Workspace() if workspace is None else workspace).take
    z = np.add.reduce(np.multiply(tables.h, y, out=take("scratch", y.shape)), axis=-2,
                      out=take("total", y.shape[:-2] + y.shape[-1:]))
    threshold = np.multiply(tables.half_root, tables.energy, out=take("threshold", z.shape))
    return np.greater(z, threshold, out=take("decision", z.shape, np.int64))
