"""Training statistics, per-node detection margins, fusion, and MRC baseline.

All operations are pure and vectorized: per-node inputs are (..., K, N)
arrays with the node axis second to last, so a block of data slots is
detected in one call, at every index of any leading axes (one per transmit
power, say) with matching (..., K) statistics.  A single slot is (K, 1).

Three noncoherent techniques share the same training phase and the same
fusion rule but differ in how each node turns a received amplitude into
a margin, its evidence for symbol 1 minus its evidence for symbol 0:

* probability  -- hard-detect against the amplitude threshold, then score
  both hypotheses with logs of the empirical conditional probabilities.
* deviation    -- signed distances between the amplitude and the two
  half-frame mean amplitudes.
* combination  -- squared deviations scaled by the reference amplitudes,
  with the log-probability score as a balancing exponent term.

The fusion center sums the node margins.  The coherent baseline is
matched-filter combining with perfect per-slot channel knowledge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrainingError, ParameterError
from .link import ReceivedFrame

__all__ = [
    "PROBABILITY",
    "DEVIATION",
    "COMBINATION",
    "MRC",
    "TECHNIQUES",
    "NONCOHERENT",
    "TrainingStats",
    "Workspace",
    "compute_training_stats",
    "margins",
    "fuse",
    "detect",
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
    All arrays have shape (..., K), the leading axes of the frame.
    """

    a_th: np.ndarray
    a_one: np.ndarray
    a_zero: np.ndarray
    p11: np.ndarray
    p00: np.ndarray

    def __getitem__(self, index) -> TrainingStats:
        """The statistics at ``index`` of the leading axes, every field indexed alike."""
        return TrainingStats(*(v[index] for v in vars(self).values()))


class Workspace(dict):
    """Scratch arrays that margins, fuse and detect reuse from call to call.

    Each (name, dtype) array grows to the largest size asked of it, and a smaller
    call gets a view of its front, made once per shape and cached beside the
    arrays until the array grows.  A kernel may return one of these arrays, valid
    until the workspace's next use, so a workspace is never shared between threads.
    """

    def __init__(self):
        super().__init__()
        self._views = {}

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


def compute_training_stats(frame: ReceivedFrame) -> TrainingStats:
    """Reference values from a received training frame.

    The amplitude threshold is the midpoint of the two half-frame means,
    which is algebraically the full-frame mean; computing it as the
    midpoint keeps the identity exact in floating point.  Each training
    slot is re-detected against the threshold (>= maps to symbol 1) and
    the per-half correct-detection rates are clamped into
    [2/n_t, 1 - 2/n_t] so that downstream log-weights stay finite.
    (..., K, n_t) amplitudes give (..., K) statistics.
    """
    x = np.asarray(frame.x)
    n_t = x.size
    if n_t < 4 or n_t % 2:
        raise ParameterError(f"n_t must be an even integer >= 4 for training, got {n_t}")
    half = n_t // 2
    if not (np.all(x[:half] == 1) and np.all(x[half:] == 0)):
        raise ParameterError("frame does not carry the training pattern (ones then zeros)")
    amp = np.abs(frame.y)
    a_one = amp[..., :half].mean(axis=-1)
    a_zero = amp[..., half:].mean(axis=-1)
    a_th = 0.5 * (a_one + a_zero)
    detected = amp >= a_th[..., None]
    lo, hi = 2.0 / n_t, 1.0 - 2.0 / n_t
    p11 = np.clip(detected[..., :half].mean(axis=-1), lo, hi)
    p00 = np.clip(1.0 - detected[..., half:].mean(axis=-1), lo, hi)
    return TrainingStats(a_th=a_th, a_one=a_one, a_zero=a_zero, p11=p11, p00=p00)


def _as_amplitudes(y_abs, stats: TrainingStats) -> np.ndarray:
    y = np.asarray(y_abs, dtype=float)
    if y.shape[:-1] != stats.a_th.shape:
        raise ParameterError(f"y_abs must be (K, N), with the leading axes of the (..., K) "
                             f"statistics {stats.a_th.shape}, got shape {y.shape}")
    return y


def margins(technique: str, y_abs, stats: TrainingStats, workspace=None) -> np.ndarray:
    """Each node's evidence for symbol 1 minus its evidence for symbol 0.

    Takes (..., K, N) amplitudes and returns (..., K, N) margins:

    * probability  -- hard-detect against a_th; log(p11) - log(1 - p00) when
      detected, log(1 - p11) - log(p00) otherwise.  Clamping during
      training keeps every log argument inside (0, 1).
    * deviation    -- (|y| - A1) - (A0 - |y|).
    * combination  -- for each hypothesis the squared deviation over the
      matching reference amplitude, plus the same square over a_th times
      that hypothesis' log-probability score.  Requires strictly positive
      reference amplitudes.

    The hard decision is an int64 mask, all ones where |y| >= a_th, that picks
    each log-probability score with bit operations in place (``_select``).
    """
    if technique not in NONCOHERENT:
        raise ParameterError(
            f"unknown noncoherent technique {technique!r}; expected one of "
            f"{sorted(NONCOHERENT)}")
    if technique == COMBINATION and not (stats.a_one.all() and stats.a_zero.all()
                                         and stats.a_th.all()):
        raise DegenerateTrainingError(
            "training produced a zero reference amplitude; combination margins are undefined")
    y = _as_amplitudes(y_abs, stats)
    take = (Workspace() if workspace is None else workspace).take
    a_one = stats.a_one[..., None]
    a_zero = stats.a_zero[..., None]
    if technique == DEVIATION:
        above = np.subtract(y, a_one, out=take("margin", y.shape))
        return np.subtract(above, np.subtract(a_zero, y, out=take("scratch", y.shape)), out=above)
    a_th = stats.a_th[..., None]
    p11 = stats.p11[..., None]
    p00 = stats.p00[..., None]
    mask = np.greater_equal(y, a_th, out=take("mask", y.shape, np.int64))
    np.negative(mask, out=mask)
    if technique == PROBABILITY:
        return _select(mask, np.log(p11) - np.log1p(-p00), np.log1p(-p11) - np.log(p00), mask)
    square = take("square", y.shape)
    log_p = _select(mask, np.log(p11), np.log1p(-p11), take("scratch", y.shape))
    w1 = _evidence(np.subtract(y, a_one, out=square), a_one, a_th, log_p,
                   take("margin", y.shape))
    log_p = _select(mask, np.log1p(-p00), np.log(p00), mask)
    w0 = _evidence(np.subtract(a_zero, y, out=square), a_zero, a_th, log_p,
                   take("scratch", y.shape))
    return np.subtract(w1, w0, out=w1)


def _select(mask, if_one, if_zero, out):
    """``np.where(mask, if_one, if_zero)`` into ``out``, which may be ``mask``, branch-free.

    ``mask`` holds int64 words of all ones or all zeros, so (mask & (one ^ zero)) ^
    zero over the float tables' int64 views copies one table entry's 64 bits whole,
    signed zeros and NaN payloads included.  Returns ``out`` as floats.
    """
    one, zero = if_one.view(np.int64), if_zero.view(np.int64)
    bits = np.bitwise_and(mask, one ^ zero, out=out.view(np.int64))
    return np.bitwise_xor(bits, zero, out=bits).view(float)


def _evidence(deviation, a_ref, a_th, log_p, out):
    """-deviation**2 / a_ref + deviation**2 / a_th * log_p into ``out``, squaring in place."""
    square = np.square(deviation, out=deviation)
    np.divide(square, -a_ref, out=out)  # (-square) / a_ref bit for bit: IEEE sign symmetry
    return np.add(out, np.multiply(np.divide(square, a_th, out=square), log_p, out=square),
                  out=out)


def fuse(node_margins, workspace=None):
    """Fusion-center decision: 1 when the summed node margins are positive.

    A perfectly balanced margin set cancels to an exact zero; ties resolve
    to symbol 0.  Takes (..., K, N) margins and returns a (..., N) int array.
    """
    m = np.asarray(node_margins, dtype=float)
    if m.ndim < 2 or m.shape[-2] == 0:
        raise ParameterError(f"margins must be (K, N) with K >= 1, got shape {m.shape}")
    take = (Workspace() if workspace is None else workspace).take
    total = m.sum(axis=-2, out=take("total", m.shape[:-2] + m.shape[-1:]))
    return np.greater(total, 0.0, out=take("decision", total.shape, np.int64))


def detect(technique: str, y_abs, stats: TrainingStats, workspace=None):
    """Detect the (..., N) symbols of a (..., K, N) block with one noncoherent technique."""
    return fuse(margins(technique, y_abs, stats, workspace), workspace)


def mrc_detect(y, h, p_watts):
    """Coherent MRC baseline with perfect per-slot channel knowledge.

    Matched-filter statistic sum_k h_k*y_k compared against the midpoint
    threshold (sqrt(P)/2) * sum_k h_k^2; ties resolve to 0.  Takes (..., K, N)
    ``y``, (K, N) ``h`` and a float or (...) array of powers; gives (..., N) ints.
    """
    y = np.asarray(y, dtype=float)
    h = np.asarray(h, dtype=float)
    p = np.asarray(p_watts, dtype=float)
    if y.shape != p.shape + h.shape or h.ndim != 2 or h.shape[0] == 0:
        raise ParameterError(f"y and h must be matching (K, N) arrays with K >= 1, and y's "
                             f"leading axes those of p_watts, got {y.shape} and {h.shape}")
    if not (p >= 0.0).all():
        raise ParameterError(f"p_watts must be >= 0, got {p_watts!r}")
    z = (h * y).sum(axis=-2)
    threshold = (0.5 * np.sqrt(p))[..., None] * (h * h).sum(axis=0)
    decision = z > threshold
    return decision.astype(np.int64)
