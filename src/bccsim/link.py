"""Physical-layer model: unit bridges, OOK symbol frames, per-slot fading.

The received amplitude at node k in slot n is
``y = sqrt(P) * h * x + noise`` with a fresh independent channel draw per
node and per slot (fast-varying channels), and real Gaussian noise of
variance N0*B/2.  Powers and variances are plain floats in watts;
``dbm_to_watts`` and ``noise_variance`` convert from the scenario's units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError

__all__ = [
    "ReceivedFrame",
    "dbm_to_watts",
    "noise_variance",
    "generate_data_symbols",
    "generate_noise",
    "generate_received",
]


def dbm_to_watts(p_dbm: float) -> float:
    """Convert dBm to watts.  -inf maps to 0 W; NaN and overflowing watts raise."""
    try:
        watts = 10.0 ** ((float(p_dbm) - 30.0) / 10.0)
    except OverflowError:
        watts = np.inf
    if not np.isfinite(watts):
        raise ParameterError(f"power in dBm must give finite watts, got {p_dbm!r}")
    return watts


def noise_variance(n0_dbm_per_hz: float, bandwidth_hz: float) -> float:
    """Real-noise variance N0*B/2 in watts; NaN and overflowing variances raise."""
    if not bandwidth_hz >= 0.0:
        raise ParameterError(f"bandwidth_hz must be >= 0, got {bandwidth_hz!r}")
    variance = dbm_to_watts(n0_dbm_per_hz) * bandwidth_hz / 2.0
    if not np.isfinite(variance):
        raise ParameterError(f"noise variance N0*B/2 must be finite, got {variance!r} W "
                             f"from {n0_dbm_per_hz!r} dBm/Hz and {bandwidth_hz!r} Hz")
    return variance


def generate_data_symbols(n: int, rng) -> np.ndarray:
    """n i.i.d. equiprobable OOK symbols; a uniform draw < 0.5 maps to symbol 1."""
    if n < 1:
        raise ParameterError(f"symbol count must be >= 1, got {n!r}")
    return (rng.random(n) < 0.5).astype(np.int64)


@dataclass(frozen=True, eq=False)
class ReceivedFrame:
    """Received amplitudes of one frame.

    ``y`` holds one row per node and one column per slot, behind the axes of
    the transmit powers it was drawn at.  ``h`` carries the channel gains,
    kept as oracle access for the coherent baseline.  ``x`` is the symbol
    sequence and ``noise`` the additive noise; ``received``, which also fills
    the drawn ``y``, gives ``y`` at other powers from the same draws.  A drawn
    frame keeps the ``signal`` h * x it was drawn from.
    """

    y: np.ndarray
    x: np.ndarray
    h: np.ndarray
    noise: np.ndarray

    def received(self, power_w, out=None) -> np.ndarray:
        """``y`` at ``power_w`` watts, into ``out`` if given, from the kept h * x.

        As x is 0 or 1, sqrt(P) * (h * x) has the bits of sqrt(P) * h * x unless
        sqrt(P) * h overflows, where x = 0 then gives the noise instead of NaN.
        """
        y = np.multiply(np.sqrt(power_w)[..., None, None], self.signal, out=out)
        return np.add(y, self.noise, out=y)

    @cached_property
    def signal(self) -> np.ndarray:
        """h * x, the noiseless amplitudes at 1 W."""
        return self.h * self.x


def generate_noise(k: int, n: int, noise_variance_w: float, rng, workspace=None) -> np.ndarray:
    """(K, N) real Gaussian noise of variance ``noise_variance_w``: the N x K standard normals
    ``rng`` gives next, slot-major, times the standard deviation.  With a ``workspace`` the
    draw and the noise are its "draw" and "noise" arrays, valid until its next use."""
    take = _fresh if workspace is None else workspace.take
    normal = rng.standard_normal(out=take("draw", (n, k)))
    return np.multiply(normal.T, np.sqrt(noise_variance_w), out=take("noise", (k, n)))


def generate_received(x, nodes, power_w, noise_variance_w: float, rng, noise_rng=None,
                      workspace=None) -> ReceivedFrame:
    """Push symbols through K fading links: y = sqrt(P) * h * x + noise.

    ``power_w`` is a float or an array of powers.  Every node and slot gets a fresh
    independent channel draw, so no slot can be equalized from a neighbor: the N x K
    uniforms ``rng`` gives next, slot-major, through each node's inverse CDF.  The noise is
    ``generate_noise``'s draw from ``noise_rng``, or from ``rng`` after the channels.  So
    frames drawn one after another from the same two generators are the consecutive pieces
    of the frame drawn whole.  With a ``workspace`` the draws and the frame's arrays are its
    "draw", "gains", "noise" and "received" arrays, valid until its next use.
    ``y`` is filled by ``ReceivedFrame.received``, as every rescale is.
    """
    if not (np.minimum.reduce(power_w, axis=None, initial=0.0) >= 0.0
            and np.maximum.reduce(power_w, axis=None, initial=0.0) < np.inf
            and 0.0 <= noise_variance_w < np.inf):
        raise ParameterError(f"power and noise variance must be finite and >= 0 W, "
                             f"got {power_w!r} and {noise_variance_w!r}")
    x = np.asarray(x)
    if x.ndim != 1 or x.size == 0:
        raise ParameterError("x must be a nonempty 1-D symbol array")
    if not np.logical_and.reduce((x == 0) | (x == 1), axis=None):
        raise ParameterError("symbols must be 0 or 1")
    nodes = tuple(nodes)
    if not nodes:
        raise ParameterError("nodes must be a nonempty list of receive nodes")
    take = _fresh if workspace is None else workspace.take
    uniform = rng.random(out=take("draw", (x.size, len(nodes))))
    h = take("gains", (len(nodes), x.size))
    for i, node in enumerate(nodes):
        h[i] = node.dist.inverse_cdf(uniform[:, i])
    del uniform  # the noise's draw takes its memory
    noise = generate_noise(len(nodes), x.size, noise_variance_w,
                           rng if noise_rng is None else noise_rng, workspace)
    frame = ReceivedFrame(y=take("received", np.shape(power_w) + h.shape), x=x, h=h, noise=noise)
    frame.received(power_w, out=frame.y)
    return frame


def _fresh(name: str, shape: tuple, dtype=float) -> np.ndarray:
    """A new uninitialised array, for a draw made without a workspace."""
    return np.empty(shape, dtype)
