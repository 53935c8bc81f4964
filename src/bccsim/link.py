"""Physical-layer model: unit bridges, OOK symbol frames, per-slot fading.

The received amplitude at node k in slot n is
``y = sqrt(P) * h * x + noise`` with a fresh independent channel draw per
node and per slot (fast-varying channels), and real Gaussian noise of
variance N0*B/2.  Powers and variances are plain floats in watts;
``dbm_to_watts`` and ``noise_variance`` convert from the scenario's units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _integer

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
    if _integer("symbol count", n) < 1:
        raise ParameterError(f"symbol count must be >= 1, got {n!r}")
    return (rng.random(n) < 0.5).astype(np.int64)


@dataclass(frozen=True, eq=False)
class ReceivedFrame:
    """Received amplitudes of one frame, or of a group of frames.

    ``y`` holds one row per node and one column per slot, behind the axes of the transmit
    powers it was drawn at, behind the group axes of the (..., N) symbols ``x``.  ``h`` holds
    the channel gains, kept as oracle access for the coherent baseline, ``noise`` the noise
    and ``signal`` the noiseless h * x at 1 W, each (..., K, N); ``received``, which also
    fills the drawn ``y``, gives ``y`` at other powers from the same draws.
    """

    y: np.ndarray
    x: np.ndarray
    h: np.ndarray
    noise: np.ndarray
    signal: np.ndarray

    def received(self, power_w, out=None) -> np.ndarray:
        """``y`` at ``power_w`` watts, into ``out`` if given, from the kept h * x.

        As x is 0 or 1, sqrt(P) * (h * x) has the bits of sqrt(P) * h * x unless
        sqrt(P) * h overflows, where x = 0 then gives the noise instead of NaN.
        """
        shape = self.x.shape[:-1] + (1,) * np.ndim(power_w) + self.signal.shape[-2:]
        y = np.multiply(np.sqrt(power_w)[..., None, None], self.signal.reshape(shape), out=out)
        return np.add(y, self.noise.reshape(shape), out=y)


def _check_watts(power_w, noise_variance_w) -> None:
    """Raise ParameterError unless each of ``power_w`` and the noise variance is finite, >= 0 W."""
    if not (np.minimum.reduce(power_w, axis=None, initial=0.0) >= 0.0
            and np.maximum.reduce(power_w, axis=None, initial=0.0) < np.inf
            and 0.0 <= noise_variance_w < np.inf):
        raise ParameterError(f"power and noise variance must be finite and >= 0 W, "
                             f"got {power_w!r} and {noise_variance_w!r}")


def generate_noise(noise_variance_w: float, normals) -> np.ndarray:
    """(..., K, N) Gaussian noise of variance ``noise_variance_w``: the node-major transpose of
    (..., N, K) slot-major standard normals times the deviation, in C order, over them."""
    _check_watts(0.0, noise_variance_w)
    normals = np.asarray(normals, dtype=float)
    return np.multiply(np.swapaxes(normals, -1, -2), np.sqrt(noise_variance_w),
                       out=normals.reshape(normals.shape[:-2] + normals.shape[:-3:-1]))


def generate_received(x, nodes, power_w, noise_variance_w: float, uniforms,
                      normals) -> ReceivedFrame:
    """Push symbols through K fading links: y = sqrt(P) * h * x + noise.

    ``x`` is (..., N) symbols and ``power_w`` a float or an array of powers.  Every node and
    slot gets a fresh independent channel draw, so no slot can be equalized from a neighbor:
    the (..., N, K) ``uniforms``, slot-major as a generator draws them, through each node's
    inverse CDF, which reads a node-major copy.  The noise is ``generate_noise``'s from the
    (..., N, K) ``normals``, so pieces of the draws give the pieces of the frame drawn whole.
    h and noise are written over C-ordered float draws.  ``y`` is filled by ``received``.
    """
    _check_watts(power_w, noise_variance_w)
    x = np.asarray(x)
    if x.ndim == 0 or x.size == 0:
        raise ParameterError("x must be a nonempty (..., N) symbol array")
    if not np.logical_and.reduce((x == 0) | (x == 1), axis=None):
        raise ParameterError("symbols must be 0 or 1")
    nodes = tuple(nodes)
    if not nodes:
        raise ParameterError("nodes must be a nonempty list of receive nodes")
    uniforms = np.asarray(uniforms, dtype=float)
    if not uniforms.shape == np.shape(normals) == x.shape + (len(nodes),):
        raise ParameterError(f"uniforms and normals must be {x.shape + (len(nodes),)} "
                             f"(..., N, K) draws, got {uniforms.shape}, {np.shape(normals)}")
    nodal = np.swapaxes(uniforms, -1, -2).copy()
    h = uniforms.reshape(nodal.shape)
    for i, node in enumerate(nodes):
        h[..., i, :] = node.dist.inverse_cdf(nodal[..., i, :])
    del nodal  # so the noise can take its memory
    noise = generate_noise(noise_variance_w, normals)
    frame = ReceivedFrame(y=np.empty(x.shape[:-1] + np.shape(power_w) + h.shape[-2:]), x=x,
                          h=h, noise=noise, signal=h * x[..., None, :])
    frame.received(power_w, out=frame.y)
    return frame
