"""Physical-layer model: unit bridges, OOK symbol frames, per-slot fading.

The received amplitude at node k in slot n is
``y = sqrt(P) * h * x + noise`` with a fresh independent channel draw per
node and per slot (fast-varying channels), and real Gaussian noise of
variance N0*B/2.  Powers and variances are plain floats in watts;
``dbm_to_watts`` and ``noise_variance`` convert from the scenario's units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

__all__ = [
    "ReceivedFrame",
    "dbm_to_watts",
    "noise_variance",
    "training_symbols",
    "generate_data_symbols",
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


def training_symbols(n_t: int) -> np.ndarray:
    """Known training pattern: n_t/2 ones followed by n_t/2 zeros."""
    if n_t < 2 or n_t % 2:
        raise ParameterError(f"n_t must be an even integer >= 2, got {n_t!r}")
    x = np.zeros(n_t, dtype=np.int64)
    x[: n_t // 2] = 1
    return x


def generate_data_symbols(n: int, rng) -> np.ndarray:
    """n i.i.d. equiprobable OOK symbols; a uniform draw < 0.5 maps to symbol 1."""
    if n < 1:
        raise ParameterError(f"symbol count must be >= 1, got {n!r}")
    return (rng.random(n) < 0.5).astype(np.int64)


@dataclass(frozen=True, eq=False)
class ReceivedFrame:
    """Received amplitudes of one frame.

    ``y`` holds one row per node and one column per slot, behind the axes of
    ``power_w``, the transmit power in watts (a float, or an array of powers).
    ``h`` carries the channel gains, kept as oracle access for the coherent
    baseline.  ``x`` is the symbol sequence and ``noise`` the additive noise.
    """

    y: np.ndarray
    x: np.ndarray
    h: np.ndarray
    noise: np.ndarray
    power_w: float | np.ndarray

    def at_power(self, power_w) -> ReceivedFrame:
        """The same draws at ``power_w`` watts, a float or array; itself at the power it holds."""
        if np.shape(power_w) == np.shape(self.power_w) and np.equal(power_w, self.power_w).all():
            return self
        return replace(self, y=_received(power_w, self.h, self.x, self.noise), power_w=power_w)


def _received(power_w, h, x, noise) -> np.ndarray:
    return np.sqrt(power_w)[..., None, None] * h * x + noise


def generate_received(x, nodes, power_w, noise_variance_w: float, rng) -> ReceivedFrame:
    """Push symbols through K fading links: y = sqrt(P) * h * x + noise.

    ``power_w`` is a float or an array of powers.  Every node and every slot
    gets a fresh independent channel draw, so no slot can be equalized from
    a neighbor.  Draw order per call: one uniform block (K, N) for the
    channels, then one normal block (K, N) for the noise, bit-reproducible.
    """
    if not (np.all(0.0 <= power_w) and np.all(power_w < np.inf)
            and 0.0 <= noise_variance_w < np.inf):
        raise ParameterError(f"power and noise variance must be finite and >= 0 W, "
                             f"got {power_w!r} and {noise_variance_w!r}")
    x = np.asarray(x)
    if x.ndim != 1 or x.size == 0:
        raise ParameterError("x must be a nonempty 1-D symbol array")
    if not np.all((x == 0) | (x == 1)):
        raise ParameterError("symbols must be 0 or 1")
    nodes = tuple(nodes)
    if not nodes:
        raise ParameterError("nodes must be a nonempty list of receive nodes")
    shape = (len(nodes), x.size)
    u = rng.random(shape)
    h = np.empty(shape)
    for i, node in enumerate(nodes):
        h[i] = node.dist.inverse_cdf(u[i])
    del u  # before the noise draw, which can then reuse its memory
    noise = rng.normal(0.0, np.sqrt(noise_variance_w), shape)
    return ReceivedFrame(y=_received(power_w, h, x, noise), x=x, h=h, noise=noise,
                         power_w=power_w)
