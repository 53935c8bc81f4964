"""Physical-layer model: unit bridges, OOK symbol frames, per-slot fading.

The received amplitude at node k in slot n is
``y = sqrt(P) * h * x + noise`` with a fresh independent channel draw per
node and per slot (fast-varying channels), and real Gaussian noise of
variance N0*B/2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

__all__ = [
    "LinkParams",
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


@dataclass(frozen=True)
class LinkParams:
    """Transmit power, noise spectral density, and bandwidth of one link."""

    tx_power_dbm: float
    n0_dbm_per_hz: float = -174.0
    bandwidth_hz: float = 1.0e5

    def __post_init__(self):
        dbm_to_watts(self.tx_power_dbm)
        noise_variance(self.n0_dbm_per_hz, self.bandwidth_hz)

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @property
    def noise_variance_w(self) -> float:
        return noise_variance(self.n0_dbm_per_hz, self.bandwidth_hz)


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


@dataclass(frozen=True)
class ReceivedFrame:
    """Received amplitudes of one frame.

    ``y`` holds one row per node and one column per slot.  ``h`` carries
    the channel gains that produced it, kept as oracle access for the
    coherent baseline.  ``x`` is the transmitted symbol sequence and
    ``noise`` the additive noise, which ``generate_received`` records.
    """

    y: np.ndarray
    x: np.ndarray
    h: np.ndarray
    params: LinkParams
    noise: np.ndarray | None = None

    def at_power(self, params: LinkParams) -> ReceivedFrame:
        """The same symbols, channel draws and noise received under ``params``."""
        if params == self.params:
            return self
        y = np.sqrt(params.tx_power_w) * self.h * self.x + self.noise
        return replace(self, y=y, params=params)

    @property
    def n_nodes(self) -> int:
        return self.y.shape[0]

    @property
    def n_slots(self) -> int:
        return self.y.shape[1]


def generate_received(x, nodes, params: LinkParams, rng) -> ReceivedFrame:
    """Push symbols through K fading links: y = sqrt(P) * h * x + noise.

    Every node and every slot gets a fresh independent channel draw, so
    no slot can be equalized from a neighbor.  Draw order per call: one
    uniform block (K, N) for the channels, then one normal block (K, N)
    for the noise; this makes frames bit-reproducible for a given stream.
    """
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
    noise = rng.normal(0.0, np.sqrt(params.noise_variance_w), shape)
    y = np.sqrt(params.tx_power_w) * h * x + noise
    return ReceivedFrame(y=y, x=x, h=h, params=params, noise=noise)
