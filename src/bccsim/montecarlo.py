"""Seeded Monte-Carlo BER estimation over a (power x training length) grid.

Each BER point runs a number of independent (train, transmit) blocks so
the estimate averages over training randomness as well as data noise.
Block b draws its data frame from the substream (STREAM_VERSION, b) of
the scenario seed and each training frame from (STREAM_VERSION, b, n_t).
Every power and technique runs on those shared frames (common random
numbers), which makes results identical for any worker count, execution
order or subset of the grid that is run.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product, repeat
from numbers import Integral, Real

import numpy as np

from .channels import NodeProfile
from .detectors import (MRC, TECHNIQUES, TrainingStats, Workspace, compute_training_stats,
                        detect, mrc_detect)
from .errors import DegenerateTrainingError, ParameterError
from .link import (dbm_to_watts, generate_data_symbols, generate_received, noise_variance,
                   training_symbols)

__all__ = [
    "STREAM_VERSION",
    "MAX_N_T",
    "MAX_POWERS",
    "Scenario",
    "BerPoint",
    "make_ber_point",
    "run_scenario",
]

# Bumped whenever a change makes a seed produce different frames.
STREAM_VERSION = 2

# Longest training frame a Scenario accepts: 100x the longest preset frame.
MAX_N_T = 100_000

# Most powers a Scenario sweeps: about 400x the preset sweeps' 26.
MAX_POWERS = 10_000

# Elements of the (powers, K, slots) array one pass of a block detects, or of
# a training frame reduces, at once: 64 KB of float64 per array, so a pass's
# temporaries stay in cache.
_PASS_ELEMENTS = 2 ** 13


@dataclass(frozen=True)
class Scenario:
    """One full experiment: nodes, point grid, budget, seed.

    The BER points are every (power, training length) pair of
    ``power_sweep_dbm`` x ``n_t``; an int ``n_t`` is a one-entry tuple,
    each entry is an even training length in [4, ``MAX_N_T``], and the
    sweep has at most ``MAX_POWERS`` powers.
    ``blocks`` is the number of independent (train, transmit) repetitions
    each point is averaged over.  A field of the wrong type or value raises
    ParameterError naming it; lists are stored as tuples, and a bool is
    rejected where a number is expected.
    """

    nodes: tuple[NodeProfile, ...]
    n_t: tuple[int, ...] = (50,)
    power_sweep_dbm: tuple[float, ...] = tuple(float(p) for p in range(-20, 31, 2))
    n_data_symbols: int = 1_000_000
    techniques: tuple[str, ...] = TECHNIQUES
    seed: int = 0
    n0_dbm_per_hz: float = -174.0
    bandwidth_hz: float = 1.0e5
    blocks: int = 100

    def __post_init__(self):
        if not isinstance(self.n_t, (list, tuple)):
            object.__setattr__(self, "n_t", (self.n_t,))
        for key, check in _ENTRY_CHECKS.items():
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)) or not values:
                raise ParameterError(f"{key}: must be a nonempty list, got {values!r}")
            object.__setattr__(self, key, tuple(check(key, v) for v in values))
        for key, check in _VALUE_CHECKS.items():
            object.__setattr__(self, key, check(key, getattr(self, key)))
        _validate_scenario(self)


def _integer(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{key}: must be an integer, got {value!r}")
    return int(value)


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ParameterError(f"{key}: must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{key}: must be a number within float range") from None


def _node(key: str, value) -> NodeProfile:
    if not isinstance(value, NodeProfile):
        raise ParameterError(f"{key}: must be a list of NodeProfile objects, got {value!r}")
    return value


def _technique(key: str, value) -> str:
    if value not in TECHNIQUES:
        raise ParameterError(f"{key}: unknown technique {value!r}; known: {list(TECHNIQUES)}")
    return value


# The type check of each field; the sequence fields check every entry.
_ENTRY_CHECKS = {"nodes": _node, "n_t": _integer, "power_sweep_dbm": _number,
                 "techniques": _technique}
_VALUE_CHECKS = {"n_data_symbols": _integer, "seed": _integer, "n0_dbm_per_hz": _number,
                 "bandwidth_hz": _number, "blocks": _integer}


def _check_axis(key: str, values: tuple) -> None:
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParameterError(f"{key} must be strictly increasing, got {values}")


def _validate_scenario(s: Scenario) -> None:
    ids = [n.node_id for n in s.nodes]
    if len(set(ids)) != len(ids):
        raise ParameterError(f"nodes must have unique node_id values, got {ids}")
    for v in s.n_t:
        if v < 4 or v % 2 or v > MAX_N_T:
            raise ParameterError(f"n_t entries must be even integers in [4, {MAX_N_T}], got {v}")
    _check_axis("n_t", s.n_t)
    if len(s.power_sweep_dbm) > MAX_POWERS:
        raise ParameterError(f"power_sweep_dbm: at most {MAX_POWERS} powers, "
                             f"got {len(s.power_sweep_dbm)}")
    if s.n_data_symbols < 1:
        raise ParameterError(f"n_data_symbols must be >= 1, got {s.n_data_symbols}")
    for p in s.power_sweep_dbm:  # all checked here, since one block covers every power
        try:
            dbm_to_watts(p)
        except ParameterError as exc:
            raise ParameterError(f"power_sweep_dbm: {exc}") from None
    _check_axis("power_sweep_dbm", s.power_sweep_dbm)
    if len(set(s.techniques)) != len(s.techniques):
        raise ParameterError(f"techniques must not repeat, got {s.techniques}")
    if not 0 <= s.seed < 2 ** 64:
        raise ParameterError(f"seed must fit an unsigned 64-bit integer, got {s.seed}")
    if s.blocks < 1:
        raise ParameterError(f"blocks must be >= 1, got {s.blocks}")
    try:
        noise_variance(s.n0_dbm_per_hz, s.bandwidth_hz)
    except ParameterError as exc:
        raise ParameterError(f"n0_dbm_per_hz/bandwidth_hz: {exc}") from None


@dataclass(frozen=True)
class BerPoint:
    """One measured BER sample with a 95% binomial confidence half-width."""

    technique: str
    tx_power_dbm: float
    n_t: int
    error_count: int
    symbol_count: int
    ber: float
    ci95: float


def make_ber_point(technique: str, tx_power_dbm: float, n_t: int,
                   error_count: int, symbol_count: int) -> BerPoint:
    """Build a BerPoint, deriving the rate and the normal-approximation CI."""
    if symbol_count < 1 or not 0 <= error_count <= symbol_count:
        raise ParameterError(
            f"need 0 <= errors <= symbols with symbols >= 1, got {error_count}/{symbol_count}")
    ber = error_count / symbol_count
    ci95 = 1.96 * math.sqrt(ber * (1.0 - ber) / symbol_count)
    return BerPoint(technique=technique, tx_power_dbm=float(tx_power_dbm), n_t=int(n_t),
                    error_count=int(error_count), symbol_count=int(symbol_count),
                    ber=ber, ci95=ci95)


def _block_sizes(total: int, blocks: int) -> list[int]:
    n_blocks = min(blocks, total)
    base, extra = divmod(total, n_blocks)
    return [base + 1 if i < extra else base for i in range(n_blocks)]


def _substream(seed: int, *key: int):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_VERSION, *key)))


def _errors(decisions, x):
    """Symbol errors of (..., N) 0/1 decisions against the sent 0/1 symbols."""
    return (decisions ^ x).sum(axis=-1)


def _detect_errors(technique: str, amplitudes, stats: TrainingStats, x, workspace=None):
    """Errors of one noncoherent technique per power, -1 where the training is degenerate."""
    try:
        return _errors(detect(technique, amplitudes, stats, workspace), x)
    except DegenerateTrainingError:
        if len(amplitudes) == 1:
            return [-1]
        return [_detect_errors(technique, a[None], stats[i, None], x, workspace)[0]
                for i, a in enumerate(amplitudes)]


def _passes(count: int, elements: int) -> list[slice]:
    """Consecutive slices of ``count`` powers, each as many as fit _PASS_ELEMENTS
    elements of a (powers, ``elements``) array, at least one."""
    step = max(1, _PASS_ELEMENTS // elements)
    return [slice(i, i + step) for i in range(0, count, step)]


def _training_stats(scenario: Scenario, block_index: int, n_t: int, powers,
                    variance: float) -> TrainingStats:
    """(powers, K) statistics of one block's training frame of length ``n_t``.

    The frame is reduced in passes sized by the frame alone, one
    compute_training_stats call per pass, and the passes' rows are joined;
    the statistics of a frame that fits one pass are returned as they are.
    """
    passes = _passes(len(powers), len(scenario.nodes) * n_t)
    frame = generate_received(training_symbols(n_t), scenario.nodes, powers[passes[0]],
                              variance, _substream(scenario.seed, block_index, n_t))
    parts = [compute_training_stats(frame.at_power(powers[at])) for at in passes]
    if len(parts) == 1:
        return parts[0]
    return TrainingStats(*map(np.concatenate, zip(*(vars(p).values() for p in parts))))


def _run_block(scenario: Scenario, block_index: int, n_symbols: int, workspace) -> np.ndarray:
    """Error counts of one (train, transmit) block at every grid point and technique.

    Each training length's frame is drawn, reduced to (powers, K) statistics
    in training passes sized by that frame and dropped before the next is
    drawn.  Then the data frame is rescaled and detected in data passes of as
    many consecutive powers as fit _PASS_ELEMENTS elements of a (powers, K,
    slots) array: once per pass against each length's rows of statistics, in
    ``workspace``, and MRC once for all lengths.  Counts are (points,
    techniques) in grid order, -1 where training was degenerate.
    """
    powers = np.array([dbm_to_watts(p) for p in scenario.power_sweep_dbm])
    variance = noise_variance(scenario.n0_dbm_per_hz, scenario.bandwidth_hz)
    stats = [_training_stats(scenario, block_index, n_t, powers, variance)
             for n_t in (scenario.n_t if set(scenario.techniques) != {MRC} else ())]
    rng = _substream(scenario.seed, block_index)
    x = generate_data_symbols(n_symbols, rng)
    passes = _passes(len(powers), len(scenario.nodes) * n_symbols)
    data = generate_received(x, scenario.nodes, powers[passes[0]], variance, rng)
    counts = np.empty((len(scenario.n_t), len(powers), len(scenario.techniques)), dtype=np.int64)
    for at in passes:
        frame = data.at_power(powers[at])
        amplitudes = np.abs(frame.y, out=workspace.take("amplitudes", frame.y.shape))
        rows = [s[at] for s in stats]
        for j, technique in enumerate(scenario.techniques):
            if technique == MRC:  # needs no training: one count serves every length
                counts[:, at, j] = _errors(mrc_detect(frame.y, frame.h, powers[at]), x)
            else:
                counts[:, at, j] = [_detect_errors(technique, amplitudes, s, x, workspace)
                                    for s in rows]
    return counts.swapaxes(0, 1).reshape(-1, len(scenario.techniques))


def _run_blocks(scenario: Scenario, first: int, sizes: list[int]):
    """Summed error and symbol counts of consecutive blocks from ``first``, in one workspace."""
    workspace, errors, symbols = Workspace(), 0, 0
    for block_index, size in enumerate(sizes, first):
        counts = _run_block(scenario, block_index, size, workspace)
        errors, symbols = errors + np.maximum(counts, 0), symbols + (counts >= 0) * size
    return errors, symbols


def run_scenario(scenario: Scenario, jobs: int | None = None) -> list[BerPoint]:
    """BER of every (technique, power, n_t) point of the scenario's grid.

    Blocks are independent; with ``jobs`` > 1 they run in a process pool no
    larger than ``jobs``, the blocks or the CPUs, each worker summing the counts
    of one contiguous run of blocks.  A degenerate block drops its symbols from
    the affected point only; a point left with none is reported as a
    RuntimeWarning and omitted.  The output is sorted by (technique, power, n_t).
    """
    if jobs is not None and _integer("jobs", jobs) < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs!r}")
    grid = list(product(scenario.power_sweep_dbm, scenario.n_t))
    sizes = _block_sizes(scenario.n_data_symbols, scenario.blocks)
    workers = min(jobs or 1, len(sizes), os.cpu_count() or 1)
    firsts = [len(sizes) * i // workers for i in range(workers)]
    args = (repeat(scenario), firsts, [sizes[a:b] for a, b in zip(firsts, firsts[1:] + [None])])
    if workers == 1:
        totals = map(_run_blocks, *args)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            totals = list(pool.map(_run_blocks, *args))
    errors, symbols = (sum(parts) for parts in zip(*totals))
    points = []
    for (i, (power, n_t)), (j, technique) in product(enumerate(grid),
                                                     enumerate(scenario.techniques)):
        if symbols[i, j]:
            points.append(make_ber_point(technique, power, n_t,
                                         int(errors[i, j]), int(symbols[i, j])))
        else:
            warnings.warn(f"skipping BER point: technique {technique!r} at {power} dBm, "
                          f"n_t={n_t}: all {len(sizes)} training blocks were degenerate",
                          RuntimeWarning, stacklevel=2)
    return sorted(points, key=lambda p: (p.technique, p.tx_power_dbm, p.n_t))
