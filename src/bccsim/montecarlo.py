"""Seeded Monte-Carlo BER estimation over a (power x training length) grid.

Each BER point runs a number of independent (train, transmit) blocks so
the estimate averages over training randomness as well as data noise.
Block b draws every number from one generator seeded by the key
(STREAM_VERSION, b) of the scenario seed, in six streams at fixed offsets:
the data symbols, gains and noise, and the training pools' gains and noise.
Every power, training length and technique runs on those shared draws
(common random numbers), which makes results identical for any worker count,
execution order, subset of the grid that is run or grouping of blocks: a
worker restates six generators as a block's streams before it draws, trains
each run of data groups whose training pools fit one pass at once, then
detects each data group (_groups).
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .channels import NodeProfile
from .detectors import (COMBINATION, DEVIATION, MRC, NONCOHERENT, PROBABILITY, TECHNIQUES,
                        TrainingStats, Workspace, compute_training_stats, detect, margin_tables,
                        mrc_detect, mrc_tables)
from .errors import ParameterError, _integer, _number
from .link import (dbm_to_watts, generate_data_symbols, generate_noise, generate_received,
                   noise_variance)

__all__ = [
    "STREAM_VERSION",
    "MAX_N_T",
    "MAX_POINTS",
    "Scenario",
    "BerPoint",
    "make_ber_point",
    "run_scenario",
]

# Bumped whenever a change makes a seed produce different frames.
STREAM_VERSION = 3

# A block's streams: stream j is the block's generator advanced j * 2^64 draws.
_SYMBOLS, _GAINS, _NOISE, _ONES_GAINS, _ONES_NOISE, _ZEROS_NOISE = range(6)

# Longest training frame a Scenario accepts: 100x the longest preset frame.
MAX_N_T = 100_000

# Most (power, training length) points a Scenario's grid has: about 400x the preset grids' 26.
MAX_POINTS = 10_000

# Elements of the (powers, K, slots) array one pass of a block, or of a group's blocks, detects,
# or of its training ones pool reduces, at once: 256 KB of float64.  Each pass has a fixed cost, so
# wider passes are faster but hold more; BENCH_width.json measures 2^15 against 2^13.
_PASS_ELEMENTS = 2 ** 15

# Elements of the (K, slots) array of one chunk of a block's data phase, drawn, detected and
# counted before the next, so a block holds no more memory however many slots it has.  Every
# stream is drawn slot-major, so the chunks are consecutive pieces of its sequence and no draw
# depends on this size.  A count does only through a one-slot chunk at K >= 8, whose node sums
# numpy adds pairwise (see detectors.detect), so the size is part of stream 3.
_CHUNK_ELEMENTS = 2 ** 15

# Elements of numpy's ufunc buffer while a worker runs its blocks.  numpy copies a broadcast
# (powers, K, 1) table into its buffer when a row of slots is short against it: a table subtract
# on fig6's (3, 9, 1000) pass took 17-20 us at the default 8,192, 7 us at 1,024.  128 also spares
# rows of 500 slots but makes casting ufuncs about 2x slower.
_UFUNC_BUFFER = 1024


@dataclass(frozen=True)
class Scenario:
    """One full experiment: nodes, point grid, budget, seed.

    The BER points are every (power, training length) pair of ``power_sweep_dbm`` x
    ``n_t``; an int ``n_t`` is a one-entry tuple, each entry is an even training length in
    [4, ``MAX_N_T``], and the grid has at most ``MAX_POINTS`` points.  ``blocks`` is the
    number of independent (train, transmit) repetitions each point is averaged over.  A
    field of the wrong type or value raises ParameterError naming it; lists are stored as
    tuples, and a bool is rejected where a number is expected.
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

    @property
    def block_count(self) -> int:
        """The blocks that run: ``blocks``, or one per symbol if there are fewer symbols."""
        return min(self.blocks, self.n_data_symbols)

    def block_slots(self, index: int) -> int:
        """Slots of block ``index``: n_data_symbols dealt evenly, the remainder to the first."""
        if not 0 <= _integer("index", index) < self.block_count:
            raise ParameterError(f"block index must be in [0, {self.block_count}), got {index}")
        base, extra = divmod(self.n_data_symbols, self.block_count)
        return base + (index < extra)


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
    if len(s.power_sweep_dbm) * len(s.n_t) > MAX_POINTS:  # before any grid is built
        raise ParameterError(f"power_sweep_dbm x n_t: at most {MAX_POINTS} points, got "
                             f"{len(s.power_sweep_dbm)} powers x {len(s.n_t)} training lengths")
    for v in s.n_t:
        if v < 4 or v % 2 or v > MAX_N_T:
            raise ParameterError(f"n_t entries must be even integers in [4, {MAX_N_T}], got {v}")
    _check_axis("n_t", s.n_t)
    if not 1 <= s.n_data_symbols <= 2 ** 63 - 1:  # a point's error count is an int64
        raise ParameterError(f"n_data_symbols must be in [1, 2**63 - 1], the range of a point's "
                             f"int64 error count over its blocks, got {s.n_data_symbols}")
    try:  # all converted here, since one block covers every power
        powers = np.array([dbm_to_watts(p) for p in s.power_sweep_dbm])
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
        variance = noise_variance(s.n0_dbm_per_hz, s.bandwidth_hz)
    except ParameterError as exc:
        raise ParameterError(f"n0_dbm_per_hz/bandwidth_hz: {exc}") from None
    object.__setattr__(s, "_watts", (powers, variance))  # not a field: never compared or emitted


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


def _generators() -> list:
    """Six generators for a worker to restate as each block's streams; their seed is never read."""
    return [np.random.Generator(np.random.PCG64DXSM(0)) for _ in range(6)]


def _restate(generators, state: dict, streams: range) -> None:
    """Restate ``generators[j]``, j in ``streams``, as stream j: ``state`` advanced j * 2^64."""
    for j in streams:
        generators[j].bit_generator.state = state
        generators[j].bit_generator.advance(j << 64)


def _draw(streams, out) -> None:
    """Gain uniforms from the first stream into ``out[0]``, then normals from each next one."""
    for j, (stream, array) in enumerate(zip(streams, out)):
        (stream.standard_normal if j else stream.random)(out=array)


def _errors(decisions, x):
    """Symbol errors of (..., N) 0/1 decisions against the sent 0/1 symbols, XORed in place."""
    return np.add.reduce(np.bitwise_xor(decisions, x, out=decisions), axis=-1)


def _passes(x, nodes, powers, variance: float, uniforms, normals):
    """The frames ``x`` sends over ``nodes`` and their passes: (slice of ``powers``,
    amplitudes) pairs of as many consecutive powers as fit _PASS_ELEMENTS elements of an
    (x.size, powers, K) array, at least one, each valid until the next.  The first pass is
    drawn from ``uniforms`` and ``normals``, and each later one is rescaled from the draw's
    h * x into the front of that first pass's ``y``."""
    step = max(1, _PASS_ELEMENTS // (len(nodes) * x.size))
    frame = generate_received(x, nodes, powers[:step], variance, uniforms, normals)

    def passes():
        yield slice(0, step), frame.y
        for i in range(step, len(powers), step):
            at = slice(i, i + step)
            yield at, frame.received(powers[at], frame.y[..., :len(powers[at]), :, :])

    return frame, passes()


def _training_stats(scenario: Scenario, generators, states) -> TrainingStats:
    """(lengths, blocks, powers, K) statistics of a group's training lengths, from the ones
    pool's gains and noise and the zeros pool's noise, max(n_t)/2 slots a row, drawn here
    from ``generators`` restated at each row's entry of ``states``.  Length n_t reads the
    first n_t/2 slots of each pool, in one compute_training_stats call per pass of the ones
    pool.  The zeros pool draws no gains: its amplitudes are |noise| at every power."""
    nodes, lengths, (powers, variance) = scenario.nodes, scenario.n_t, scenario._watts
    pools = np.empty((3, len(states), lengths[-1] // 2, len(nodes)))
    for row, state in enumerate(states):
        _restate(generators, state, range(_ONES_GAINS, len(generators)))
        _draw(generators[_ONES_GAINS:], pools[:, row])
    _, passes = _passes(np.ones(pools.shape[1:3], dtype=np.int64), nodes, powers, variance,
                        *pools[:2])
    zeros = generate_noise(variance, pools[2])
    zeros = np.abs(zeros, out=zeros)[:, None]  # one row for every power
    stats = TrainingStats(*np.empty((5, len(lengths), len(zeros), len(powers), len(nodes))))
    for at, y in passes:
        ones = np.abs(y, out=y)
        for i, n_t in enumerate(lengths):
            found = compute_training_stats(ones[..., :n_t // 2], zeros[..., :n_t // 2])
            for name, value in vars(found).items():
                getattr(stats, name)[i, :, at] = value
    return stats


def _groups(scenario: Scenario, first: int, stop: int):
    """Training groups of blocks ``first`` to ``stop`` - 1, made as asked for: lists of
    consecutive (blocks, slots) data groups, as many as fit one pass of their blocks' (powers,
    K, max(n_t)/2) ones pools, at least one, each consecutive blocks of equal slots, as many as
    fit one pass, at least one."""
    row, pool, run = len(scenario.power_sweep_dbm) * len(scenario.nodes), scenario.n_t[-1] // 2, []
    while first < stop:
        slots = scenario.block_slots(first)
        end = min(stop, first + max(1, _PASS_ELEMENTS // (row * max(slots, pool))))
        if scenario.block_slots(end - 1) != slots:  # the first blocks have one slot more
            end = scenario.n_data_symbols % scenario.block_count
        if run and (end - run[0][0].start) * row * pool > _PASS_ELEMENTS:
            yield run
            run = []
        run.append((range(first, end), slots))
        first = end
    if run:
        yield run


def _train(scenario: Scenario, blocks: range, generators: list) -> tuple:
    """(blocks, generators, states, tables) of a training group: the six ``generators``, each
    block's stream-0 PCG64DXSM state, and the margin tables of every row's _training_stats on
    a block axis, or None if the scenario counts no NONCOHERENT technique."""
    states = [np.random.PCG64DXSM(np.random.SeedSequence(
        scenario.seed, spawn_key=(STREAM_VERSION, block))).state for block in blocks]
    trained = any(technique in NONCOHERENT for technique in scenario.techniques)
    tables = margin_tables(_training_stats(scenario, generators, states)) if trained else None
    return blocks, generators, states, tables


def _run_block(scenario: Scenario, blocks: range, n_symbols: int, workspace,
               trained=None) -> np.ndarray:
    """(blocks, points, techniques) error counts, points in grid order, of a data group of
    (train, transmit) blocks of ``n_symbols`` slots, on their rows of ``trained``, the _train
    of a group that holds them (by default their own): _chunk_errors on each chunk of at most
    _CHUNK_ELEMENTS (K, slots) elements a row, the first restating each row's data streams and
    a later one continuing its one row's, so a group of many blocks must fit one chunk, else
    ParameterError.  Combination on zero noise raises DegenerateTrainingError."""
    group, generators, states, tables = trained or _train(scenario, blocks, _generators())
    k, at = len(scenario.nodes), slice(blocks.start - group.start, blocks.stop - group.start)
    tables, chunk = tables and tables.rows((slice(None), at)), max(1, _CHUNK_ELEMENTS // k)
    if len(blocks) > 1 and n_symbols > chunk:
        raise ParameterError(f"a {len(blocks)}-block group must fit one chunk of {chunk} slots")
    counts = sum(_chunk_errors(scenario, generators, [None] if start else states[at],
                               min(chunk, n_symbols - start), tables, workspace)
                 for start in range(0, n_symbols, chunk))
    return counts.transpose(1, 2, 0, 3).reshape(len(blocks), -1, len(scenario.techniques))


def _chunk_errors(scenario: Scenario, generators, states, slots: int, tables, workspace):
    """(lengths, blocks, powers, techniques) error counts of the next ``slots`` data symbols
    of each row, drawn here from ``generators``, restated first at a row's ``states`` entry if
    it is not None, in passes: MRC on the signed y and the chunk's own MRC tables, then, on |y|
    taken in place and the pass's slice of ``tables`` if any, deviation, both once for all
    lengths, then probability and combination, which reuses its hard decision, once a length."""
    (powers, variance), techniques = scenario._watts, scenario.techniques
    x = np.empty((len(states), slots), np.int64)
    data = np.empty((2, len(states), slots, len(scenario.nodes)))
    for row, state in enumerate(states):
        if state is not None:  # else the one row continues its streams from the last chunk
            _restate(generators, state, range(_ONES_GAINS))
        x[row] = generate_data_symbols(slots, generators[_SYMBOLS])
        _draw(generators[_GAINS:_ONES_GAINS], data[:, row])
    frame, passes = _passes(x, scenario.nodes, powers, variance, *data)
    x = x[:, None]  # against each power's decisions
    coherent = mrc_tables(frame.h[:, None], powers) if MRC in techniques else None
    counts = np.empty((len(scenario.n_t), len(x), len(powers), len(techniques)), dtype=np.int64)
    others = [(techniques.index(t), t) for t in (PROBABILITY, COMBINATION) if t in techniques]
    for at, y in passes:
        if coherent is not None:  # MRC needs no training: one count serves every length
            decisions = mrc_detect(y, coherent.rows(at), workspace=workspace)
            counts[:, :, at, techniques.index(MRC)] = _errors(decisions, x)
        if tables is not None:  # else the group drew no training
            amplitudes = np.abs(y, out=y)  # MRC has read the signed y
            rows = tables.rows((slice(None), slice(None), at))
            if DEVIATION in techniques:  # one node sum against every length's th_sum
                decisions = detect(DEVIATION, amplitudes, rows, workspace)
                counts[:, :, at, techniques.index(DEVIATION)] = _errors(decisions, x)
            lengths = [rows.rows(i) for i in range(len(scenario.n_t))]
            for (i, length), (j, technique) in product(enumerate(lengths), others):
                counts[i, :, at, j] = _errors(detect(technique, amplitudes, length, workspace), x)
    return counts


def _run_blocks(scenario: Scenario, first: int, stop: int) -> np.ndarray:
    """Summed error counts of blocks ``first`` to ``stop`` - 1: each training group of their
    _groups trained, then its data groups run, in one workspace and on one set of _generators,
    under a ufunc buffer of _UFUNC_BUFFER elements; the caller's buffer is restored after."""
    workspace, generators, total = Workspace(), _generators(), 0
    buffer = np.setbufsize(_UFUNC_BUFFER)  # np.errstate does not restore it on numpy 1.x
    try:
        for groups in _groups(scenario, first, stop):
            trained = _train(scenario, range(groups[0][0].start, groups[-1][0].stop), generators)
            total += sum(_run_block(scenario, rows, slots, workspace, trained).sum(axis=0)
                         for rows, slots in groups)
        return total
    finally:
        np.setbufsize(buffer)


def _forked(scenario: Scenario, bounds: list) -> list:
    """Summed error counts of each run of blocks ``bounds[i]`` to ``bounds[i + 1]`` - 1, each
    run in a forked child that pickles its counts, or the exception it raised, into a pipe and
    leaves through os._exit, so it never returns into the caller's code.  The parent reads the
    pipes in order and re-raises a child's exception, or a ChildProcessError for a worker that
    cannot start or exits non-zero; every child still running is killed, all reaped at the end."""
    children = {}  # pid: the read end of its pipe, in fork order
    try:
        for first, stop in zip(bounds, bounds[1:]):
            ends = ()
            try:
                read, write = ends = os.pipe()
                pid = os.fork()
            except OSError as exc:  # as EAGAIN or ENOMEM: close what this attempt opened
                for end in ends:
                    os.close(end)
                raise ChildProcessError(
                    f"could not start a worker process: {exc.strerror}") from exc
            if pid == 0:
                status = 1
                try:
                    try:
                        result = _run_blocks(scenario, first, stop)
                    except BaseException as exc:
                        result = exc
                    with open(write, "wb") as pipe:
                        pipe.write(pickle.dumps(result))
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = open(read, "rb")
            os.close(write)
        totals = []
        for pid, pipe in list(children.items()):
            with pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:  # what it wrote may be cut short
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise ChildProcessError(f"worker process {pid} ended without sending its "
                                        f"counts ({how})")
            result = pickle.loads(payload)
            if isinstance(result, BaseException):
                raise result
            totals.append(result)
        return totals
    finally:
        if children:  # left running by an error or an interrupt
            from signal import SIGKILL  # here, since loading signal adds 0.1 MB to every run
        for pid, pipe in children.items():
            pipe.close()
            try:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            except OSError:  # reaped already
                pass


def run_scenario(scenario: Scenario, jobs: int = 1) -> list[BerPoint]:
    """BER of every (technique, power, n_t) point of the scenario's grid.

    Blocks are independent; with ``jobs`` > 1 they run in forked worker processes, no more
    than ``jobs``, the blocks or the CPUs, each summing the counts of one contiguous run of
    blocks (see _forked); where os.fork is missing, they run in this process.  A worker's
    exception is raised here with its own type, and ChildProcessError names how a worker
    that did not exit 0 ended.  Every point reports ``n_data_symbols`` symbols, and the
    output is sorted by (technique, power, n_t).

    Combination needs nonzero training references, and the zeros half-frame's
    mean |noise| A0 is exactly 0 in every block when N0*B/2 is 0, positive
    otherwise.  So with zero noise each combination point is a RuntimeWarning and
    omitted, and [] is returned, drawing nothing, when no other technique is left.
    """
    if _integer("jobs", jobs) < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs!r}")
    grid = list(product(scenario.power_sweep_dbm, scenario.n_t))
    if COMBINATION in scenario.techniques and scenario._watts[1] == 0.0:
        for power, n_t in grid:
            warnings.warn(f"skipping BER point: technique {COMBINATION!r} at {power} dBm, "
                          f"n_t={n_t}: all {scenario.block_count} training blocks were degenerate",
                          RuntimeWarning, stacklevel=2)
        techniques = tuple(t for t in scenario.techniques if t != COMBINATION)
        if not techniques:
            return []
        scenario = replace(scenario, techniques=techniques)
    workers = min(jobs, scenario.block_count, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    bounds = [scenario.block_count * i // workers for i in range(workers + 1)]
    errors = _run_blocks(scenario, *bounds) if workers == 1 else sum(_forked(scenario, bounds))
    points = [make_ber_point(technique, power, n_t, int(errors[i, j]), scenario.n_data_symbols)
              for (i, (power, n_t)), (j, technique) in product(enumerate(grid),
                                                               enumerate(scenario.techniques))]
    return sorted(points, key=lambda p: (p.technique, p.tx_power_dbm, p.n_t))
