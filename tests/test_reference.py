"""An executable specification: every count of run_scenario restated slot by slot.

The reference below shares no code with the block path.  It restates each block's six
streams from the keying in montecarlo's docstring, draws the whole block at once, slot-major,
forms y = sqrt(P) * (h * x) + sigma * n at every power, takes each training length's
statistics from the first n_t/2 slots of the two training pools, and decides each slot by the
margins in the detectors docstring: the fused margin sum_k m_k > 0, and MRC as
sum_k h_k * y_k > (sqrt(P) / 2) * sum_k h_k**2.  No pass, group, chunk, table, bit select or
workspace is involved, so a count the two disagree on is a fault in one of them.
"""

from dataclasses import replace

import numpy as np
import pytest

from bccsim import Scenario, dbm_to_watts, noise_variance, preset, run_scenario
from bccsim.montecarlo import STREAM_VERSION


def block_streams(seed: int, block: int) -> list:
    """Block ``block``'s streams: one PCG64DXSM keyed by (STREAM_VERSION, block) under the
    seed, stream j advanced j * 2^64 draws.  In order: data symbols, gains and noise, then
    the ones pool's gains and noise and the zeros pool's noise."""
    key = np.random.SeedSequence(seed, spawn_key=(STREAM_VERSION, block))
    return [np.random.Generator(np.random.PCG64DXSM(key).advance(j << 64)) for j in range(6)]


def reference(s: Scenario):
    """Per (technique, power, n_t) point of ``s``: each block's errors, and each block's three
    slots nearest a tie as (slot, fused margin), nearest first.  A slot whose fused margin is
    within about 1e-9 of its summed |margins| is a tie that rounding may decide either way."""
    watts = np.array([dbm_to_watts(p) for p in s.power_sweep_dbm])
    root, sigma = np.sqrt(watts)[:, None, None], np.sqrt(noise_variance(s.n0_dbm_per_hz,
                                                                         s.bandwidth_hz))
    blocks, k, pool = min(s.blocks, s.n_data_symbols), len(s.nodes), s.n_t[-1] // 2
    counts, near = {}, {}

    def frame(x, uniforms, normals):  # gains (K, N) and amplitudes (P, K, N) from the draws
        h = np.array([node.dist.inverse_cdf(uniforms[:, i]) for i, node in enumerate(s.nodes)])
        return h, root * (h * x) + sigma * np.ascontiguousarray(normals.T)

    def count(technique, n_t, x, fused, scale):
        for power, row, size in zip(s.power_sweep_dbm, fused, scale):
            point = (technique, power, n_t)
            counts.setdefault(point, []).append(int(np.count_nonzero((row > 0) != x)))
            nearest = np.argsort(np.abs(row) / size, kind="stable")[:3]
            near.setdefault(point, []).append([(int(i), float(row[i])) for i in nearest])

    for b in range(blocks):
        n = s.n_data_symbols // blocks + (b < s.n_data_symbols % blocks)
        g = block_streams(s.seed, b)
        x = (g[0].random(n) < 0.5).astype(np.int64)
        h, y = frame(x, g[1].random((n, k)), g[2].standard_normal((n, k)))
        if "mrc" in s.techniques:
            matched = (h * y).sum(axis=-2) - np.sqrt(watts)[:, None] / 2 * (h * h).sum(axis=0)
            for n_t in s.n_t:
                count("mrc", n_t, x, matched, np.abs(h * y).sum(axis=-2))
        _, ones = frame(1, g[3].random((pool, k)), g[4].standard_normal((pool, k)))
        zeros = np.abs(sigma * np.ascontiguousarray(g[5].standard_normal((pool, k)).T))
        amplitudes = np.abs(y)
        for n_t in s.n_t:
            one, zero, low = np.abs(ones[..., :n_t // 2]), zeros[..., :n_t // 2], 2 / n_t
            a1, a0 = one.mean(axis=-1)[..., None], zero.mean(axis=-1)[..., None]
            th = 0.5 * (a1 + a0)
            p11 = np.clip((one >= th).mean(axis=-1), low, 1 - low)[..., None]
            p00 = np.clip(1 - (zero >= th).mean(axis=-1), low, 1 - low)[..., None]
            detected = amplitudes >= th
            l1 = np.where(detected, np.log(p11), np.log1p(-p11))
            l0 = np.where(detected, np.log1p(-p00), np.log(p00))
            e1, e0 = (amplitudes - a1) ** 2, (a0 - amplitudes) ** 2
            margins = {"probability": l1 - l0, "deviation": 2 * (amplitudes - th),
                       "combination": (-e1 / a1 + e1 / th * l1) - (-e0 / a0 + e0 / th * l0)}
            for technique in set(margins) & set(s.techniques):
                m = margins[technique]
                count(technique, n_t, x, m.sum(axis=-2), np.abs(m).sum(axis=-2))
    return counts, near


NINE = preset("fig6").nodes
RUNS = {
    "fig4": replace(preset("fig4"), n_data_symbols=10_050, seed=3),
    "fig6-one-slot": replace(preset("fig6"), n_data_symbols=150, seed=3),
    "fig7": replace(preset("fig7"), n_data_symbols=36_000, blocks=3, seed=3),
    "mrc": Scenario(nodes=NINE, power_sweep_dbm=(-6.0, 10.0), techniques=("mrc",),
                    n_data_symbols=30_000, seed=3),
    "deviation-lengths": Scenario(nodes=NINE, n_t=(10, 50, 100), power_sweep_dbm=(-6.0, 10.0),
                                  techniques=("deviation",), n_data_symbols=150, seed=3),
}


def counted(scenario, jobs, blocks):
    """run_scenario's errors per point over the first ``blocks`` blocks of ``scenario``, run
    alone: with those blocks' symbols dealt over as many blocks, each keeps its size."""
    base, extra = divmod(scenario.n_data_symbols, min(scenario.blocks, scenario.n_data_symbols))
    symbols = blocks * base + min(blocks, extra)
    points = run_scenario(replace(scenario, blocks=blocks, n_data_symbols=symbols), jobs=jobs)
    return {(p.technique, p.tx_power_dbm, p.n_t): p.error_count for p in points}


@pytest.mark.parametrize("name", RUNS)
def test_every_count_is_the_references(name):
    # fig4: 50 blocks of 101 slots, then 50 of 100; fig6 at K = 9: 50 two-slot blocks, then 50
    # one-slot ones; fig7: seven lengths on three 12,000-slot blocks, each three chunks; MRC
    # alone; deviation alone at three lengths on one- and two-slot blocks.  A point that
    # differs is bisected over runs of the first blocks down to a block that differs
    scenario = RUNS[name]
    counts, near = reference(scenario)
    blocks = min(scenario.blocks, scenario.n_data_symbols)
    for jobs in (1, 2):
        got = counted(scenario, jobs, blocks)
        assert set(got) == set(counts)
        for point, per_block in counts.items():
            if got[point] == sum(per_block):
                continue
            agree, differ = 0, blocks  # the first blocks that agree, and that differ
            while differ - agree > 1:
                middle = (agree + differ) // 2
                same = counted(scenario, jobs, middle)[point] == sum(per_block[:middle])
                agree, differ = (middle, differ) if same else (agree, middle)
            pytest.fail(f"--jobs {jobs} {point}: {got[point]} errors, the reference "
                        f"{sum(per_block)}; block {agree} has {per_block[agree]} in the "
                        f"reference, whose slots nearest a tie, with their fused margins, are "
                        f"{near[point][agree]}")
