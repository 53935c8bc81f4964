"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``[acceptance NN] ... PASS/FAIL`` line (visible
with ``pytest -s``) and asserts the criterion at its stated tolerance.
All randomness is seeded, so every check is deterministic.

Curve-shape criteria are Monte-Carlo estimates at desk scale (1e5
symbols per point); comparisons between estimated rates carry the
binomial 95% half-widths reported with each point.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from bccsim import (
    STRONG_NODES,
    WEAK_NODES,
    Scenario,
    TrainingStats,
    compute_training_stats,
    detect,
    margins,
    preset,
    registry_entry,
    run_scenario,
    table1_registry,
)
from bccsim.cli import main

SYMBOLS = 100_000


def _report(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {criterion:02d}] {description}: {status}")
    assert passed, f"criterion {criterion} failed: {description} {detail}".rstrip()


def _by_key(points):
    return {(p.technique, p.tx_power_dbm, p.n_t): p for p in points}


def test_criterion_01_threshold_is_half_frame_midpoint():
    rng = np.random.default_rng(101)
    worst = 0.0
    worst_direct = 0.0
    frames = 0
    for n_t in (4, 10, 50, 128):
        y = rng.lognormal(mean=0.0, sigma=2.0, size=(2500, n_t))
        stats = compute_training_stats(y[:, :n_t // 2], y[:, n_t // 2:])
        rel = np.abs(stats.a_th - 0.5 * (stats.a_one + stats.a_zero)) / stats.a_th
        worst = max(worst, float(rel.max()))
        direct = np.abs(y).mean(axis=1)
        worst_direct = max(worst_direct, float(np.max(np.abs(stats.a_th - direct) / direct)))
        frames += y.shape[0]
    _report(1, "A_th = (A_1 + A_0)/2 over 10^4 random frames", frames == 10_000 and worst <= 1e-15,
            f"(worst rel {worst:.2e})")
    # the midpoint form also reproduces the all-slot mean amplitude
    assert worst_direct < 1e-12


def test_criterion_02_single_node_equivalence():
    rng = np.random.default_rng(202)
    target = 100_000
    raw = 4 * target
    a_one = rng.lognormal(mean=0.0, sigma=1.0, size=raw)
    a_zero = a_one * rng.uniform(0.02, 0.98, size=raw)
    lo, hi = 2.0 / 50, 1.0 - 2.0 / 50
    p11 = rng.uniform(lo, hi, size=raw)
    p00 = rng.uniform(lo, hi, size=raw)
    y = 0.5 * (a_one + a_zero) * rng.uniform(0.0, 2.5, size=raw)
    informative = p11 + p00 > 1.0
    assert informative.sum() >= target
    keep = np.flatnonzero(informative)[:target]
    stats = TrainingStats(a_th=0.5 * (a_one[keep] + a_zero[keep]), a_one=a_one[keep],
                          a_zero=a_zero[keep], p11=p11[keep], p00=p00[keep])
    y = y[keep]
    margin_p = margins("probability", y[:, None], stats)[:, 0]
    margin_d = margins("deviation", y[:, None], stats)[:, 0]
    non_tie = (margin_p != 0.0) & (margin_d != 0.0) & (y != stats.a_th)
    agree = np.array_equal(margin_p[non_tie] > 0, margin_d[non_tie] > 0)
    _report(2, "probability == deviation for K=1 on 10^5 informative non-tie inputs",
            agree and non_tie.sum() > 90_000,
            f"(non-ties {int(non_tie.sum())})")


def test_criterion_03_saturated_majority_rule():
    n_t = 50
    cap = 1.0 - 2.0 / n_t
    mismatches = []
    for k in range(1, 6):
        ones = np.ones(k)
        stats = TrainingStats(a_th=ones, a_one=1.5 * ones, a_zero=0.5 * ones,
                              p11=cap * ones, p00=cap * ones)
        for pattern in itertools.product((0, 1), repeat=k):
            y = np.where(np.array(pattern) == 1, 1.4, 0.2).astype(float)
            got = detect("probability", y[:, None], stats)[0]
            expected = 1 if sum(pattern) > k - sum(pattern) else 0
            if got != expected:
                mismatches.append((k, pattern, got))
    _report(3, "saturated probability fusion = majority vote, all 2^K patterns, K <= 5",
            not mismatches, f"{mismatches[:3]}")


def test_criterion_04_sampling_fidelity_ks():
    n = 1_000_000
    critical = math.sqrt(-math.log(0.005) / 2.0) / math.sqrt(n)
    failures = []
    for profile in table1_registry():
        rng = np.random.default_rng(4000 + profile.node_id)
        samples = np.sort(profile.dist.inverse_cdf(rng.random(n)))
        grid = profile.dist.cdf(samples)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - grid), np.max(grid - (i - 1) / n))
        if ks >= critical:
            failures.append((f"f{profile.node_id}", ks))
    _report(4, "KS of 10^6 samples vs analytic CDF at 1% significance, all nine laws",
            not failures, f"{failures}")


def test_criterion_05_single_strong_node_curve_shape():
    scenario = replace(preset("fig4"), n_data_symbols=SYMBOLS, seed=505)
    points = _by_key(run_scenario(scenario))
    violations = []
    for power in scenario.power_sweep_dbm:
        mrc = points[("mrc", power, 50)]
        for tech in ("probability", "deviation", "combination"):
            other = points[(tech, power, 50)]
            if mrc.ber > other.ber + 2.0 * (mrc.ci95 + other.ci95):
                violations.append(f"mrc above {tech} at {power} dBm")
        prob = points[("probability", power, 50)]
        dev = points[("deviation", power, 50)]
        if abs(prob.ber - dev.ber) > 2.0 * (prob.ci95 + dev.ci95):
            violations.append(f"probability/deviation disagree at {power} dBm")
    if not points[("combination", 30.0, 50)].ber < points[("probability", 30.0, 50)].ber:
        violations.append("combination not strictly below probability at 30 dBm")
    _report(5, "f9 K=1 curves: MRC lowest, prob == dev, combination wins at 30 dBm",
            not violations, f"{violations[:4]}")


def test_criterion_06_strong_weak_grouping():
    power = 10.0
    bers = {}
    for name in STRONG_NODES + WEAK_NODES:
        scenario = Scenario(nodes=(registry_entry(name),), power_sweep_dbm=(power,),
                            techniques=("probability",), n_data_symbols=SYMBOLS, seed=606)
        (point,) = run_scenario(scenario)
        bers[name] = point.ber
    strong_max = max(bers[name] for name in STRONG_NODES)
    weak_min = min(bers[name] for name in WEAK_NODES)
    _report(6, "every strong-channel BER below every weak-channel BER at 10 dBm",
            strong_max < weak_min, f"(strong max {strong_max}, weak min {weak_min})")


def test_criterion_07_combination_robustness():
    sweep = tuple(float(p) for p in range(-10, 31, 5))
    violations = []
    for label, names in (("weak K=6", WEAK_NODES), ("mixed K=9", tuple(f"f{i}" for i in range(1, 10)))):
        scenario = Scenario(nodes=tuple(registry_entry(n) for n in names),
                            power_sweep_dbm=sweep,
                            techniques=("probability", "deviation", "combination"),
                            n_data_symbols=SYMBOLS, seed=707)
        points = _by_key(run_scenario(scenario))
        for power in sweep:
            if power < 0.0:
                continue
            comb = points[("combination", power, 50)]
            best = min((points[("probability", power, 50)], points[("deviation", power, 50)]),
                       key=lambda p: p.ber)
            if comb.ber > best.ber + 2.0 * (comb.ci95 + best.ci95):
                violations.append(f"{label} at {power} dBm")
    _report(7, "combination <= min(probability, deviation) for weak K=6 and mixed K=9, power >= 0 dBm",
            not violations, f"{violations}")


def test_criterion_08_training_length_trends():
    scenario = replace(preset("fig7"), n_data_symbols=SYMBOLS, seed=808)
    points = _by_key(run_scenario(scenario))
    nts = scenario.n_t
    violations = []

    prob = [points[("probability", 10.0, nt)] for nt in nts]
    for a, b in zip(prob, prob[1:]):
        if b.ber > a.ber + 2.0 * (a.ci95 + b.ci95):
            violations.append(f"probability increases from n_t={a.n_t} to {b.n_t}")

    dev = [points[("deviation", 10.0, nt)] for nt in nts]
    dev_max = max(dev, key=lambda p: p.ber)
    dev_min = min(dev, key=lambda p: p.ber)
    allowance = 0.20 * dev_min.ber + 2.0 * (dev_max.ci95 + dev_min.ci95)
    if dev_max.ber - dev_min.ber > allowance:
        violations.append(
            f"deviation spread {dev_max.ber - dev_min.ber:.2e} exceeds {allowance:.2e}")

    for nt in nts:
        comb = points[("combination", 10.0, nt)]
        best = min((points[("probability", 10.0, nt)], points[("deviation", 10.0, nt)]),
                   key=lambda p: p.ber)
        if comb.ber > best.ber + 2.0 * (comb.ci95 + best.ci95):
            violations.append(f"combination not lowest at n_t={nt}")

    _report(8, "n_t sweep at 10 dBm weak K=6: probability down, deviation flat, combination lowest",
            not violations, f"{violations}")


def test_criterion_09_deterministic_csv(tmp_path):
    args = ["run", "--preset", "fig4", "--seed", "7", "--symbols", "2000"]
    serial_a = tmp_path / "serial_a.csv"
    serial_b = tmp_path / "serial_b.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(args + ["--jobs", "1", "--out", str(serial_a)]) == 0
    assert main(args + ["--jobs", "1", "--out", str(serial_b)]) == 0
    assert main(args + ["--jobs", "4", "--out", str(parallel)]) == 0
    same = serial_a.read_bytes() == serial_b.read_bytes() == parallel.read_bytes()
    _report(9, "identical seeds give byte-identical CSV under 1 and 4 workers", same)


def test_criterion_10_degenerate_limits():
    zero_noise = Scenario(nodes=(registry_entry("f2"),), power_sweep_dbm=(10.0,),
                          bandwidth_hz=0.0, techniques=("probability", "deviation", "mrc"),
                          n_data_symbols=10_000, seed=1010)
    noise_free = run_scenario(zero_noise)
    zero_power = Scenario(nodes=(registry_entry("f9"),), power_sweep_dbm=(float("-inf"),),
                          n_data_symbols=SYMBOLS, seed=1011)
    coin_flips = run_scenario(zero_power)
    ok_zero_noise = len(noise_free) == 3 and all(p.ber == 0.0 for p in noise_free)
    ok_zero_power = len(coin_flips) == 4 and all(abs(p.ber - 0.5) <= 0.01 for p in coin_flips)
    _report(10, "zero-noise BER exactly 0; zero-power BER 0.5 +/- 0.01 at 10^5 symbols",
            ok_zero_noise and ok_zero_power,
            f"(zero-noise {[p.ber for p in noise_free]}, zero-power {[p.ber for p in coin_flips]})")
