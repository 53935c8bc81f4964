#!/usr/bin/env python3
"""Distributed reception: node groups and the robustness of the combination rule.

Runs the three group scenarios (strong-only K=3, weak-only K=6, and the
realistic mixed K=9) over a short power sweep.  The probability
technique degrades when unreliable weak-channel statistics pollute the
fused likelihood, the deviation technique suffers from high-variance
strong channels, and the combination of the two stays near the best of
both in every scenario.
"""

from dataclasses import replace

from bccsim import preset, run_scenario

SWEEP = tuple(float(p) for p in range(-10, 31, 5))

for name in ("fig5-strong", "fig5-weak", "fig6"):
    scenario = replace(preset(name), power_sweep_dbm=SWEEP, n_data_symbols=100_000, seed=2)
    label = {"fig5-strong": "strong channels only (K=3)",
             "fig5-weak": "weak channels only (K=6)",
             "fig6": "all nine channels (K=9)"}[name]
    techniques = [t for t in scenario.techniques if t != "mrc"]
    points = {(p.technique, p.tx_power_dbm): p for p in run_scenario(scenario)}
    print(f"\n{label}")
    print(f"{'P [dBm]':>8} " + " ".join(f"{t:>12}" for t in techniques))
    for power in SWEEP:
        row = " ".join(f"{points[(t, power)].ber:>12.2e}" for t in techniques)
        print(f"{power:>8.0f} {row}")
