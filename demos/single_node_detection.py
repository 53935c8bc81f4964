#!/usr/bin/env python3
"""Single receive node on the best channel (f9): all detectors compared.

Sweeps transmit power and prints BER for the three noncoherent
techniques next to the coherent MRC bound.  Three effects to look for:

* probability and deviation produce the same curve (with one node both
  reduce to the same amplitude-threshold test) and their BER saturates
  at high power: a deep per-slot fade can always push the amplitude of
  a "1" below the trained threshold.
* the combination technique keeps improving with power; its quadratic
  deviation scaling moves the effective decision boundary far below the
  threshold amplitude, so deep fades stop causing errors.
* MRC with perfect channel knowledge is error-free almost immediately;
  its threshold adapts per slot.
"""

from dataclasses import replace

from bccsim import preset, run_scenario

scenario = replace(preset("fig4"),
                   power_sweep_dbm=tuple(range(-20, 31, 5)),
                   n_data_symbols=200_000,
                   seed=1)

points = {(p.technique, p.tx_power_dbm): p for p in run_scenario(scenario)}

print("BER on channel f9, single node, 50 training slots, 200k symbols/point\n")
print(f"{'P [dBm]':>8} {'probability':>12} {'deviation':>12} {'combination':>12} {'mrc':>12}")
for power in scenario.power_sweep_dbm:
    row = [points[(tech, power)].ber
           for tech in ("probability", "deviation", "combination", "mrc")]
    print(f"{power:>8.0f} " + " ".join(f"{ber:>12.2e}" for ber in row))
