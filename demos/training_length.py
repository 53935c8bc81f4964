#!/usr/bin/env python3
"""How much training is enough?  BER vs the number of training slots.

Weak-channel group (K=6) at a fixed 10 dBm transmit power, training
length swept from 10 to 1000 slots.  The empirical probabilities keep
gaining resolution with more slots (their granularity is 2/n_t), so the
probability technique improves steadily.  The two sample-average
references converge after a few tens of slots, so the deviation
technique is almost flat.  The combination technique is the best of the
three at every training length, already at n_t = 10.
"""

from dataclasses import replace

from bccsim import preset, run_scenario

scenario = replace(preset("fig7"), n_data_symbols=200_000, seed=3)
points = {(p.technique, p.n_t): p for p in run_scenario(scenario)}

print("BER at 10 dBm, weak-channel group (K=6), 200k symbols/point\n")
print(f"{'n_t':>6} " + " ".join(f"{t:>12}" for t in scenario.techniques))
for n_t in scenario.n_t:
    row = " ".join(f"{points[(t, n_t)].ber:>12.2e}" for t in scenario.techniques)
    print(f"{n_t:>6d} {row}")
