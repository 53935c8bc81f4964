"""Correctness check of one sweep's CSV against a committed reference table.

The reference for a workload is REPLICATES independent runs of the same
preset at the same per-point budget, on seeds disjoint from every
workload seed (see make_reference.py).  For each point it gives the
mean BER over all replicates (the reference value, at REPLICATES times
the budget) and the spread of the replicate BERs.  That spread is the
between-block spread of the errors aggregated over one run's blocks, so
it includes the correlation that training puts between errors in one
block, which the CSV's binomial ``ci95`` leaves out.  On the high side
the band is wider by one block's worth of errors at OUTLIER_BER, because
a block whose training went badly wrong is too rare for the replicates
to show but common enough to turn up in a series of runs.

The check reads only the CSV and the reference, never the random stream,
so a run on a different stream passes as long as its BERs are right.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# Replicate runs per reference point.  Z was calibrated on this many
# (README.md), so a table with another count is refused.
REPLICATES = 40
# Half-width of the acceptance band in replicate standard deviations.
Z = 6.0
# Allowance in errors on top of the band; it keeps points whose reference
# saw no or very few errors from failing on a handful of errors.
FLOOR_ERRORS = 5
# Error rate of one block whose training went badly wrong, allowed once
# per run on the high side.  On fig7 at n_t = 10, combination, 20,000
# blocks of 10,000 slots had 0.9 errors each on average, but five had 84
# to 233 (2.3%): about one sweep in 40 has such a block, which puts its
# BER several replicate deviations above the mean.  0.04 is well above
# the worst block seen.
OUTLIER_BER = 0.04

HEADER = "technique,tx_power_dbm,n_t,symbols,errors"


@dataclass(frozen=True)
class RefPoint:
    """Replicate summary of one (technique, power, n_t) point."""

    mean: float
    sd: float

    def band(self, budget: int, blocks: int) -> tuple[float, float]:
        """Accepted BER range for a run of ``budget`` symbols in ``blocks`` blocks."""
        half = Z * self.sd * math.sqrt(1.0 + 1.0 / REPLICATES) + FLOOR_ERRORS / budget
        return self.mean - half, self.mean + half + OUTLIER_BER / blocks


def format_reference(budget: int, errors_by_key: dict) -> str:
    """Reference file text: one row per point, replicate error counts joined by ';'."""
    lines = [HEADER]
    for (technique, power, n_t), errors in sorted(errors_by_key.items()):
        lines.append(f"{technique},{power!r},{n_t},{budget},{';'.join(map(str, errors))}")
    return "\n".join(lines) + "\n"


def load_reference(path, budget: int) -> dict:
    """Map (technique, power, n_t) to its RefPoint for runs of ``budget`` symbols."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError(f"{path}: header is not {HEADER!r}")
    reference = {}
    for line in lines[1:]:
        technique, power, n_t, symbols, errors = line.split(",")
        if int(symbols) != budget:
            raise ValueError(f"{path}: replicates ran {symbols} symbols, workload runs {budget}")
        bers = [int(e) / budget for e in errors.split(";")]
        if len(bers) != REPLICATES:
            raise ValueError(f"{path}: {len(bers)} replicates, the tolerance assumes {REPLICATES}")
        reference[(technique, float(power), int(n_t))] = RefPoint(
            mean=statistics.fmean(bers), sd=statistics.stdev(bers))
    return reference


def failed_points(points, reference: dict, budget: int, blocks: int) -> dict:
    """Check parsed CSV points; returns {key: reason} for every failed point.

    A point fails when its row is missing, repeated or not expected, when
    it ran a different number of symbols than the budget (a degenerate
    block shrinks it), or when its BER is outside the point's band.
    """
    failures = {}
    seen = set()
    for p in points:
        key = (p.technique, p.tx_power_dbm, p.n_t)
        ref = reference.get(key)
        if key in seen:
            failures[key] = "row repeated"
        elif ref is None:
            failures[key] = "row not expected"
        elif p.symbol_count != budget:
            failures[key] = f"ran {p.symbol_count} symbols, budget is {budget}"
        else:
            low, high = ref.band(budget, blocks)
            if not low <= p.ber <= high:
                failures[key] = f"BER {p.ber:.6g} is outside [{low:.6g}, {high:.6g}]"
        seen.add(key)
    for key in reference.keys() - seen:
        failures[key] = "row missing"
    return failures
