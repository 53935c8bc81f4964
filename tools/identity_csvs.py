"""Write the byte-identity CSVs of the `bccsim` on PYTHONPATH into OUT_DIR.

    PYTHONPATH=src python3 tools/identity_csvs.py OUT_DIR

The set is fixed at 31 CSVs: each of the 14 presets at seeds 1 and 7 with
30,000 symbols, fig6 at seed 3 with 10^5 symbols, fig7 at seed 3 with its own
budget and fig4 at seed 3 with 10^4 symbols.  Run it against two trees and
``diff -r`` the outputs: a change that keeps the random stream must keep every
byte.  Each CSV goes through ``bccsim.cli.main``, as the command line writes it.
"""

from __future__ import annotations

import os
import sys

from bccsim.cli import main
from bccsim.presets import PRESET_NAMES

RUNS = ([(name, seed, 30_000) for seed in (1, 7) for name in PRESET_NAMES]
        + [("fig6", 3, 100_000), ("fig7", 3, None), ("fig4", 3, 10_000)])


def write_all(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, seed, symbols in RUNS:
        budget = [] if symbols is None else ["--symbols", str(symbols)]
        path = os.path.join(out_dir, f"{name}-seed{seed}-{symbols or 'preset'}.csv")
        if main(["run", "--preset", name, "--seed", str(seed), *budget, "--out", path]):
            raise SystemExit(f"bccsim run failed for {path}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT_DIR")
    write_all(sys.argv[1])
