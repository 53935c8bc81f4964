"""Write the byte-identity CSVs of the `bccsim` on PYTHONPATH into OUT_DIR.

    PYTHONPATH=src python3 tools/identity_csvs.py OUT_DIR

The set is fixed at 33 CSVs: each of the 14 presets at seeds 1 and 7 with
30,000 symbols, fig6 at seed 3 with 10^5 symbols, fig7 at seed 3 with its own
budget, fig4 at seed 3 with 10^4 symbols, and two ``--config`` documents at
seed 3 over the nine nodes and two powers.  The first has ``n_t`` 10, 1,000
and 4,000 and 3,000 symbols, whose longest training length is longer than a
pass, so each block reads its training pools one power at a time; the second
runs MRC alone on 30,000 symbols.  Run it against two trees and ``diff -r``
the outputs: a change that keeps the random stream must keep every byte.  Each CSV goes
through ``bccsim.cli.main``, as the command line writes it.
"""

from __future__ import annotations

import os
import sys
import tempfile

from bccsim.cli import main
from bccsim.presets import PRESET_NAMES

RUNS = ([(name, seed, 30_000) for seed in (1, 7) for name in PRESET_NAMES]
        + [("fig6", 3, 100_000), ("fig7", 3, None), ("fig4", 3, 10_000)])

# The --config runs, each written as the CSV it is keyed by.
CONFIGS = {
    "config-seed3.csv": ("nodes: [f1, f2, f3, f4, f5, f6, f7, f8, f9]\n"
                         "n_t: [10, 1000, 4000]\n"
                         "power_sweep_dbm: [-6, 10]\n"
                         "n_data_symbols: 3000\n"
                         "seed: 3\n"),
    "config-mrc-seed3.csv": ("nodes: [f1, f2, f3, f4, f5, f6, f7, f8, f9]\n"
                             "power_sweep_dbm: [-6, 10]\n"
                             "techniques: [mrc]\n"
                             "n_data_symbols: 30000\n"
                             "seed: 3\n"),
}


def _run(args: list, path: str) -> None:
    if main(["run", *args, "--out", path]):
        raise SystemExit(f"bccsim run failed for {path}")


def write_all(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, seed, symbols in RUNS:
        budget = [] if symbols is None else ["--symbols", str(symbols)]
        path = os.path.join(out_dir, f"{name}-seed{seed}-{symbols or 'preset'}.csv")
        _run(["--preset", name, "--seed", str(seed), *budget], path)
    with tempfile.TemporaryDirectory() as scratch:
        config = os.path.join(scratch, "config.yaml")
        for name, document in CONFIGS.items():
            with open(config, "w") as handle:
                handle.write(document)
            _run(["--config", config], os.path.join(out_dir, name))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT_DIR")
    write_all(sys.argv[1])
