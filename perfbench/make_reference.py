"""Regenerate the reference tables that check.py compares sweeps against.

    python3 perfbench/make_reference.py

For every (preset, budget) pair among the workloads this runs the CLI
check.REPLICATES times at ``--jobs 2``, on seeds REFERENCE_SEED_BASE + i
that no workload seed can take, and writes the per-replicate error counts of every point
to perfbench/reference/<preset>-<budget>.csv.  Run it only when a
workload's preset or budget changes: the tables are the fixed oracle
that later versions of the simulator are checked against.
"""

from __future__ import annotations

import sys
import tempfile
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (REFERENCE_DIR, REFERENCE_SEED_BASE, WORKLOADS, cli_args,  # noqa: E402
                    import_bccsim, reference_path, resolved_scenario)
from check import REPLICATES, format_reference  # noqa: E402


def main() -> int:
    import_bccsim()
    from bccsim.cli import main as cli_main, parse_csv

    REFERENCE_DIR.mkdir(exist_ok=True)
    done = set()
    for workload in WORKLOADS.values():
        budget = resolved_scenario(workload, 0).n_data_symbols
        path = reference_path(workload, budget)
        if path in done:
            continue
        errors = defaultdict(list)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "sweep.csv"
            for i in range(REPLICATES):
                argv = cli_args(workload, REFERENCE_SEED_BASE + i, 2, out)
                if cli_main(argv) != 0:
                    raise SystemExit(f"bccsim {' '.join(argv)} failed")
                for p in parse_csv(out.read_text()):
                    if p.symbol_count != budget:
                        raise SystemExit(f"degenerate blocks at {p}; pick another budget")
                    errors[(p.technique, p.tx_power_dbm, p.n_t)].append(p.error_count)
                print(f"{path.name}: replicate {i + 1}/{REPLICATES}", file=sys.stderr)
        path.write_text(format_reference(budget, errors))
        done.add(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
