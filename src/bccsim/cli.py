"""Command-line front end: scenario files, figure presets, CSV emission.

Subcommands::

    bccsim run --preset fig4 --seed 7 [--symbols N] [--jobs N] [--out PATH]
    bccsim run --config scenario.yaml ...
    bccsim preset fig5-weak [--out PATH]
    bccsim registry

Every preset and scenario file is one Scenario, so ``run`` writes one
CSV and ``preset`` one YAML document that ``--config`` loads back.
``run`` emits one CSV row per BER point, sorted by (technique, power,
n_t).  Identical seeds produce byte-identical CSV regardless of the
worker count.  A bad scenario, an unreadable ``--config`` file, an unwritable
``--out`` path or a block too big for memory exits 2, naming the keys or flag.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, replace

from .channels import registry_name, table1_registry
from .config import dumps_scenario, load_scenario
from .errors import ConfigError, DegenerateTrainingError, ParameterError
from .montecarlo import BerPoint, run_scenario
from .presets import PRESET_NAMES, preset

__all__ = ["main", "format_csv", "parse_csv", "CSV_HEADER"]

CSV_HEADER = "technique,tx_power_dbm,n_t,symbols,errors,ber,ci95"


def format_csv(points) -> str:
    """Render BER points as CSV, sorted by (technique, power, n_t).

    Floats are written with repr so every row re-parses to the exact
    in-memory value.
    """
    rows = sorted(points, key=lambda p: (p.technique, p.tx_power_dbm, p.n_t))
    lines = [CSV_HEADER]
    for p in rows:
        lines.append(f"{p.technique},{p.tx_power_dbm!r},{p.n_t},"
                     f"{p.symbol_count},{p.error_count},{p.ber!r},{p.ci95!r}")
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[BerPoint]:
    """Inverse of format_csv."""
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"CSV header mismatch; expected {CSV_HEADER!r}")
    points = []
    for line in lines[1:]:
        technique, power, n_t, symbols, errors, ber, ci95 = line.split(",")
        points.append(BerPoint(technique=technique, tx_power_dbm=float(power),
                               n_t=int(n_t), error_count=int(errors),
                               symbol_count=int(symbols), ber=float(ber),
                               ci95=float(ci95)))
    return points


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateTrainingError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bccsim",
        description="Monte-Carlo BER simulator for noncoherent OOK detection "
                    "over body-channel links")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and emit BER results as CSV")
    run.add_argument("--config", metavar="PATH", help="scenario YAML document")
    run.add_argument("--preset", metavar="NAME",
                     help=f"figure preset, one of: {', '.join(PRESET_NAMES)}")
    run.add_argument("--seed", type=int, metavar="U64", help="override the scenario seed")
    run.add_argument("--symbols", type=int, metavar="N",
                     help="override the per-point symbol budget")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes forked for the run (default: 1; serial where "
                          "os.fork does not exist)")
    run.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")

    pre = sub.add_parser("preset", help="print a preset as an editable scenario document")
    pre.add_argument("name", metavar="NAME", help=f"one of: {', '.join(PRESET_NAMES)}")
    pre.add_argument("--out", metavar="PATH", help="write YAML here instead of stdout")

    sub.add_parser("registry", help="list the registry channel models")
    return parser


def _dispatch(args) -> int:
    if args.command == "registry":
        _write(_registry_table(), None)
        return 0
    if args.command == "preset":
        _write(dumps_scenario(preset(args.name)), args.out)
        return 0
    return _run_command(args)


def _registry_table() -> str:
    lines = ["name,family,parameters,condition"]
    for profile in table1_registry():
        lines.append(f"{registry_name(profile)},{profile.dist.family},"
                     f"{';'.join(repr(p) for p in astuple(profile.dist))},{profile.condition}")
    return "\n".join(lines) + "\n"


def _run_command(args) -> int:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    if args.config:
        try:
            scenario = load_scenario(args.config)
        except (OSError, UnicodeDecodeError) as exc:
            raise _unusable("--config", args.config, exc) from None
    else:
        scenario = preset(args.preset)
    if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ConfigError(f"--out {args.out}: no such directory")

    overrides = {"seed": args.seed, "n_data_symbols": args.symbols}
    scenario = replace(scenario, **{k: v for k, v in overrides.items() if v is not None})
    try:
        points = run_scenario(scenario, jobs=args.jobs)
    except MemoryError:  # a block's arrays are sized by these keys, not by the budget
        raise ParameterError(f"nodes, n_t, power_sweep_dbm: a block with len(nodes) = "
                             f"{len(scenario.nodes)}, max(n_t) = {scenario.n_t[-1]} and "
                             f"len(power_sweep_dbm) = {len(scenario.power_sweep_dbm)} does not "
                             "fit in memory") from None
    if not points:
        raise DegenerateTrainingError("no BER points produced (all points degenerate)")
    _write(format_csv(points), args.out)
    return 0


def _unusable(flag: str, path: str, exc: Exception) -> ConfigError:
    reason = exc.strerror if isinstance(exc, OSError) else str(exc)
    return ConfigError(f"{flag} {path}: {reason}")


def _write(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise _unusable("--out", out, exc) from None


if __name__ == "__main__":
    raise SystemExit(main())
