"""Scenario config documents: YAML loading and round-trip emission.

This is the one module that reads or writes YAML.

A document is a single mapping.  Nodes are registry names ("f1" .. "f9")
or inline mappings with an explicit family and parameter list::

    nodes:
      - f1
      - {family: burr, params: [4.71e-7, 2.43, 5.61], condition: weak, node_id: 11}
    n_t: 50                                            # or a list of training lengths
    power_sweep_dbm: {start: -20, stop: 30, step: 2}   # or an explicit list
    n_data_symbols: 1000000
    techniques: [probability, deviation, combination, mrc]
    seed: 0

The BER points are every (power, training length) pair.  This module
only translates: it rejects unknown keys, turns registry names and
inline mappings into NodeProfile objects and a ``{start, stop, step}``
sweep of at most ``MAX_POINTS`` powers into a list, and passes the rest
to ``Scenario``.  The scenario checks every field's type and value, and
each channel law its own parameters; their ParameterError becomes a
ConfigError here.
"""

from __future__ import annotations

import math
from dataclasses import astuple, fields
from pathlib import Path

from .channels import FAMILIES, NodeProfile, registry_entry, registry_name
from .errors import ConfigError, ParameterError, _number
from .montecarlo import MAX_POINTS, Scenario

__all__ = ["load_scenario", "loads_scenario", "dumps_scenario", "scenario_to_config"]

_KEYS = {field.name for field in fields(Scenario)}
_NODE_KEYS = {"family", "params", "condition", "node_id"}
_SWEEP_KEYS = {"start", "stop", "step"}


def load_scenario(path) -> Scenario:
    """Load and validate one scenario document from a YAML file."""
    return loads_scenario(Path(path).read_text())


def loads_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document from YAML text."""
    import yaml  # here, so a preset run never loads the parser

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    unknown = sorted(set(doc) - _KEYS, key=str)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    if "nodes" not in doc:
        raise ConfigError("nodes: required key is missing")
    try:
        doc["nodes"] = _parse_nodes(doc["nodes"])
        if "power_sweep_dbm" in doc:
            doc["power_sweep_dbm"] = _parse_sweep(doc["power_sweep_dbm"])
        return Scenario(**doc)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None


def _parse_nodes(value):
    if not isinstance(value, list):
        return value
    try:
        return [_parse_node(item, index) for index, item in enumerate(value)]
    except ParameterError as exc:
        raise ConfigError(f"nodes: {exc}") from None


def _parse_node(item, index: int):
    """A registry name or an inline mapping as a NodeProfile; Scenario rejects anything else."""
    if isinstance(item, str):
        return registry_entry(item)
    if not isinstance(item, dict):
        return item
    unknown = sorted(set(item) - _NODE_KEYS, key=str)
    if unknown:
        raise ConfigError(f"nodes: unknown key {unknown[0]!r} in entry {index}")
    family = item.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"nodes: family must be {' or '.join(map(repr, FAMILIES))} "
                          f"in entry {index}")
    law = FAMILIES[family]
    names = [field.name for field in fields(law)]
    params = item.get("params")
    if not isinstance(params, list) or len(params) != len(names):
        raise ConfigError(f"nodes: {family} params must be [{', '.join(names)}] "
                          f"in entry {index}")
    try:
        dist = law(*params)
    except ParameterError as exc:
        raise ConfigError(f"nodes: params of entry {index}: {exc}") from None
    return NodeProfile(node_id=item.get("node_id", index + 1), dist=dist,
                       condition=item.get("condition"))


def _parse_sweep(value):
    """A ``{start, stop, step}`` mapping as a list of powers; anything else is kept."""
    if not isinstance(value, dict):
        return value
    unknown = sorted(set(value) - _SWEEP_KEYS, key=str)
    if unknown:
        raise ConfigError(f"power_sweep_dbm: unknown key {unknown[0]!r}")
    missing = sorted(_SWEEP_KEYS - set(value))
    if missing:
        raise ConfigError(f"power_sweep_dbm: missing key {missing[0]!r}")
    start, stop, step = (_number(f"power_sweep_dbm.{key}", value[key])
                         for key in ("start", "stop", "step"))
    if step <= 0:
        raise ConfigError("power_sweep_dbm: step must be > 0")
    if stop < start:
        raise ConfigError("power_sweep_dbm: stop must be >= start")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ConfigError("power_sweep_dbm: (stop - start) / step must be finite")
    count = int(span + 1e-9) + 1
    if count > MAX_POINTS:  # before the list is built
        raise ConfigError(f"power_sweep_dbm: at most {MAX_POINTS} powers, got {count}")
    return [start + i * step for i in range(count)]


def scenario_to_config(scenario: Scenario) -> dict:
    """The plain mapping form of a Scenario; loads back to an equal Scenario."""
    doc = {}
    for field in fields(scenario):
        value = getattr(scenario, field.name)
        doc[field.name] = list(value) if isinstance(value, tuple) else value
    doc["nodes"] = [registry_name(profile) or
                    {"family": profile.dist.family, "params": list(astuple(profile.dist)),
                     "condition": profile.condition, "node_id": profile.node_id}
                    for profile in scenario.nodes]
    return doc


def dumps_scenario(scenario: Scenario) -> str:
    """The YAML document of a Scenario, in field order; ``loads_scenario`` reads it back."""
    import yaml

    return yaml.safe_dump(scenario_to_config(scenario), sort_keys=False)
