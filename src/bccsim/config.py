"""Scenario config documents: YAML loading, validation, round-trip emission.

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

The BER points are every (power, training length) pair.  Unknown keys
are rejected, and every scenario invariant is re-validated on load.
"""

from __future__ import annotations

import math
from pathlib import Path

import yaml

from .channels import BurrXII, NodeProfile, Weibull, registry_entry, registry_name
from .errors import ConfigError, ParameterError
from .montecarlo import Scenario

__all__ = ["load_scenario", "loads_scenario", "scenario_to_config"]

_TOP_KEYS = {"nodes", "n_t", "power_sweep_dbm", "n_data_symbols", "techniques",
             "seed", "n0_dbm_per_hz", "bandwidth_hz", "blocks"}
_NODE_KEYS = {"family", "params", "condition", "node_id"}
_SWEEP_KEYS = {"start", "stop", "step"}


def load_scenario(path) -> Scenario:
    """Load and validate one scenario document from a YAML file."""
    return loads_scenario(Path(path).read_text())


def loads_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document from YAML text."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    unknown = sorted(set(doc) - _TOP_KEYS, key=str)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    if "nodes" not in doc:
        raise ConfigError("nodes: required key is missing")

    fields: dict = {"nodes": _parse_nodes(doc["nodes"])}
    if "power_sweep_dbm" in doc:
        fields["power_sweep_dbm"] = _parse_sweep(doc["power_sweep_dbm"])
    if "n_t" in doc:
        value = doc["n_t"]
        fields["n_t"] = tuple(_require_int("n_t", v)
                              for v in (value if isinstance(value, list) else [value]))
    for key in ("n_data_symbols", "seed", "blocks"):
        if key in doc:
            fields[key] = _require_int(key, doc[key])
    for key in ("n0_dbm_per_hz", "bandwidth_hz"):
        if key in doc:
            fields[key] = _require_number(key, doc[key])
    if "techniques" in doc:
        value = doc["techniques"]
        if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
            raise ConfigError("techniques: must be a list of technique names")
        fields["techniques"] = tuple(value)

    try:
        return Scenario(**fields)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None


def _require_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    return value


def _require_number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key}: must be a number within float range") from None


def _parse_nodes(value) -> tuple[NodeProfile, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError("nodes: must be a nonempty list")
    profiles = []
    for index, item in enumerate(value):
        if isinstance(item, str):
            try:
                profiles.append(registry_entry(item))
            except ParameterError as exc:
                raise ConfigError(f"nodes: {exc}") from None
        elif isinstance(item, dict):
            profiles.append(_parse_inline_node(item, index))
        else:
            raise ConfigError(f"nodes: entry {index} must be a registry name or a mapping")
    return tuple(profiles)


def _parse_inline_node(item: dict, index: int) -> NodeProfile:
    unknown = sorted(set(item) - _NODE_KEYS, key=str)
    if unknown:
        raise ConfigError(f"nodes: unknown key {unknown[0]!r} in entry {index}")
    family = item.get("family")
    params = item.get("params")
    if family not in ("burr", "weibull"):
        raise ConfigError(f"nodes: family must be 'burr' or 'weibull' in entry {index}")
    if not isinstance(params, list):
        raise ConfigError(f"nodes: params must be a list of numbers in entry {index}")
    params = [_require_number(f"nodes: params of entry {index}", p) for p in params]
    try:
        if family == "burr":
            if len(params) != 3:
                raise ConfigError(f"nodes: burr params must be [alpha, c, k] in entry {index}")
            dist = BurrXII(*params)
        else:
            if len(params) != 2:
                raise ConfigError(f"nodes: weibull params must be [a, b] in entry {index}")
            dist = Weibull(*params)
        node_id = item.get("node_id", index + 1)
        return NodeProfile(node_id=node_id, dist=dist, condition=item.get("condition"))
    except ParameterError as exc:
        raise ConfigError(f"nodes: {exc}") from None


def _parse_sweep(value) -> tuple[float, ...]:
    if isinstance(value, list):
        return tuple(_require_number("power_sweep_dbm", v) for v in value)
    if isinstance(value, dict):
        unknown = sorted(set(value) - _SWEEP_KEYS, key=str)
        if unknown:
            raise ConfigError(f"power_sweep_dbm: unknown key {unknown[0]!r}")
        missing = sorted(_SWEEP_KEYS - set(value))
        if missing:
            raise ConfigError(f"power_sweep_dbm: missing key {missing[0]!r}")
        start = _require_number("power_sweep_dbm.start", value["start"])
        stop = _require_number("power_sweep_dbm.stop", value["stop"])
        step = _require_number("power_sweep_dbm.step", value["step"])
        if step <= 0:
            raise ConfigError("power_sweep_dbm: step must be > 0")
        if stop < start:
            raise ConfigError("power_sweep_dbm: stop must be >= start")
        span = (stop - start) / step
        if not math.isfinite(span):
            raise ConfigError("power_sweep_dbm: (stop - start) / step must be finite")
        count = int(span + 1e-9) + 1
        return tuple(start + i * step for i in range(count))
    raise ConfigError("power_sweep_dbm: must be a list or a {start, stop, step} mapping")


def scenario_to_config(scenario: Scenario) -> dict:
    """The plain mapping form of a Scenario; loads back to an equal Scenario."""
    nodes = []
    for profile in scenario.nodes:
        name = registry_name(profile)
        if name is not None:
            nodes.append(name)
            continue
        if isinstance(profile.dist, BurrXII):
            family, params = "burr", [profile.dist.alpha, profile.dist.c, profile.dist.k]
        else:
            family, params = "weibull", [profile.dist.a, profile.dist.b]
        nodes.append({"family": family, "params": params,
                      "condition": profile.condition, "node_id": profile.node_id})
    return {
        "nodes": nodes,
        "n_t": list(scenario.n_t),
        "power_sweep_dbm": list(scenario.power_sweep_dbm),
        "n_data_symbols": scenario.n_data_symbols,
        "techniques": list(scenario.techniques),
        "seed": scenario.seed,
        "n0_dbm_per_hz": scenario.n0_dbm_per_hz,
        "bandwidth_hz": scenario.bandwidth_hz,
        "blocks": scenario.blocks,
    }
