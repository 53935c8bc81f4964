"""Named scenario presets matching the reference experiment protocols.

The per-channel single-node study of figure 3 is nine presets,
"fig3-f1" .. "fig3-f9", one K=1 scenario per registry channel.
"""

from __future__ import annotations

from .channels import STRONG_NODES, WEAK_NODES, registry_entry, registry_name, table1_registry
from .detectors import NONCOHERENT, PROBABILITY, TECHNIQUES
from .errors import ParameterError
from .montecarlo import Scenario

__all__ = ["PRESET_NAMES", "preset"]

_FIG3 = {f"fig3-{registry_name(profile)}": profile for profile in table1_registry()}
PRESET_NAMES = (*_FIG3, "fig4", "fig5-weak", "fig5-strong", "fig6", "fig7")

_NT_SWEEP = (10, 20, 50, 100, 200, 500, 1000)


def _nodes(names):
    return tuple(registry_entry(name) for name in names)


def preset(name: str) -> Scenario:
    """Build the Scenario for a named preset."""
    if name in _FIG3:
        return Scenario(nodes=(_FIG3[name],), techniques=(PROBABILITY,))
    if name == "fig4":
        return Scenario(nodes=_nodes(("f9",)), techniques=TECHNIQUES)
    if name == "fig5-weak":
        return Scenario(nodes=_nodes(WEAK_NODES), techniques=NONCOHERENT)
    if name == "fig5-strong":
        return Scenario(nodes=_nodes(STRONG_NODES), techniques=NONCOHERENT)
    if name == "fig6":
        return Scenario(nodes=tuple(table1_registry()), techniques=TECHNIQUES)
    if name == "fig7":
        return Scenario(nodes=_nodes(WEAK_NODES), power_sweep_dbm=(10.0,),
                        n_t=_NT_SWEEP, techniques=NONCOHERENT)
    raise ParameterError(
        f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}")
