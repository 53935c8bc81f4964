"""Heavy-tailed channel amplitude models.

Body-channel links are modeled by two families of positive amplitude laws:
Burr Type XII with CDF ``F(x) = 1 - (1 + (x/alpha)^c)^(-k)`` and Weibull
with CDF ``F(x) = 1 - exp(-(x/a)^b)``.  Both invert in closed form, so
sampling is exact inverse transform: ``spec.inverse_cdf(rng.random(size))``
is reproducible under a seeded stream.

Each law checks its own parameters (real, not bool, finite, positive;
stored as floats) and owns its family name, ``BurrXII.family == "burr"``;
``FAMILIES`` maps names to laws and ``dataclasses.astuple(dist)`` is the
parameter list.

The module also carries the registry of nine named channel models
("f1" .. "f9"), each tagged as a strong or weak link condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import ParameterError, _number

__all__ = [
    "BurrXII",
    "Weibull",
    "DistributionSpec",
    "FAMILIES",
    "NodeProfile",
    "table1_registry",
    "registry_entry",
    "registry_name",
    "STRONG_NODES",
    "WEAK_NODES",
]


def _check_uniform(u):
    u = np.asarray(u, dtype=float)
    if not (np.minimum.reduce(u, axis=None, initial=0.0) >= 0.0
            and np.maximum.reduce(u, axis=None, initial=0.0) < 1.0):  # NaN fails both
        raise ParameterError("u must lie in [0, 1)")
    return u


def _check_parameters(law) -> None:
    """Store every field of ``law`` as a float; each must be a finite, positive real."""
    for field in fields(law):
        name, value = f"{type(law).__name__}.{field.name}", getattr(law, field.name)
        number = _number(name, value)
        if not 0.0 < number < math.inf:
            raise ParameterError(f"{name} must be finite and positive, got {value!r}")
        object.__setattr__(law, field.name, number)


@dataclass(frozen=True)
class BurrXII:
    """Burr Type XII amplitude law with scale ``alpha`` and shapes ``c``, ``k``."""

    family: ClassVar[str] = "burr"
    alpha: float
    c: float
    k: float

    def __post_init__(self):
        _check_parameters(self)

    def cdf(self, x):
        """F(x) = 1 - (1 + (x/alpha)^c)^(-k), zero on x <= 0."""
        x = np.asarray(x, dtype=float)
        ratio = np.where(x > 0.0, x, 0.0) / self.alpha
        return -np.expm1(-self.k * np.log1p(ratio ** self.c))

    def inverse_cdf(self, u):
        """Quantile ``alpha * ((1-u)^(-1/k) - 1)^(1/c)``, monotone nondecreasing in u.

        Evaluated through expm1/log1p so the small-u branch keeps full
        precision; round-tripping through the CDF recovers ``u`` to better
        than 1e-12.
        """
        t = np.expm1(-np.log1p(-_check_uniform(u)) / self.k)
        return self.alpha * t ** (1.0 / self.c)


@dataclass(frozen=True)
class Weibull:
    """Weibull amplitude law with scale ``a`` and shape ``b``."""

    family: ClassVar[str] = "weibull"
    a: float
    b: float

    def __post_init__(self):
        _check_parameters(self)

    def cdf(self, x):
        """F(x) = 1 - exp(-(x/a)^b), zero on x <= 0."""
        x = np.asarray(x, dtype=float)
        ratio = np.where(x > 0.0, x, 0.0) / self.a
        return -np.expm1(-(ratio ** self.b))

    def inverse_cdf(self, u):
        """Quantile ``a * (-ln(1-u))^(1/b)``; same precision contract as BurrXII."""
        return self.a * (-np.log1p(-_check_uniform(u))) ** (1.0 / self.b)


DistributionSpec = BurrXII | Weibull
FAMILIES = {law.family: law for law in (BurrXII, Weibull)}


_CONDITIONS = ("strong", "weak")


@dataclass(frozen=True)
class NodeProfile:
    """One receive node: integer id, amplitude law, strong/weak condition tag."""

    node_id: int
    dist: DistributionSpec
    condition: str

    def __post_init__(self):
        if type(self.node_id) is not int or self.node_id < 1:
            raise ParameterError(
                f"node_id must be a positive integer, got {self.node_id!r}")
        if not isinstance(self.dist, (BurrXII, Weibull)):
            raise ParameterError(
                f"dist must be BurrXII or Weibull, got {type(self.dist).__name__}")
        if self.condition not in _CONDITIONS:
            raise ParameterError(
                f"condition must be one of {_CONDITIONS}, got {self.condition!r}")


_REGISTRY: dict[str, NodeProfile] = {
    "f1": NodeProfile(1, BurrXII(4.71e-7, 2.43, 5.61), "weak"),
    "f2": NodeProfile(2, BurrXII(9.32e-7, 3.88e1, 5.52e-1), "strong"),
    "f3": NodeProfile(3, BurrXII(2.29e-8, 1.21e1, 5.07e-1), "weak"),
    "f4": NodeProfile(4, BurrXII(5.63e-6, 2.40e1, 3.97e-1), "strong"),
    "f5": NodeProfile(5, Weibull(1.76e-6, 3.88), "weak"),
    "f6": NodeProfile(6, BurrXII(3.83e-7, 7.06, 1.26), "weak"),
    "f7": NodeProfile(7, BurrXII(1.31e-6, 5.25, 1.47), "weak"),
    "f8": NodeProfile(8, Weibull(1.01e-6, 4.05), "weak"),
    "f9": NodeProfile(9, BurrXII(7.76e-6, 9.71, 7.87), "strong"),
}

STRONG_NODES = ("f2", "f4", "f9")
WEAK_NODES = ("f1", "f3", "f5", "f6", "f7", "f8")


def table1_registry() -> list[NodeProfile]:
    """All nine registry channel models, ordered f1 .. f9."""
    return [_REGISTRY[f"f{i}"] for i in range(1, 10)]


def registry_entry(name: str) -> NodeProfile:
    """Look up a registry channel model by its string name ("f1" .. "f9")."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown channel model {name!r}; known names are f1..f9") from None


def registry_name(profile: NodeProfile) -> str | None:
    """Inverse lookup; None when the profile is not a registry entry."""
    for name, entry in _REGISTRY.items():
        if entry == profile:
            return name
    return None
