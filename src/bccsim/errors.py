"""Exception types shared across the package, and the scalar type checks that raise them."""

from numbers import Integral, Real


class ParameterError(ValueError):
    """A structural parameter (node list, slot count, sweep, ...) is invalid."""


class DegenerateTrainingError(RuntimeError):
    """A training frame produced a zero reference amplitude.

    Raised by the combination margins when A_1, A_0 or A_th is exactly
    zero, which needs an entire training half-frame received as zeros: A_0
    is 0 exactly when the noise variance is.  A guard for direct callers;
    run_scenario never passes such statistics.
    """


class ConfigError(ValueError):
    """A scenario config document failed validation."""


def _integer(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{key}: must be an integer, got {value!r}")
    return int(value)


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ParameterError(f"{key}: must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{key}: must be a number within float range") from None
