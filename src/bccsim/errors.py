"""Exception types shared across the package."""


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
