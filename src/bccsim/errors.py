"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A structural parameter (node list, slot count, sweep, ...) is invalid."""


class DegenerateTrainingError(RuntimeError):
    """A training frame produced a zero reference amplitude.

    Raised by the combination margins when A_1, A_0 or A_th is exactly
    zero, which can only happen when an entire training half-frame was
    received as all zeros (no signal and no noise).
    """


class ConfigError(ValueError):
    """A scenario config document failed validation."""
