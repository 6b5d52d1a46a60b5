"""Exception types shared across the package."""


class SaturationError(RuntimeError):
    """The error fraction did not settle before the time horizon.

    Carries the last sampled value so callers can inspect how far the
    detection got.
    """

    def __init__(self, message: str, last_value: float):
        super().__init__(message)
        self.last_value = last_value


class BoundaryLeakError(RuntimeError):
    """Wave-packet density reached the edge of the simulation grid."""


class NormDriftError(RuntimeError):
    """The grid solver's total norm drifted from 1 or is not a number."""


class PhaseUndefinedError(ValueError):
    """The off-diagonal coherence is too small for a meaningful phase."""


class PostSelectionError(ValueError):
    """Post-selection kept essentially no probability."""


class ConfigError(ValueError):
    """A run configuration file is malformed or inconsistent."""
