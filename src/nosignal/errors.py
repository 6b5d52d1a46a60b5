"""Exception types shared across the package."""


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
