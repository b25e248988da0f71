"""Domain error types shared across the package."""


class MobicompError(Exception):
    """Root of all domain errors; the CLI maps these to exit code 1."""


class InvalidInputError(MobicompError, ValueError):
    """Malformed or out-of-contract input values."""


class GridTooLargeError(InvalidInputError):
    """A trace that would be resampled to more grid points than one trace may have."""


class ContractViolationError(MobicompError):
    """A precondition the caller was responsible for did not hold."""


class ProtocolError(MobicompError):
    """An operation invoked in the wrong order (e.g. stepping a finished episode)."""


class ConfigError(MobicompError):
    """Inconsistent configuration, e.g. model/environment action-space mismatch."""


class CheckpointError(MobicompError):
    """Corrupt, truncated, or incompatible checkpoint data."""


class TrainingDivergenceError(MobicompError):
    """Training produced a non-finite loss."""
