"""Shared exception types."""


class SizeMismatchError(ValueError):
    """Operands act on registers of different sizes."""


class RegisterCapError(ValueError):
    """Requested register exceeds the dense-simulation qubit cap."""


class PartitionError(ValueError):
    """Partition blocks do not tile the register."""


class NoiseRateError(ValueError):
    """A channel rate fell outside [0, 1]."""


class DegenerateNormalizationError(ArithmeticError):
    """Normalization denominator too close to zero to divide."""


class EmptySubspaceError(ArithmeticError):
    """Regularization discarded every basis direction."""


class NonFinitePencilError(ArithmeticError):
    """A pencil entry is NaN or infinite."""


class NonHermitianOverlapError(ValueError):
    """The overlap matrix departs from hermiticity beyond rounding."""


class SelectionFailureError(ArithmeticError):
    """No pencil eigenvalue inside the requested energy window."""


class EmptyDistributionError(ArithmeticError):
    """Every shot-noise sample was rejected."""


class ConfigError(ValueError):
    """Experiment configuration is malformed or inconsistent."""
