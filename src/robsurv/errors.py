"""Exception types shared across the package.

Everything user-facing derives from ValueError or RuntimeError so callers
can catch broadly; the CLI maps these onto its exit-code contract.
"""


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class DomainError(ValueError):
    """Input outside the mathematical domain (log of non-positive, etc.)."""


class NumericsError(ArithmeticError):
    """A forward or backward pass produced a non-finite value."""


class ContractError(RuntimeError):
    """An API precondition was violated (non-scalar loss, empty codebook)."""


class ConfigError(ValueError):
    """Invalid configuration value."""


class InvalidOutcomeError(ValueError):
    """Outcome record outside the configured time/risk grid."""


class UndefinedMetricError(ValueError):
    """Metric undefined for this input (no comparable pairs)."""


class UndefinedTestError(ValueError):
    """Test statistic undefined (zero variance)."""


class DegenerateGroupsError(ValueError):
    """Stratification produced an empty group."""


class DataFormatError(ValueError):
    """On-disk artifact is missing, truncated or corrupt."""


class IncompatibleInputError(ValueError):
    """Data and model/config disagree on fixed dimensions or value ranges."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during optimization."""
