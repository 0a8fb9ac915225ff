"""Exception types shared across the package.

Everything user-facing derives from ValueError, ArithmeticError or
RuntimeError so callers can catch broadly.  The errors the CLI reports
also derive from ``ReportedError``, whose ``exit_code`` is the status the
CLI exits with after printing one ``error:`` line: 2 for a bad
configuration or an unwritable output, 3 for unusable input data, 4 for a
numerical failure.  ShapeError, DomainError and ContractError signal a
programming error, not bad input, and carry no exit code.
"""


class ReportedError(Exception):
    """An error the CLI reports as one line and exits on with ``exit_code``."""

    exit_code: int


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class DomainError(ValueError):
    """Input outside the mathematical domain (log of non-positive, etc.)."""


class NumericsError(ReportedError, ArithmeticError):
    """A forward or backward pass produced a non-finite value."""

    exit_code = 4


class ContractError(RuntimeError):
    """An API precondition was violated (non-scalar loss, empty codebook)."""


class ConfigError(ReportedError, ValueError):
    """Invalid configuration value."""

    exit_code = 2


class InvalidOutcomeError(ReportedError, ValueError):
    """Outcome record outside the configured time/risk grid."""

    exit_code = 3


class UndefinedMetricError(ReportedError, ValueError):
    """Metric undefined for this input (no comparable pairs)."""

    exit_code = 3


class UndefinedTestError(ReportedError, ValueError):
    """Test statistic undefined (zero variance)."""

    exit_code = 3


class DegenerateGroupsError(ReportedError, ValueError):
    """Stratification produced an empty group."""

    exit_code = 3


class DataFormatError(ReportedError, ValueError):
    """On-disk artifact is missing, truncated or corrupt."""

    exit_code = 3


class IncompatibleInputError(ReportedError, ValueError):
    """Data and model/config disagree on fixed dimensions or value ranges."""

    exit_code = 3


class TrainingDivergedError(ReportedError, RuntimeError):
    """Loss became non-finite during optimization."""

    exit_code = 4


class OutputError(ReportedError, RuntimeError):
    """An output file or directory could not be created or written."""

    exit_code = 2
