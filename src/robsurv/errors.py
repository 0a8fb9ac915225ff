"""Exception types shared across the package, and the one check of config fields.

Everything user-facing derives from ValueError, ArithmeticError or
RuntimeError so callers can catch broadly.  The errors the CLI reports
also derive from ``ReportedError``, whose ``exit_code`` is the status the
CLI exits with after printing one ``error:`` line: 2 for a bad
configuration or an unwritable output, 3 for unusable input data, 4 for a
numerical failure.  ShapeError, DomainError and ContractError signal a
programming error, not bad input, and carry no exit code.
"""

import sys
import typing
from functools import cache


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


def _finite(v) -> bool:
    # abs(v) <= max fails NaN, ±inf and an int past the float range
    return isinstance(v, (int, float)) and type(v) is not bool and abs(v) <= sys.float_info.max


# what a config field of each annotation admits: bool, an int subclass, fits
# only a bool field, and a numpy integer, which JSON cannot write, is no int
_KINDS = {
    int: lambda v: isinstance(v, int) and type(v) is not bool,
    float: _finite,
    bool: lambda v: isinstance(v, bool),
    str | None: lambda v: v is None or isinstance(v, str),
    tuple | None: lambda v: v is None or isinstance(v, tuple) and all(map(_finite, v)),
}
_type_hints = cache(typing.get_type_hints)  # evaluating annotations costs more than checking


def check_fields(config) -> None:
    """Raise ``ConfigError`` unless each field of the dataclass ``config`` holds what
    ``_KINDS`` admits for its annotation, or an instance of the class it names."""
    for name, kind in _type_hints(type(config)).items():
        value = getattr(config, name)
        if not (_KINDS[kind](value) if kind in _KINDS else isinstance(value, kind)):
            raise ConfigError(f"{type(config).__name__} field {name} must be "
                              f"{getattr(kind, '__name__', kind)}, got {value!r}")
