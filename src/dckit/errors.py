"""Exception types shared across the package, and the checks every config uses."""
import math
import numbers
from dataclasses import fields


class CondensationError(Exception):
    """Base class for every error raised by this package."""


class ParseError(CondensationError, ValueError):
    """Malformed input file content."""


class LabelError(CondensationError, ValueError):
    """Label set is invalid (non-contiguous, out of range, or mismatched)."""


class EmptyDatasetError(CondensationError, ValueError):
    """Dataset has no rows."""


class EmptyClassError(CondensationError, ValueError):
    """A class label has zero samples."""


class ValidationError(CondensationError, ValueError):
    """Value-level invariant violated (NaN/Inf entries, bad ranges)."""


class CapacityError(CondensationError, ValueError):
    """Requested more points than available."""


class ShapeError(CondensationError, ValueError):
    """Array dimensions incompatible with the operation."""


class DomainError(CondensationError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class ConfigError(CondensationError, ValueError):
    """Invalid or inconsistent configuration."""


class ContextError(CondensationError, ValueError):
    """A regularizer or operation is missing required context."""


class ArchitectureError(CondensationError, ValueError):
    """Models have incompatible architectures."""


class DivergenceError(CondensationError, RuntimeError):
    """Optimization produced non-finite values."""


class NumericalError(CondensationError, RuntimeError):
    """A numerical routine failed to produce a finite result."""


class SolveError(CondensationError, RuntimeError):
    """A linear system could not be solved."""


def check_number(name: str, value, *, integer: bool = False, low=None) -> None:
    """Raise ConfigError unless ``value`` is a finite real number, or an integer when
    ``integer``, that is not a bool and, when ``low`` is given, is at least ``low``."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind) or not (integer or math.isfinite(value))
            or (low is not None and value < low)):
        what = "an integer" if integer else "a finite number"
        raise ConfigError(f"{name} must be {what}{'' if low is None else f' >= {low}'}, got {value!r}")


def check_keys(d, cls, path: str, exclude=()) -> dict:
    """A copy of ``d``; ConfigError unless it is a JSON object keyed by fields of ``cls``.

    ``exclude`` names fields holding objects that a JSON config cannot express.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{path or 'the config'} must be a JSON object")
    allowed = {f.name for f in fields(cls)} - set(exclude)
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown config key {path + '.' if path else ''}{key}")
    return dict(d)


def check_widths(value, path: str) -> tuple:
    """The JSON list of hidden-layer widths at ``path`` as a tuple; ConfigError otherwise."""
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list of layer widths, got {value!r}")
    for width in value:
        check_number(f"{path} entries", width, integer=True, low=1)
    return tuple(value)
