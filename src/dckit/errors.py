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


POSITIVE, WIDTHS, ARCHITECTURES = "positive", "widths", "architectures"


def check_value(name: str, value, kind, low):
    """``value``, of ``kind`` and at least ``low``; ConfigError naming ``name`` otherwise. A kind is
    int, float, POSITIVE (a float > 0), bool, a tuple of the allowed values, WIDTHS (a list of
    integers), ARCHITECTURES (a non-empty list of WIDTHS), or any other class or a tuple of
    classes, which the value must be an instance of; a number is finite and never a bool.
    Widths come back as tuples, every other value as it is."""
    classes = kind if isinstance(kind, tuple) else (kind,)
    if all(isinstance(c, type) for c in classes) and not {int, float, bool} & set(classes):
        if not isinstance(value, classes):
            raise ConfigError(f"{name} must be of type {' or '.join(c.__name__ for c in classes)}, got {value!r}")
        return value
    if kind in (WIDTHS, ARCHITECTURES):
        if not isinstance(value, (list, tuple)) or (kind == ARCHITECTURES and not value):
            what = "a non-empty list of width lists" if kind == ARCHITECTURES else "a list of integers"
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        inner = WIDTHS if kind == ARCHITECTURES else int
        return tuple(check_value(f"{name}[{i}]", v, inner, low) for i, v in enumerate(value))
    if isinstance(kind, tuple) and value not in kind:
        raise ConfigError(f"{name} must be one of {kind}, got {value!r}")
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if kind in (int, float, POSITIVE):
        check_number(name, value, integer=kind is int, low=low)
        if kind == POSITIVE and value <= 0:
            raise ConfigError(f"{name} must be positive, got {value!r}")
    return value


def check_fields(config, table: dict) -> None:
    """``check_value`` each field of the dataclass ``config`` that ``table`` maps to its (kind,
    lower bound), and keep what it returns; a field left at its default is valid as written."""
    defaults = {f.name: f.default for f in fields(config)}
    for name, (kind, low) in table.items():
        if (value := getattr(config, name)) is not defaults[name]:
            object.__setattr__(config, name, check_value(name, value, kind, low))


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
