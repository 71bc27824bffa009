"""Exception types shared by all voinet modules, and ``require``, the one check of a config field.

Each exception class sets its CLI exit code.  The JSON loader and the
validators of configs built in code check every field through
``require``, with the shared predicates below.  Each tests a value's type
before its range, so a wrongly typed field fails its own check.
"""

import reprlib
import sys

_FLOAT_MAX = sys.float_info.max


class VoinetError(Exception):
    """Base class for all errors raised by this package; exit 1 unless a subclass sets another."""


class DomainError(VoinetError):
    """A value lies outside its permitted range (Saaty bounds, row sums, ...); exit 3."""


class StructureError(DomainError):
    """A matrix or weight array has the wrong shape or mismatched dimensions; exit 3."""


class UnsupportedDimensionError(DomainError):
    """Matrix dimension falls outside the random-index table (n must be 2..10); exit 3."""


class ConvergenceError(VoinetError):
    """Power iteration failed to converge within the iteration budget; exit 1.

    Carries the last iterate and its max-norm residual for diagnosis.
    """

    def __init__(self, message, last_iterate=None, residual=None, iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations


class TemporalOrderError(DomainError):
    """A message is evaluated at a time earlier than its generation timestamp; exit 3."""


class ConfigError(VoinetError):
    """A config document is missing, unparseable, or has an invalid field; exit 2.

    ``field`` names the offending entry (dotted path into the document);
    ``reason`` says what is wrong with it.
    """

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def require(field: str, value, ok, expected: str):
    """``value`` if ``ok(value)``, else ``ConfigError(field, "expected <expected>, got ...")``."""
    if ok(value):
        return value
    raise ConfigError(field, f"expected {expected}, got {reprlib.repr(value)}")


def require_fields(obj, fields, prefix: str = "") -> None:
    """``require`` each ``(name, ok, expected)`` of ``fields`` on ``obj``'s attribute ``name``."""
    for name, ok, expected in fields:
        require(prefix + name, getattr(obj, name), ok, expected)


def is_number(value) -> bool:
    """A finite ``int`` or ``float``, not a ``bool``; an ``int`` must be within float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -_FLOAT_MAX <= value <= _FLOAT_MAX)  # false for NaN and the infinities


def is_positive(value) -> bool:
    """A finite number above 0."""
    return is_number(value) and value > 0


def is_count(minimum: int):
    """Predicate: an ``int`` (not a ``bool``) of at least ``minimum`` that a float can hold."""
    return lambda value: type(value) is int and minimum <= value <= _FLOAT_MAX


def is_vector(n: int, ok=is_number):
    """Predicate: a tuple or list of ``n`` items that ``ok`` accepts, finite numbers by default."""
    return lambda v: isinstance(v, (tuple, list)) and len(v) == n and all(map(ok, v))
