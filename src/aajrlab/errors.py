"""Error types shared across the package, and two rules for what a caller
supplies. The integer rule: every count and seed passes ``check_count``,
which returns an integer of at least a minimum (not a bool, not a whole
float) or raises a ConfigError naming its field. Nothing is truncated. The
number rule: the real hyperparameters pass ``check_positive``, which
returns a finite real number (not a bool) > 0 (or >= 0) as a float or
raises a ConfigError naming its field."""

from __future__ import annotations

import math
import numbers


class ConfigError(ValueError):
    """Invalid configuration: bad dimensions, ranges, or file contents.
    ``field``, the config key of the offending argument, leads the message."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


def check_count(value, minimum: int, field: str | None = None, what: str = "") -> int:
    """``value`` as an int, if it is an integer (numpy's included, bools
    not) of at least ``minimum``; ConfigError with ``field`` otherwise.
    ``what``, if given, names the value in front of the rule."""
    # the exact-int test first: an isinstance against the Integral ABC costs about 1 us
    integral = type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral and value >= minimum:
        return int(value)
    rule = f"must be an integer >= {minimum}, got {value!r}"
    raise ConfigError(f"{what} {rule}" if what else rule, field)


def check_positive(value, field: str, what: str = "", allow_zero: bool = False) -> float:
    """``value`` as a float, if it is a real number (numpy's too, not a bool)
    that is finite and > 0 (>= 0 with ``allow_zero``); ConfigError with
    ``field`` otherwise. ``what``, if given, names the value in front of it."""
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and math.isfinite(value) and (value >= 0 if allow_zero else value > 0):
        return float(value)
    rule = f"must be a finite number {'>=' if allow_zero else '>'} 0"
    raise ConfigError(f"{what} {rule}" if what else rule, field)
