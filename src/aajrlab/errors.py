"""Error types shared across the package, and the one integer rule:
every count and seed that a caller supplies passes ``check_count``, which
returns an integer of at least a minimum (not a bool, not a whole float)
or raises a ConfigError naming its field. Nothing is truncated."""

from __future__ import annotations

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
