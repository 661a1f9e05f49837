"""Error types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration: bad dimensions, ranges, or file contents.
    ``field``, the config key of the offending argument, leads the message."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""
