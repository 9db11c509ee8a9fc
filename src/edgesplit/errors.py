"""Shared exception types, and the number checks of the config reader."""


class ConfigError(ValueError):
    """Invalid or missing configuration input; `field` names the offender."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced an unusable value.

    `estimate` carries the unusable value where there is one, so a caller can
    report it.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


def json_number(value, name: str) -> float:
    """float(value) for a JSON number or numeric string. A null, an array or an
    object, which float() rejects with a TypeError, is a ValueError naming the
    field, so the config boundary reports it as a config error; so is a boolean,
    which float() would read as 0 or 1."""
    if value is None or isinstance(value, (bool, list, dict)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def json_integer(value, name: str) -> int:
    """int(value) for a JSON integer, an integral float or a numeric string. A
    boolean, a fraction (which int() would truncate), NaN, inf or another JSON
    type is a ValueError naming the field."""
    try:
        number = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, float) and number != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number
