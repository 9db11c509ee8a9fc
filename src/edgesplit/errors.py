"""The two exception types that the package raises across its modules."""


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
