"""Exception types shared by all voinet modules."""


class VoinetError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(VoinetError):
    """A matrix or weight array has the wrong shape or mismatched dimensions."""


class DomainError(VoinetError):
    """A value lies outside its permitted range (Saaty bounds, row sums, ...)."""


class UnsupportedDimensionError(VoinetError):
    """Matrix dimension falls outside the random-index table (n must be 2..10)."""


class ConvergenceError(VoinetError):
    """Power iteration failed to converge within the iteration budget.

    Carries the last iterate and its max-norm residual for diagnosis.
    """

    def __init__(self, message, last_iterate=None, residual=None, iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations


class TemporalOrderError(VoinetError):
    """A message is evaluated at a time earlier than its generation timestamp."""


class ConfigError(VoinetError):
    """A config document is missing, unparseable, or has an invalid field.

    ``field`` names the offending entry (dotted path into the document);
    ``reason`` says what is wrong with it.
    """

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
