"""Exception types shared by all voinet modules; each class sets its CLI exit code."""


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
