"""Shared exception types."""


class GzError(Exception):
    """Base class for all package errors."""


class CapacityError(GzError, ValueError):
    """An input exceeds a module's validated size envelope or a sieve's limit."""


class CertificationFailure(GzError):
    """Zero counts disagree: a missed zero, a multiple zero, or an
    off-line zero.  All are fatal inside the validated envelope.

    Carries no zero set: the message names the character, both counts and
    the counting height.
    """


class ContourError(GzError):
    """The counting contour passes too close to a zero (or the phase
    tracking failed to converge, which is the same symptom)."""


class OffLineZeroError(GzError):
    """A zero with real part off 1/2 beyond tolerance was detected while
    computing in the envelope where all zeros are known to lie on the
    critical line.  Raised instead of silently recording it."""


class ValidationError(GzError):
    """An imported data file failed its consistency checks."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number
