"""Exception types shared across the package."""

from __future__ import annotations


class KSError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(KSError):
    """Two objects that must live in the same dimension do not."""


class ScalarSyntaxError(KSError):
    """A scalar entry token does not conform to the entry grammar."""


class SetSyntaxError(KSError):
    """A set file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownReferenceError(SetSyntaxError):
    """A context or projector line references an undeclared identifier."""


class ValidationError(KSError):
    """A set violates its structural invariants; carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(report.issues))


class NotKSError(KSError):
    """An operation requires an uncolorable set but the input is colorable."""


class NotParityError(KSError):
    """An operation requires parity sets and the input is not one."""


class InvalidPairingError(KSError):
    """A context pairing does not cover every large context once, names a
    context out of range or uses a small context an even number of times."""


class BadDimensionError(KSError):
    """A target dimension is outside the range a construction supports."""


class BadBasisError(KSError):
    """A set has no axis projector for one of the leading coordinates that
    the coordinate-swap doubling exchanges."""


class NotScaledUnitaryError(KSError):
    """A transform matrix does not satisfy M^dagger M = c > 0 times identity."""


class UnknownNameError(KSError):
    """No catalog entry under the requested name."""


class ChainSyntaxError(KSError):
    """A construction chain does not conform to the chain grammar."""
