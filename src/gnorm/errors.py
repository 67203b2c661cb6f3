"""Exception types shared across the package.

Every budget-style failure raises :class:`CapExceeded` with the stage name, so
callers can distinguish "the answer is X" from "the computation was refused".
"""


class GnormError(Exception):
    """Base class for all package errors."""


class CapExceeded(GnormError):
    """A configured resource cap was hit before the computation finished."""

    def __init__(self, stage: str, needed, cap):
        super().__init__(f"{stage}: needs {needed}, cap is {cap}")
        self.stage = stage
        self.needed = needed
        self.cap = cap


class ShapeMismatch(GnormError):
    """Kernel shapes incompatible with the requested operation."""


class ParseError(GnormError):
    """An input file did not match its documented JSON schema."""


class InvalidParameter(GnormError, ValueError):
    """Construction parameters outside the documented domain."""


class DegenerateParameters(InvalidParameter):
    pass


class OddDimension(InvalidParameter):
    pass


class EvenOrder(InvalidParameter):
    pass


class NotPrime(InvalidParameter):
    pass


class WrongResidueClass(InvalidParameter):
    pass


class OutOfScopeParameters(InvalidParameter):
    """Arithmetic test hypotheses not met; no verdict is implied."""


class OutOfRange(InvalidParameter):
    pass


class NotBalanced(GnormError):
    """A balanced colouring was required."""


class VerificationFailed(GnormError):
    """An internal consistency replay failed; indicates a bug, not bad input."""
