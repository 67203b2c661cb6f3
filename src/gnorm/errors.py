"""Exception types shared across the package, one for each distinction that
some code acts on.  The CLI exits 1 on bad input (``ParseError``,
``InvalidParameter``), 2 on ``CapExceeded``, which names the refused stage,
and 3 on ``VerificationFailed``; certification catches
``OutOfScopeParameters`` to mean "no verdict implied".
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


class ParseError(GnormError):
    """An input file did not match its documented JSON schema."""


class InvalidParameter(GnormError, ValueError):
    """Parameters outside the documented domain."""


class OutOfScopeParameters(InvalidParameter):
    """Arithmetic test hypotheses not met; no verdict is implied."""


class VerificationFailed(GnormError):
    """An internal consistency replay failed; indicates a bug, not bad input."""
