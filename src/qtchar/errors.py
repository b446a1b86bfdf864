"""Exception hierarchy for the character engine.

Every failure mode that corresponds to a violated mathematical assumption
gets its own class, so callers can distinguish "bad input" from "the
expansion hypotheses do not hold for this module".
"""


class QtCharError(Exception):
    """Base class for all package errors."""


class UnsupportedType(QtCharError):
    """Requested Dynkin type is not simply laced or the rank is invalid."""


class NodeOutOfRange(QtCharError):
    """Node index outside 1..rank."""


class ParseError(QtCharError):
    """Malformed monomial text or character document; carries the
    offending factor position when there is one."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class InconsistentExpansion(QtCharError):
    """A nonzero residual appeared at a non-dominant direction, or the
    per-direction decompositions of a character disagree.  Signals that the
    module is outside the validity of the single-dominant-monomial
    expansion."""


class FailedAudit(QtCharError):
    """A character read from a document has no per-direction decomposition
    with nonnegative coefficients (`fm.audit_expansion`): the input, not
    the computation, is at fault."""


class NonMinuscule(QtCharError):
    """A second dominant monomial turned up during the expansion."""


class OutsideWindow(QtCharError):
    """A lowering vector leaves its character's window: a shift outside
    the window, a negative exponent, or a lowering degree past the bound
    the highest weight allows."""


class ExceedsMemory(QtCharError):
    """A value would not fit in the memory or the address-space limit."""


class NegativeTwist(QtCharError):
    """The attracting-block rank came out negative; the pairing convention
    was violated."""


class NotAPoincarePolynomial(QtCharError):
    """Coefficient polynomial fails the hard-Lefschetz shape checks."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class NegativeMultiplicity(QtCharError):
    """Jordan block multiplicity came out negative while decoding."""


class InconsistentProfile(QtCharError):
    """Jordan profile violates its own internal invariants."""
