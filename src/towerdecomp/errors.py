"""Exception hierarchy shared by all towerdecomp modules."""


class TowerDecompError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(TowerDecompError):
    """Malformed expression or tower-file text.

    ``offset`` is the 0-based character position of the error in the source
    string, or None when it cannot be pinpointed.
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class UnknownName(ExprSyntaxError):
    """An identifier does not name x or a previously declared generator."""


class ZeroArgument(TowerDecompError):
    """A factor of a logarithm's argument is zero."""


class NotProper(TowerDecompError):
    """Hermite reduction input is not proper with respect to its level."""

    def __init__(self, level, message=None):
        super().__init__(message or f"input is not proper at level {level}")
        self.level = level


class HeadMonomialNotOne(TowerDecompError):
    """A generator derivative carries a non-trivial monomial part, so the
    shift to a simple derivative is not defined."""

    def __init__(self, index, message=None):
        super().__init__(
            message or f"generator {index} has head monomial above 1"
        )
        self.index = index


class TowerNotSPrimitive(TowerDecompError):
    """A decomposition was requested on a tower that failed validation."""


class NotLogarithmic(TowerDecompError):
    """An embedding operation needs every generator to be logarithmic."""


class PreconditionCLIMI(TowerDecompError):
    """embed_well_generated requires independent significant components and a
    monotone significant vector; run normalize_tower first."""


class InternalVerificationError(TowerDecompError):
    """An exact self-check failed; indicates a bug, never bad user input."""


class HeuristicGCDFailed(TowerDecompError):
    """The heuristic gcd of two polynomials found no evaluation point that
    succeeds; the gcd is not computed, and no answer is given."""


class ExponentOverflow(TowerDecompError):
    """An exponent of a polynomial would reach 2**15, past the field that a
    packed monomial gives each variable."""
