"""Exception types shared across the package."""


class AffineHeckeError(Exception):
    """Base class for all errors raised by this package."""


class BadIndex(AffineHeckeError):
    """Generator or basis index outside the valid range."""


class InvalidValue(AffineHeckeError, ValueError):
    """A malformed permutation window, or the inverse of a non-unit."""


class RankMismatch(AffineHeckeError):
    """Operands live over different ranks n."""


class RankUnsupported(AffineHeckeError):
    """Operation only implemented for specific ranks (usually n = 2)."""


class ShiftNonzero(AffineHeckeError):
    """Operation requires translation-free (shift 0) permutations."""


class ZeroSpecialization(AffineHeckeError):
    """Attempt to evaluate a Laurent polynomial at q = 0."""


class NonIntegralCorrection(AffineHeckeError):
    """The commutation correction failed to divide exactly.

    This would indicate a wrongly derived straightening rule; it must never
    fire on valid input.
    """


class TruncationExceeded(AffineHeckeError):
    """A computation escaped the chosen truncation bound."""


class DimUnsupported(AffineHeckeError):
    """Operation only implemented for specific module dimensions."""


class ParseError(AffineHeckeError):
    """Malformed expression text; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
