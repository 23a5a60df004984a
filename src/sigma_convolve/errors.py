"""Exception types raised by the exact-arithmetic core."""


class BadLeadingTerm(ValueError):
    """Cube root requires a unit leading coefficient at a multiple-of-3 index."""


class OutOfRange(IndexError):
    """Requested coefficient index exceeds the truncation order."""


class FractionalExponent(ValueError):
    """Eta quotient whose q-power is not an integer (24 does not divide the offset)."""


class NegativeValuation(ValueError):
    """Eta quotient whose leading q-power is negative."""


class NonIntegralResult(ArithmeticError):
    """A formula that must produce an integer produced a proper fraction."""


class InconsistentSystem(ArithmeticError):
    """Overdetermined linear system has no exact solution."""


class UnderdeterminedSystem(ArithmeticError):
    """Linear system rank is below the number of unknowns."""
