"""Exception types shared across the package.

Everything raised deliberately by this package derives from IrredcertError,
so callers can catch one type at the boundary.  ValueError/TypeError are still
used for plain argument mistakes (wrong shapes passed to constructors etc.)
where there is nothing domain-specific to say.
"""


class IrredcertError(Exception):
    """Base class for all package errors."""


class IntegralityError(IrredcertError):
    """A value that had to lie in Z (or Z[t]) did not."""


class ShapeError(IrredcertError):
    """Matrix dimensions incompatible with the requested operation."""


class SingularError(IrredcertError):
    """Inversion or division by a non-unit / singular matrix."""


class BadPrime(IrredcertError):
    """A prime specification is malformed, composite, or not maximal
    in the ring it is paired with."""


class BudgetExceeded(IrredcertError):
    """A lattice chain of saturation ran its budget of rounds without
    stabilizing (the MeatAxe reports a spent budget as Inconclusive)."""


class SizeBound(IrredcertError):
    """A brute-force enumeration would exceed its hard size limit."""


class GroupTooLarge(IrredcertError):
    """Group closure did not terminate within the element bound."""


class AbsIrredUndecided(IrredcertError):
    """Could not certify absolute irreducibility (endomorphism ring test
    was not applicable)."""


class VersionMismatch(IrredcertError):
    """A certificate was produced by an incompatible toolkit version."""
