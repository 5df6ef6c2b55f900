"""Exception types shared across the package."""


class InvalidGeometryError(ValueError):
    """A section or ring violates a geometric invariant (message names it)."""


class WrongSectionKindError(ValueError):
    """An operation was called on a section kind it is not defined for."""


class QuadratureNotConvergedError(RuntimeError):
    """Never raised (no integral is adaptive); importable until the benchmark stops catching it."""


class DegenerateFitError(ValueError):
    """The surrogate fit has no informative data points (all at the anchor)."""


class OutOfValidatedRangeWarning(UserWarning):
    """Input lies outside the parameter range the surrogate was mapped on."""
