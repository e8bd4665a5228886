"""Exception types shared across the package."""


class PdeThickError(Exception):
    """Base class for all package errors."""


class DomainError(PdeThickError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidShapeError(PdeThickError, ValueError):
    """Shape parameters violate the ordering/positivity requirements."""


class GridError(PdeThickError, ValueError):
    """Grid construction failed (degenerate box, anisotropic spacing, ...)."""


class CoverageError(PdeThickError, ValueError):
    """The grid does not strictly cover the shape it is asked to resolve."""


class NonNodalInterfaceError(PdeThickError, ValueError):
    """A shape interface does not coincide with a grid node where required."""


class UnderResolvedError(PdeThickError, ValueError):
    """The mesh violates the boundary-layer resolution floor h <= sqrt(a)/8."""


class NonConvergenceError(PdeThickError, RuntimeError):
    """The iterative solver failed to reach the requested residual."""


class DegenerateFitError(PdeThickError, ValueError):
    """Rate fitting was attempted on degenerate data."""


class EmptyShapeError(PdeThickError, ValueError):
    """A field operation found no shape cells to work on."""
