"""Exception types raised across the package.

Every error that callers are expected to handle derives from
:class:`SteklovTreeError`.  Validation errors are split finely so that
tests and the CLI can distinguish *why* an input was rejected.
"""


class SteklovTreeError(Exception):
    """Base class for all package errors."""


# -- tree construction and queries -------------------------------------------

class MalformedError(SteklovTreeError):
    """Edge list is not a simple graph on contiguous ids 0..n-1."""


class TooSmallError(SteklovTreeError):
    """Tree has fewer than three vertices (no interior vertex)."""


class NotATreeError(SteklovTreeError):
    """Edge list is connected-cyclic or disconnected."""


class BadVertexError(SteklovTreeError):
    """Vertex id outside 0..n-1."""


class NotAPathError(SteklovTreeError):
    """Vertex sequence is not a diameter-realizing path of the tree."""


# -- numerics ----------------------------------------------------------------

class HarmonicResidualError(SteklovTreeError):
    """Interior residual of a harmonic solve exceeded tolerance (solver bug)."""


class NotSymmetricError(SteklovTreeError):
    """Matrix handed to a symmetric eigensolver is not symmetric."""


class BadIndexError(SteklovTreeError):
    """Eigenvalue index outside 1..m."""


class ZeroFunctionError(SteklovTreeError):
    """Rayleigh quotient of the identically-zero function is undefined."""


class DimensionMismatchError(SteklovTreeError):
    """Trial family does not span the dimension the check requires."""


class NotOrthogonalError(SteklovTreeError):
    """Trial function is not orthogonal to the boundary indicator."""


class InvariantViolationError(SteklovTreeError):
    """A mathematical invariant the package guarantees failed to verify."""


# -- partitions and test functions -------------------------------------------

class InfeasibleKError(SteklovTreeError):
    """Requested part count outside 3..|boundary|."""


class PartTooSmallError(SteklovTreeError):
    """A part owns a single boundary vertex, so no admissible split exists."""


# -- generators ---------------------------------------------------------------

class BadParamsError(SteklovTreeError):
    """Family parameters out of range."""


class NoExtremalShapeFoundError(SteklovTreeError):
    """No middle attachment of the requested size attains 2/L."""


class InfeasibleDegreeCapError(SteklovTreeError):
    """Degree cap too small for the requested family."""
