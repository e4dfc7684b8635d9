"""Exception hierarchy shared across the package."""


class PerfstructError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PerfstructError, ValueError):
    """An input or argument fails validation; a ValueError too, for old callers."""


class DomainMismatchError(PerfstructError):
    """Operands live in different scalar domains (exact vs. complex)."""


class DimensionError(PerfstructError):
    """Matrix or vector shapes are incompatible."""


class SingularMatrixError(PerfstructError):
    """A matrix required to be invertible is singular."""


class DefectiveMatrixError(PerfstructError):
    """A matrix required to be diagonalizable has a defective eigenspace."""


class NonConvergenceError(PerfstructError):
    """The eigensolver failed to reach the requested residual."""


class NonFiniteError(PerfstructError):
    """A complex product or Kronecker product has an infinite or nan entry."""


class UnverifiedStructureError(PerfstructError):
    """An operation requires a verified perfect structure and got one that is not."""


class NoParameterMatrixError(PerfstructError):
    """The column span of the structure matrix is not invariant: no S with MP = PS."""


class ExcludedEigenvalueError(PerfstructError):
    """A contraction formula was applied at an eigenvalue where it is undefined."""


class ZeroContractionError(PerfstructError):
    """The contracted vector vanished, so no eigenvalue can be certified."""


class HypothesisNotMetError(PerfstructError):
    """A theorem's hypothesis fails on this input; the conclusion is not tested."""
