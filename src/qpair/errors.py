"""Exception types shared across the package."""

__all__ = [
    "QpairError",
    "RepresentationError",
    "ValidityError",
    "PreconditionError",
    "NumericalInconsistencyError",
    "ConvergenceError",
    "StateFileError",
]


class QpairError(Exception):
    """Base class for all errors raised by this package."""


class RepresentationError(QpairError):
    """A matrix or vector does not satisfy its representation contract.

    Raised for non-Hermitian or wrong-trace density matrices and for
    malformed pure-state vectors.  The message names the violated property
    and the size of the violation.
    """


class PreconditionError(QpairError):
    """An operation was called on input outside its stated domain."""


class ValidityError(PreconditionError):
    """A parameter set fails positivity where a valid state is required.

    Raised by every routine that needs a state and by failing family
    constructors.  Carries the most negative eigenvalue in ``min_eigenvalue``.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NumericalInconsistencyError(QpairError):
    """Two redundant computation paths disagree beyond tolerance."""


class ConvergenceError(QpairError):
    """An iterative solver exhausted its budget without meeting its target.

    Carries the best residual reached in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class StateFileError(QpairError):
    """A state file failed to parse.  ``location`` names the offending field."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location
