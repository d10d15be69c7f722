"""Two-qubit states as Pauli vectors and a cross dyadic.

A state of two q-bits is fixed by 15 expectation values: the Pauli
vectors s and t of the single q-bits and the 3x3 cross dyadic C of joint
correlations.  This package computes the local and global invariants of
that parameterization, decides validity, entanglement, and separability
with paired invariant/matrix routes, reduces states to canonical form
under local rotations, and computes the degree of separability through
closed forms for four families plus a certified-lower-bound optimizer.
"""

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names, re-published
# here.  The module degree is imported as _degree: qpair.degree is its function.
from . import errors, state, families, quartic, invariants, classify, canonical
from . import degree as _degree, io
from ._tolerances import DEFAULT_TOL
from .errors import *  # noqa: F403
from .state import *  # noqa: F403
from .families import *  # noqa: F403
from .quartic import *  # noqa: F403
from .invariants import *  # noqa: F403
from .classify import *  # noqa: F403
from .canonical import *  # noqa: F403
from .degree import *  # noqa: F403
from .io import *  # noqa: F403

__all__ = ["__version__", "DEFAULT_TOL"]
__all__ += errors.__all__
__all__ += state.__all__
__all__ += families.__all__
__all__ += quartic.__all__
__all__ += invariants.__all__
__all__ += classify.__all__
__all__ += canonical.__all__
__all__ += _degree.__all__
__all__ += io.__all__
