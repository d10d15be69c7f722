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

from .errors import (
    ConvergenceError,
    NumericalInconsistencyError,
    PreconditionError,
    QpairError,
    RepresentationError,
    StateFileError,
    ValidityError,
)
from .state import (
    PAULI,
    TENSOR,
    ExpectationTable,
    TwoQubitState,
    entanglement_dyadic,
    fix_global_phase,
    from_density_matrix,
    mix,
    product_state,
    pure_projector,
    random_state,
    reduced_states,
    reflect,
    table_of_five,
    to_density_matrix,
)
from .families import (
    Bell,
    Chaotic,
    GenericPure,
    Rank2Params,
    RankTwo,
    Werner,
    WernerFirst,
    WernerSecond,
    check_rotation,
    construct_family,
    rank2_family_params,
    sigma_basis,
)
from .quartic import real_quartic_roots
from .invariants import (
    GlobalInvariants,
    LocalInvariants,
    SpectrumResult,
    det_entanglement,
    global_invariants,
    local_invariants,
    spectrum,
    subdeterminant,
    trace_modulus,
)
from ._tolerances import DEFAULT_TOL
from .classify import (
    PurityRank,
    Verdict,
    is_entangled,
    is_separable,
    is_state,
    purity_rank,
)
from .canonical import (
    CanonicalForm,
    apply_local,
    diagonalize_cross,
    pure_canonical,
    rank2_canonical,
)
from .degree import (
    DegreeResult,
    LSDecomposition,
    Rank2Degree,
    WernerSecondDegree,
    degree,
    degree_rank2,
    degree_werner,
    degree_werner_first,
    degree_werner_second,
    ls_optimize,
    rank2_separable_pures,
)
from .io import FORMAT_TAG, parse_state, serialize_state

__all__ = [
    "__version__",
    "QpairError",
    "RepresentationError",
    "ValidityError",
    "PreconditionError",
    "NumericalInconsistencyError",
    "ConvergenceError",
    "StateFileError",
    "PAULI",
    "TENSOR",
    "TwoQubitState",
    "ExpectationTable",
    "to_density_matrix",
    "from_density_matrix",
    "reduced_states",
    "entanglement_dyadic",
    "product_state",
    "reflect",
    "mix",
    "random_state",
    "fix_global_phase",
    "pure_projector",
    "table_of_five",
    "Chaotic",
    "Bell",
    "GenericPure",
    "Werner",
    "WernerFirst",
    "WernerSecond",
    "Rank2Params",
    "RankTwo",
    "check_rotation",
    "sigma_basis",
    "rank2_family_params",
    "construct_family",
    "real_quartic_roots",
    "LocalInvariants",
    "GlobalInvariants",
    "SpectrumResult",
    "local_invariants",
    "subdeterminant",
    "det_entanglement",
    "trace_modulus",
    "global_invariants",
    "spectrum",
    "DEFAULT_TOL",
    "Verdict",
    "PurityRank",
    "is_state",
    "is_entangled",
    "is_separable",
    "purity_rank",
    "CanonicalForm",
    "apply_local",
    "diagonalize_cross",
    "pure_canonical",
    "rank2_canonical",
    "LSDecomposition",
    "DegreeResult",
    "WernerSecondDegree",
    "Rank2Degree",
    "degree_werner",
    "degree_werner_first",
    "degree_werner_second",
    "degree_rank2",
    "rank2_separable_pures",
    "ls_optimize",
    "degree",
    "FORMAT_TAG",
    "parse_state",
    "serialize_state",
]
