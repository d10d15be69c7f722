"""Core representation of a two-qubit state and conversions between forms.

A state is stored as two Pauli vectors and a cross dyadic: s = <sigma>,
t = <tau>, and the 3x3 matrix C with C[a, b] = <sigma_a tau_b>.  These 15
real numbers are equivalent to the density matrix

    P = (1/4) (1 + s.sigma + t.tau + sigma.C.tau)

written in the product basis |00>, |01>, |10>, |11>, where the first factor
is qubit 1 and |0> is the +1 eigenstate of sigma_z.  Validity (positivity of
P) is deliberately not enforced at construction time; candidate parameter
sets that fail positivity are legitimate inputs for the classification
routines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._tolerances import DEFAULT_TOL, ROUNDING_TOL
from .errors import RepresentationError

__all__ = [
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
]

# Pauli matrices, index 0 the identity, then x, y, z.
PAULI = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=np.complex128,
)

# TENSOR[i, j] = kron(PAULI[i], PAULI[j]); the 16 of them are trace-orthogonal
# with tr(TENSOR[i,j] TENSOR[k,l]) = 4 delta_ik delta_jl.
TENSOR = np.empty((4, 4, 4, 4), dtype=np.complex128)
for _i in range(4):
    for _j in range(4):
        TENSOR[_i, _j] = np.kron(PAULI[_i], PAULI[_j])
del _i, _j

_AXES = "xyz"


def _frozen_array(value, shape, name):
    arr = np.array(value, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """The 15 parameters (s, t, C) of a two-qubit operator.

    Attributes
    ----------
    s : ndarray, shape (3,)
        Pauli vector of qubit 1.
    t : ndarray, shape (3,)
        Pauli vector of qubit 2.
    C : ndarray, shape (3, 3)
        Cross dyadic, C[a, b] = <sigma_a tau_b>.
    """

    s: np.ndarray
    t: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", _frozen_array(self.s, (3,), "s"))
        object.__setattr__(self, "t", _frozen_array(self.t, (3,), "t"))
        object.__setattr__(self, "C", _frozen_array(self.C, (3, 3), "C"))

    def as_vector(self):
        """All 15 parameters as one flat array (s, then t, then C rows)."""
        return np.concatenate([self.s, self.t, self.C.ravel()])

    def __repr__(self):
        return (
            f"TwoQubitState(s={np.array2string(self.s, precision=6)}, "
            f"t={np.array2string(self.t, precision=6)}, "
            f"C={np.array2string(self.C, precision=6, prefix='C=')})"
        )


def to_density_matrix(state: TwoQubitState) -> np.ndarray:
    """Expand (s, t, C) into the 4x4 density matrix.

    The result is Hermitian with unit trace by construction; it is positive
    semidefinite only if the parameters describe an actual state.
    """
    coeff = np.zeros((4, 4))
    coeff[0, 0] = 1.0
    coeff[1:, 0] = state.s
    coeff[0, 1:] = state.t
    coeff[1:, 1:] = state.C
    return 0.25 * np.einsum("ij,ijkl->kl", coeff, TENSOR)


# The slot: (state, its parameters' bytes, {key: immutable value}) of the state analysed last,
# so questions about one state derive each quantity once.  Another object, or this one changed
# in place, replaces the whole tuple; concurrent callers can only miss, never swap answers.
_slot = (None, b"", {})


def _memo(state, key, compute, *args):
    """``compute(state, *args)``, kept in the slot under ``key``; a raise keeps nothing."""
    global _slot
    tag = state.s.tobytes() + state.t.tobytes() + state.C.tobytes()
    last, last_tag, values = _slot
    if last is not state or last_tag != tag:
        values = {}
        _slot = (state, tag, values)
    if key not in values:
        values[key] = compute(state, *args)
    return values[key]


def _eigenvalues(state):
    """Ascending, read-only eigenvalues of the density matrix, from the slot."""
    return _memo(state, "eigenvalues", _eigensolve)


def _eigensolve(state):
    eigs = np.linalg.eigvalsh(to_density_matrix(state))
    eigs.setflags(write=False)
    return eigs


def from_density_matrix(m, tol: float = DEFAULT_TOL) -> TwoQubitState:
    """Read the 15 Pauli parameters off a density matrix.

    Parameters
    ----------
    m : array_like, shape (4, 4)
        Hermitian unit-trace matrix in the documented basis.
    tol : float
        Allowed deviation from Hermiticity and unit trace (default ``DEFAULT_TOL``).

    Returns
    -------
    TwoQubitState

    Raises
    ------
    RepresentationError
        If ``m`` has a non-finite entry, or is not Hermitian or not unit-trace
        within ``tol``.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise RepresentationError(f"density matrix must be 4x4, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise RepresentationError("density matrix has non-finite entries")
    herm = np.max(np.abs(m - m.conj().T))
    if herm > tol:
        raise RepresentationError(
            f"matrix is not Hermitian: max |M - M^dagger| = {herm:.3e} > {tol:.1e}"
        )
    tr = m.trace()
    if abs(tr - 1.0) > tol:
        raise RepresentationError(
            f"matrix trace is {tr.real:.17g}, expected 1 within {tol:.1e}"
        )
    coeff = np.einsum("ijkl,lk->ij", TENSOR, m).real
    return TwoQubitState(s=coeff[1:, 0], t=coeff[0, 1:], C=coeff[1:, 1:])


def reduced_states(state: TwoQubitState):
    """Pauli vectors (s, t) of the two single-qubit reductions."""
    return state.s.copy(), state.t.copy()


def entanglement_dyadic(state: TwoQubitState) -> np.ndarray:
    """E = C - s t^T; the state is entangled exactly when E is nonzero."""
    return state.C - np.outer(state.s, state.t)


def product_state(s, t) -> TwoQubitState:
    """The uncorrelated state with given single-qubit Pauli vectors."""
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    return TwoQubitState(s=s, t=t, C=np.outer(s, t))


def reflect(state: TwoQubitState, kind: str) -> TwoQubitState:
    """Apply a reflection to the state parameters.

    ``kind="global"`` flips both Pauli vectors, (s, t, C) -> (-s, -t, C);
    the result is unitarily equivalent and has the same spectrum.
    ``kind="partial"`` flips one side, (s, t, C) -> (-s, t, -C); this is the
    non-unitary partial-transpose analog whose spectrum decides separability.
    """
    if kind == "global":
        return TwoQubitState(s=-state.s, t=-state.t, C=state.C)
    if kind == "partial":
        return TwoQubitState(s=-state.s, t=state.t, C=-state.C)
    raise ValueError(f"kind must be 'global' or 'partial', got {kind!r}")


def mix(states, weights) -> TwoQubitState:
    """Convex combination of states, componentwise on (s, t, C).

    Parameters
    ----------
    states : sequence of TwoQubitState
    weights : sequence of float
        Nonnegative, summing to 1 within ``DEFAULT_TOL``.
    """
    states = list(states)
    weights = np.asarray(weights, dtype=np.float64)
    if len(states) != weights.size:
        raise ValueError(
            f"got {len(states)} states but {weights.size} weights"
        )
    if weights.size == 0:
        raise ValueError("cannot mix zero states")
    if np.any(weights < 0):
        raise ValueError(f"negative mixing weight: {weights.min():.3e}")
    total = weights.sum()
    if not abs(total - 1.0) <= DEFAULT_TOL:  # a NaN weight fails too
        raise ValueError(f"weights sum to {total:.17g}, expected 1 within {DEFAULT_TOL:.1e}")
    s = sum(w * st.s for w, st in zip(weights, states))
    t = sum(w * st.t for w, st in zip(weights, states))
    c = sum(w * st.C for w, st in zip(weights, states))
    return TwoQubitState(s=s, t=t, C=c)


def random_state(seed, target_rank=None) -> TwoQubitState:
    """Draw a random valid state, deterministic for a fixed seed.

    Samples G G^dagger / tr(G G^dagger) with G a 4 x k matrix of independent
    standard complex normals, k = ``target_rank`` (1..4) or 4.  The result is
    positive by construction with rank k almost surely.
    """
    k = 4 if target_rank is None else int(target_rank)
    if not 1 <= k <= 4:
        raise ValueError(f"target_rank must be in 1..4, got {target_rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
    m = g @ g.conj().T
    m /= m.trace().real
    return from_density_matrix(m)


def fix_global_phase(psi) -> np.ndarray:
    """Normalize a pure-state 4-vector and fix its global phase.

    The phase is chosen so the first component of magnitude above
    ``ROUNDING_TOL`` is real and positive.  A vector with a norm below
    ``ROUNDING_TOL``, or not finite, raises ``RepresentationError``.
    """
    psi = np.asarray(psi, dtype=np.complex128).reshape(4)
    norm = np.linalg.norm(psi)
    if not ROUNDING_TOL <= norm < np.inf:
        raise RepresentationError(f"pure-state vector has norm {norm:.3e}")
    psi = psi / norm
    for comp in psi:
        if abs(comp) > ROUNDING_TOL:
            psi = psi * (comp.conjugate() / abs(comp))
            break
    return psi


def pure_projector(psi) -> np.ndarray:
    """Density matrix |psi><psi| of a normalized pure-state vector.

    A vector with a non-finite entry, or with a norm more than
    ``DEFAULT_TOL`` away from 1, raises ``RepresentationError``.
    """
    psi = np.asarray(psi, dtype=np.complex128).reshape(4)
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= DEFAULT_TOL:  # a non-finite entry fails too
        raise RepresentationError(
            f"pure-state vector has norm {norm:.17g}, expected 1 within {DEFAULT_TOL:.1e}"
        )
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class ExpectationTable:
    """The minimal set of five three-outcome measurements fixing the state.

    Three rows pair equal axes on both qubits and carry the two single-qubit
    values plus the correlation; the last two rows carry the cyclic and
    anticyclic off-diagonal correlations.  The 15 numbers reproduce
    (s, t, C) exactly.
    """

    rows: tuple

    def reassemble(self) -> TwoQubitState:
        """Rebuild the state from the tabulated expectation values."""
        values = {name: value for _, entries in self.rows for name, value in entries}
        s = np.array([values[f"sigma_{ax}"] for ax in _AXES])
        t = np.array([values[f"tau_{ax}"] for ax in _AXES])
        c = np.array(
            [[values[f"sigma_{a} tau_{b}"] for b in _AXES] for a in _AXES]
        )
        return TwoQubitState(s=s, t=t, C=c)


def table_of_five(state: TwoQubitState) -> ExpectationTable:
    """Group the 15 expectation values into five measurement rows."""
    s, t, c = state.s, state.t, state.C
    rows = []
    for i, ax in enumerate(_AXES):
        rows.append(
            (
                f"{ax}{ax}",
                (
                    (f"sigma_{ax}", float(s[i])),
                    (f"tau_{ax}", float(t[i])),
                    (f"sigma_{ax} tau_{ax}", float(c[i, i])),
                ),
            )
        )
    cyclic = [(0, 1), (1, 2), (2, 0)]
    rows.append(
        (
            "cyclic",
            tuple(
                (f"sigma_{_AXES[a]} tau_{_AXES[b]}", float(c[a, b])) for a, b in cyclic
            ),
        )
    )
    rows.append(
        (
            "anticyclic",
            tuple(
                (f"sigma_{_AXES[b]} tau_{_AXES[a]}", float(c[b, a])) for a, b in cyclic
            ),
        )
    )
    return ExpectationTable(rows=tuple(rows))
