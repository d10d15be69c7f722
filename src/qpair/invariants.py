"""Local invariants, global invariants, and the eigenvalue quartic.

Nine polynomial combinations of (s, t, C) are invariant under independent
proper rotations of the two qubit frames.  Three further combinations are
invariant under every unitary of the pair and are the nontrivial
coefficients of the characteristic quartic of the density matrix, so the
whole spectrum is available without ever forming the 4x4 matrix.  The
matrix route is kept alive as a cross-check and both paths must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._tolerances import CROSS_CHECK_TOL, ROUNDING_TOL
from .errors import NumericalInconsistencyError
from .quartic import real_quartic_roots
from .state import TwoQubitState, _eigenvalues, _memo, entanglement_dyadic

# relative gap allowed in trace_modulus between the zeta cubic's coefficients two ways
_CUBIC_CHECK_TOL = 1e-10

__all__ = [
    "LocalInvariants",
    "GlobalInvariants",
    "SpectrumResult",
    "local_invariants",
    "subdeterminant",
    "det_entanglement",
    "trace_modulus",
    "global_invariants",
    "spectrum",
]


@dataclass(frozen=True)
class LocalInvariants:
    """The nine rotation invariants of a state.

    Superscripts in the naming give the polynomial degree in the state
    parameters, so mixing with the chaotic state at weight x scales a
    degree-n invariant by x**n.
    """

    a2_1: float  # tr(C^T C)
    a2_2: float  # s.s
    a2_3: float  # t.t
    a3_1: float  # det C
    a3_2: float  # s.C.t
    a4_1: float  # tr((C^T C)^2)
    a4_2: float  # s.sub(C).t
    a4_3: float  # s.C C^T.s
    a4_4: float  # t.C^T C.t


@dataclass(frozen=True)
class GlobalInvariants:
    """Unitary invariants: coefficients of the eigenvalue quartic.

    kappa^4 - A2 kappa^2 + A1 kappa - A0 = 0, where each density-matrix
    eigenvalue is (1 - kappa)/4.  Mixing with the chaotic state at weight
    x scales A_k by x**(4-k).
    """

    A2: float
    A1: float
    A0: float


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Quartic roots kappa (descending) and eigenvalues (1 - kappa)/4.

    The two arrays correspond index by index, so the eigenvalues come out
    ascending.  kappa sums to zero (the quartic has no cubic term) and the
    eigenvalues sum to one.
    """

    kappa: np.ndarray
    eigenvalues: np.ndarray


def subdeterminant(c) -> np.ndarray:
    """Matrix of signed 2x2 cofactors, satisfying C.sub(C)^T = det(C).1.

    Row i is the cross product of the other two rows in cyclic order; for
    diagonal C = diag(c1, c2, c3) this gives diag(c2*c3, c3*c1, c1*c2).
    The nine cofactors are written out as scalars, since three ``np.cross``
    calls on 3-vectors cost some 30 times as much.  Each entry is the
    a*b - c*d that ``np.cross`` evaluates, in the same order, so the result
    matches its cross-product rows bit for bit, signed zeros included.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {c.shape}")
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = c.tolist()
    return np.array(
        [
            [c11 * c22 - c12 * c21, c12 * c20 - c10 * c22, c10 * c21 - c11 * c20],
            [c21 * c02 - c22 * c01, c22 * c00 - c20 * c02, c20 * c01 - c21 * c00],
            [c01 * c12 - c02 * c11, c02 * c10 - c00 * c12, c00 * c11 - c01 * c10],
        ]
    )


def local_invariants(state: TwoQubitState) -> LocalInvariants:
    return _invariants(state)[0]


def _invariants(state):
    """(LocalInvariants, GlobalInvariants) of ``state``, evaluated once per state (the slot)."""
    return _memo(state, "invariants", _evaluate_invariants)


def _evaluate_invariants(state):
    s, t, c = state.s, state.t, state.C
    g = c.T @ c
    loc = LocalInvariants(
        a2_1=float(np.trace(g)),
        a2_2=float(s @ s),
        a2_3=float(t @ t),
        a3_1=float(np.linalg.det(c)),
        a3_2=float(s @ c @ t),
        a4_1=float(np.trace(g @ g)),
        a4_2=float(s @ subdeterminant(c) @ t),
        a4_3=float(s @ (c @ c.T) @ s),
        a4_4=float(t @ g @ t),
    )
    return loc, global_invariants(loc)


def det_entanglement(state: TwoQubitState) -> float:
    """det E = det C - s.sub(C).t, checked against det(C - s t^T) directly."""
    loc = local_invariants(state)
    value = loc.a3_1 - loc.a4_2
    direct = float(np.linalg.det(entanglement_dyadic(state)))
    tol = ROUNDING_TOL * max(1.0, abs(loc.a3_1) + abs(loc.a4_2))
    if abs(value - direct) > tol:
        raise NumericalInconsistencyError(
            f"det E mismatch: invariant form {value!r} vs direct determinant "
            f"{direct!r} (difference {abs(value - direct):.3e})"
        )
    return value


def trace_modulus(c) -> float:
    """Sum of the singular values of C, i.e. the trace of sqrt(C^T C).

    The eigenvalues zeta_k of C^T C come from a symmetric eigensolve; their
    elementary symmetric functions are then verified against the invariant
    expressions tr(C^T C), tr((C^T C)^2) and (det C)^2, which are the
    coefficients of the cubic the zeta_k satisfy.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {c.shape}")
    g = c.T @ c
    zeta = np.linalg.eigvalsh(g)
    zeta = np.clip(zeta, 0.0, None)

    a2_1 = float(np.trace(g))
    a4_1 = float(np.trace(g @ g))
    a3_1 = float(np.linalg.det(c))
    e1 = float(np.sum(zeta))
    e2 = float(zeta[0] * zeta[1] + zeta[1] * zeta[2] + zeta[2] * zeta[0])
    e3 = float(zeta[0] * zeta[1] * zeta[2])
    norm = max(1.0, e1)
    checks = (
        ("sum", e1, a2_1, norm),
        ("pair sum", e2, 0.5 * (a2_1 * a2_1 - a4_1), norm * norm),
        ("product", e3, a3_1 * a3_1, norm * norm * norm),
    )
    for name, got, want, scale in checks:
        if abs(got - want) > _CUBIC_CHECK_TOL * scale:
            raise NumericalInconsistencyError(
                f"cubic coefficient self-check failed for zeta {name}: "
                f"eigensolve gives {got!r}, invariants give {want!r}"
            )
    return float(np.sum(np.sqrt(zeta)))


def global_invariants(loc: LocalInvariants) -> GlobalInvariants:
    a0 = (
        loc.a2_1**2
        - 2.0 * loc.a2_1 * (loc.a2_2 + loc.a2_3)
        - (loc.a2_2 - loc.a2_3) ** 2
        - 2.0 * loc.a4_1
        - 8.0 * loc.a4_2
        + 4.0 * loc.a4_3
        + 4.0 * loc.a4_4
    )
    return GlobalInvariants(
        A2=2.0 * (loc.a2_1 + loc.a2_2 + loc.a2_3),
        A1=8.0 * (loc.a3_2 - loc.a3_1),
        A0=a0,
    )


def spectrum(state: TwoQubitState) -> SpectrumResult:
    """Density-matrix eigenvalues via the invariant quartic.

    Solves kappa^4 - A2 kappa^2 + A1 kappa - A0 = 0 and maps each root to
    the eigenvalue (1 - kappa)/4.  A direct Hermitian eigensolve of the
    4x4 matrix runs alongside; the two spectra must agree to
    ``CROSS_CHECK_TOL`` but neither result is adjusted toward the other.
    """
    glob = _invariants(state)[1]
    kappa = real_quartic_roots(0.0, -glob.A2, glob.A1, -glob.A0)
    eigenvalues = (1.0 - kappa) / 4.0

    gap = float(np.max(np.abs(np.sort(eigenvalues) - _eigenvalues(state))))
    if gap > CROSS_CHECK_TOL:
        raise NumericalInconsistencyError(
            f"quartic spectrum and direct eigensolve disagree by {gap:.3e}"
        )
    kappa.setflags(write=False)
    eigenvalues.setflags(write=False)
    return SpectrumResult(kappa=kappa, eigenvalues=eigenvalues)
