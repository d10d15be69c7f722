"""Validity, entanglement, separability, and rank decisions.

Positivity and separability each have two independent routes: inequalities
in the global invariants, and a direct Hermitian eigensolve (of the state,
or of its partial reflection).  Both run on every state, positivity once per
state and ``tol`` (``state._memo``'s slot serves every later decider), and
both margins are reported; the routes must agree, and a disagreement that
cannot be blamed on boundary rounding raises instead of picking a side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._tolerances import DEFAULT_TOL
from .errors import NumericalInconsistencyError, ValidityError
from .invariants import GlobalInvariants, _invariants, det_entanglement
from .state import TwoQubitState, _eigenvalues, _memo, entanglement_dyadic, reflect
from .state import to_density_matrix

__all__ = ["Verdict", "PurityRank", "is_state", "is_entangled", "is_separable", "purity_rank"]

# decisions that differ while both offending margins sit this far from the
# boundary cannot be rounding; something upstream is broken
_CLEAR_BAND_FACTOR = 1000.0
# eigenvalue perturbations of size tol move the quartic slacks by a bounded
# factor; purity_rank's cross-check encloses them in this many tol
_PURITY_BAND_FACTOR = 100.0
_POSITIVITY_MARGINS = ("quartic_value", "quartic_slope", "quartic_curvature", "min_eigenvalue")
_SEPARABILITY_MARGINS = ("reflected_quartic_value", "reflected_quartic_slope",
                         "reflected_min_eigenvalue")


@dataclass(frozen=True)
class Verdict:
    """Boolean decision plus the slack of every inequality behind it."""

    decision: bool
    margins: Mapping[str, float]

    def __bool__(self):
        return self.decision


@dataclass(frozen=True)
class PurityRank:
    rank: int
    pure: bool


def _quartic_margins(glob: GlobalInvariants):
    """Slacks of the three positivity inequalities.

    They are the value, slope, and (half) curvature of the eigenvalue
    quartic at kappa = 1; all three nonnegative is equivalent to
    max kappa <= 1, i.e. to a nonnegative spectrum, because all roots
    are real.
    """
    return (
        1.0 - (glob.A2 - glob.A1 + glob.A0),
        4.0 - (2.0 * glob.A2 - glob.A1),
        6.0 - glob.A2,
    )


def _decide(inv_margins, min_eig, tol, what):
    """Conjunction of the invariant and eigensolve routes at ``tol``.

    The routes may disagree only by boundary rounding; a disagreement with
    both offending margins outside the clear band raises instead.
    """
    worst = min(inv_margins)
    inv_ok, mat_ok = worst >= -tol, min_eig >= -tol
    band = _CLEAR_BAND_FACTOR * tol
    if inv_ok != mat_ok and abs(worst) > band and abs(min_eig) > band:
        raise NumericalInconsistencyError(
            f"{what}: invariant inequalities give {inv_ok} (worst slack {worst:.6e}) "
            f"but the eigensolve gives {mat_ok} (margin {min_eig:.6e})"
        )
    return inv_ok and mat_ok


def _positivity_pass(state, tol):
    inv_margins = _quartic_margins(_invariants(state)[1])
    min_eig = float(_eigenvalues(state)[0])
    return _decide(inv_margins, min_eig, tol, "positivity"), (*inv_margins, min_eig)


def is_state(state: TwoQubitState, tol: float = DEFAULT_TOL) -> Verdict:
    """Decide positivity, i.e. whether the parameters describe a state.

    Margins: ``quartic_value``, ``quartic_slope``, ``quartic_curvature``
    are the slacks of the three invariant inequalities; ``min_eigenvalue``
    is the smallest eigenvalue from the direct eigensolve.  The decision
    is the conjunction of both routes at ``tol``.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    decision, margins = _memo(state, ("positivity", tol), _positivity_pass, tol)
    return Verdict(decision, dict(zip(_POSITIVITY_MARGINS, margins)))


def _require_state(state, tol, who):
    """The one validity decision: raise ``ValidityError`` unless ``state`` is a state."""
    verdict = is_state(state, tol)
    if not verdict.decision:
        raise ValidityError(
            f"{who} requires a valid state; positivity margins {dict(verdict.margins)}",
            min_eigenvalue=verdict.margins["min_eigenvalue"],
        )


def is_entangled(state: TwoQubitState, tol: float = DEFAULT_TOL) -> bool:
    """True when the entanglement dyadic E = C - s t^T is nonzero.

    Entangled is not the opposite of separable: separable states with
    classical correlations still have E != 0.
    """
    _require_state(state, tol, "is_entangled")
    return float(np.max(np.abs(entanglement_dyadic(state)))) > tol


def is_separable(state: TwoQubitState, tol: float = DEFAULT_TOL) -> Verdict:
    """Decide separability by the partial-reflection positivity criterion.

    The partial reflection flips the signs of det C and s.sub(C).t and
    nothing else, so its positivity inequalities reduce to

        A2 - A1 + A0 <= 1 + 16 det E    and    2 A2 - A1 <= 4 + 16 det C

    (the third inequality A2 <= 6 is reflection-invariant and already
    granted by validity).  Margins: ``reflected_quartic_value`` and
    ``reflected_quartic_slope`` are the invariant slacks,
    ``reflected_min_eigenvalue`` comes from eigensolving the reflected
    matrix.  Decision is the conjunction of both routes at ``tol``.
    """
    _require_state(state, tol, "is_separable")
    loc, glob = _invariants(state)
    inv_margins = (
        1.0 + 16.0 * det_entanglement(state) - (glob.A2 - glob.A1 + glob.A0),
        4.0 + 16.0 * loc.a3_1 - (2.0 * glob.A2 - glob.A1),
    )
    min_eig = float(np.linalg.eigvalsh(to_density_matrix(reflect(state, "partial")))[0])
    decision = _decide(inv_margins, min_eig, tol, "separability")
    return Verdict(decision, dict(zip(_SEPARABILITY_MARGINS, (*inv_margins, min_eig))))


def purity_rank(state: TwoQubitState, tol: float = DEFAULT_TOL) -> PurityRank:
    """Rank of the density matrix and whether the state is pure.

    Rank counts eigenvalues above ``tol``.  Purity is cross-checked
    against the invariant characterization (the three positivity
    inequalities all tight); rank 2 against its own pair of equalities
    with the subspace radius x^2 = (A2 - 2)/4 below 1.
    """
    _require_state(state, tol, "purity_rank")
    rank = int(np.sum(_eigenvalues(state) > tol))
    pure = rank == 1

    glob = _invariants(state)[1]
    m1, m2, m3 = _quartic_margins(glob)
    band = _PURITY_BAND_FACTOR * tol
    if pure and max(abs(m1), abs(m2), abs(m3)) > band:
        raise NumericalInconsistencyError(
            f"rank 1 by eigensolve but pure-state equalities are off by "
            f"({m1:.3e}, {m2:.3e}, {m3:.3e})"
        )
    if rank == 2:
        x_sq = (glob.A2 - 2.0) / 4.0
        if max(abs(m1), abs(m2)) > band or not -band <= x_sq <= 1.0 + band:
            raise NumericalInconsistencyError(
                f"rank 2 by eigensolve but subspace equalities are off: "
                f"value {m1:.3e}, slope {m2:.3e}, x^2 = {x_sq:.6g}"
            )
    return PurityRank(rank=rank, pure=pure)
