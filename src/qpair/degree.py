"""Degree of separability.

The degree S of a state is the largest weight lambda such that the state
splits as lambda * (separable) + (1 - lambda) * (pure).  Four families have
closed forms.  ``ls_optimize`` computes the split itself: separable and pure
inputs are immediate, an entangled rank-2 state has an exact
one-dimensional solve over the product states of its support, and ranks 3
and 4 go to a numerical search over the pure part whose result is a
certified lower bound (every feasible split witnesses lambda <= S).  The
closed forms and ``ls_optimize`` double as cross-checks for each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
from scipy.optimize import minimize

from . import _kernels
from .canonical import rank2_canonical
from .classify import DEFAULT_TOL, is_separable, is_state, purity_rank
from .errors import ConvergenceError, NumericalInconsistencyError, PreconditionError
from .families import Rank2Params
from .invariants import local_invariants, spectrum, trace_modulus
from .state import (
    TwoQubitState,
    fix_global_phase,
    from_density_matrix,
    pure_projector,
    to_density_matrix,
)

__all__ = [
    "LSDecomposition",
    "DegreeResult",
    "WernerSecondDegree",
    "Rank2Degree",
    "degree_werner",
    "degree_werner_first",
    "degree_werner_second",
    "degree_rank2",
    "rank2_separable_pures",
    "ls_lambda_for_pure",
    "ls_optimize",
    "degree",
]

# eigenvalue slack allowed on the normalized separable part of a split
_FEAS_TOL = 1e-10
# resolution of the weight bisection in the rank-3/4 search
_LAM_TOL = 1e-6
# golden-section steps of the rank-2 mixture weight: 0.618^70 < 1e-14
_GOLDEN_STEPS = 70


@dataclass(frozen=True, eq=False)
class LSDecomposition:
    """A feasible split lambda * sep + (1 - lambda) * pure of a state.

    ``lambda_`` carries a trailing underscore only because of the Python
    keyword.  ``pure`` is a normalized phase-fixed 4-vector, or None for a
    separable input (lambda 1, nothing left over).  ``margins`` holds the
    positivity and reflected-positivity slack of the separable part;
    ``objective_history`` records (restart index, best lambda so far).
    """

    lambda_: float
    sep: TwoQubitState
    pure: Optional[np.ndarray]
    margins: Mapping[str, float]
    objective_history: tuple


@dataclass(frozen=True, eq=False)
class DegreeResult:
    """S with the route that produced it.

    ``method`` is one of SeparableShortcut, ClosedFormWernerFirst,
    ClosedFormWernerSecond, ClosedFormRank2, Optimizer.  Closed forms are
    exact; the Optimizer value is a lower bound on S.  ``family_data``
    carries route-specific numbers (q0, p0, pair kind, detected family
    parameters).
    """

    S: float
    method: str
    decomposition: Optional[LSDecomposition] = None
    family_data: Optional[Mapping] = None


@dataclass(frozen=True)
class WernerSecondDegree:
    S: float
    q0: Optional[float]
    p0: Optional[float]


@dataclass(frozen=True)
class Rank2Degree:
    S: float
    pair_kind: Optional[str]  # "a", "b", or "c"; None on the separable shortcut


def degree_werner(x: float) -> float:
    """Closed form for Bell-chaos mixtures: 1 for x <= 1/3, else 3(1-x)/2."""
    if not -1.0 / 3.0 - 1e-12 <= x <= 1.0 + 1e-12:
        raise ValueError(f"Werner weight must lie in [-1/3, 1], got {x}")
    if x <= 1.0 / 3.0:
        return 1.0
    return 1.5 * (1.0 - x)


def _pauli_vectors_vanish(state: TwoQubitState, tol: float) -> bool:
    """s = t = 0 at ``tol``: the test for the vanishing-Pauli-vector family."""
    return float(np.max(np.abs(state.s))) <= tol and float(np.max(np.abs(state.t))) <= tol


def degree_werner_first(state: TwoQubitState, tol: float = DEFAULT_TOL) -> float:
    """Closed form for states with vanishing Pauli vectors.

    S = 1 when det C >= 0 or the trace modulus of C is at most 1, else
    3/2 - (1/2) Spur|C|.  ``tol`` decides s = t = 0 and validity.
    """
    if not _pauli_vectors_vanish(state, tol):
        raise PreconditionError("degree_werner_first requires s = t = 0")
    if not is_state(state, tol).decision:
        raise PreconditionError("degree_werner_first requires a valid state")
    det_c = local_invariants(state).a3_1
    tm = trace_modulus(state.C)
    if det_c >= 0.0 or tm <= 1.0:
        return 1.0
    return 1.5 - 0.5 * tm


def _werner_second_gap(q0, x, p, q, u):
    """Constraint gap for the second-kind q0 condition; feasible iff <= 0.

    Unimodal in q0 on (0, 1]: the right-hand side is constant and the
    left-hand side has a single interior minimum.
    """
    p0 = math.sqrt(max(0.0, 1.0 - q0 * q0))
    lhs = (1.0 + x - 2.0 * x * p * p0) / q0
    rhs = u + (x - x * x * p * p) / u
    return lhs - rhs


def degree_werner_second(x: float, p: float) -> WernerSecondDegree:
    """Closed form for chaos mixed with a generic pure state at weight x.

    Separable up to x = 1/(1 + 2q), q = sqrt(1 - p^2).  Beyond that,
    S = 1 - ((1 + 2q) x - 1)/(2 q0) where q0 is the largest value in
    (0, 1] obeying the feasibility condition; found by a 1024-point scan
    plus bisection to 1e-10, with a golden-section fallback on the
    unimodal gap because the feasible interval pinches to a single point
    as x -> 1.
    """
    if not -1.0 / 3.0 - 1e-12 <= x <= 1.0 + 1e-12:
        raise ValueError(f"mixing weight must lie in [-1/3, 1], got {x}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"pure-part parameter must lie strictly in (0, 1), got {p}")
    q = math.sqrt(1.0 - p * p)
    if x <= 1.0 / (1.0 + 2.0 * q):
        return WernerSecondDegree(S=1.0, q0=None, p0=None)
    u = 0.5 * ((1.0 + 2.0 * q) * x - 1.0)

    def gap(q0):
        return _werner_second_gap(q0, x, p, q, u)

    if gap(1.0) <= 0.0:
        q0 = 1.0
    else:
        n = 1024
        found = None
        prev = 1.0
        for k in range(1, n):
            cand = 1.0 - k / n
            if gap(cand) <= 0.0:
                found = cand
                break
            prev = cand
        if found is not None:
            lo, hi = found, prev
        else:
            # interval narrower than the scan: golden-section the minimum
            qm, neg_gm = _kernels._golden_max(lambda q0: -gap(q0), 90)
            gm = -neg_gm
            if gm > 1e-12:
                raise ConvergenceError(
                    f"no feasible q0 for x = {x}, p = {p} (minimal gap {gm:.3e})",
                    residual=gm,
                )
            if gm >= -1e-12:
                # feasible set degenerated to (numerically) one point
                lo = hi = qm
            else:
                lo, hi = qm, 1.0
        q0 = _kernels._bisect(lambda q0: gap(q0) <= 0.0, lo, hi, 1e-10)
    p0 = math.sqrt(max(0.0, 1.0 - q0 * q0))
    s_val = 1.0 - u / q0
    return WernerSecondDegree(S=min(1.0, max(0.0, s_val)), q0=q0, p0=p0)


def _rank2_theta(params: Rank2Params) -> float:
    """The angle with cos(2 theta) = tan(gamma2)/tan(gamma1), in [0, pi/4]."""
    ratio = (math.sin(params.gamma2) * math.cos(params.gamma1)) / (
        math.cos(params.gamma2) * math.sin(params.gamma1)
    )
    return 0.5 * math.acos(min(1.0, max(0.0, ratio)))


def degree_rank2(params: Rank2Params, tol: float = DEFAULT_TOL) -> Rank2Degree:
    """Closed form for rank-2 states in their generic form.

    Degenerate subspaces (sin gamma1 cos gamma2 = 0) contain only
    separable states.  Otherwise the optimal decomposition uses a pair of
    pure states of one of three kinds, selected by an inequality in
    (theta, x); at separable inputs both formulas turn 0/0, so separability
    is settled first.
    """
    if not isinstance(params, Rank2Params):
        raise TypeError(f"expected Rank2Params, got {type(params).__name__}")
    s1 = math.sin(params.gamma1)
    c2 = math.cos(params.gamma2)
    if s1 * c2 <= 1e-12:
        return Rank2Degree(S=1.0, pair_kind=None)
    from .families import RankTwo, construct_family

    state = construct_family(RankTwo(params))
    if is_separable(state, tol).decision:
        return Rank2Degree(S=1.0, pair_kind=None)

    theta = _rank2_theta(params)
    st, ct = math.sin(theta), math.cos(theta)
    s2t, c2t = math.sin(2.0 * theta), math.cos(2.0 * theta)
    x1, x2, x3 = params.x1, params.x2, params.x3
    ax1 = abs(x1)
    lhs = ((1.0 + x3) * st - ax1 * ct) * ((1.0 - x3) * ct - ax1 * st)
    if lhs <= x2 * x2 * st * ct:
        s_val = (0.5 * (1.0 - params.x_sq)) / (1.0 - x3 * c2t - ax1 * s2t)
        kind = "b" if x1 >= 0.0 else "c"
    else:
        root = math.hypot(x3 - c2t, x2 * s2t)
        s_val = (1.0 - x3 * c2t - root) / (s2t * s2t)
        kind = "a"
    return Rank2Degree(S=min(1.0, max(0.0, s_val)), pair_kind=kind)


def rank2_separable_pures(gamma1: float, gamma2: float):
    """Pure separable points of the rank-2 family at given angles.

    Returns two parameter records x = (+-sin 2theta, 0, cos 2theta) for
    gamma1 > gamma2, one (x = (0, 0, 1)) for equal nonzero angles, and
    None for degenerate subspaces where every member state is separable.
    """
    if math.sin(gamma1) * math.cos(gamma2) <= 1e-12:
        return None
    theta = _rank2_theta(Rank2Params(gamma1, gamma2, 0.0, 0.0, 0.0))
    s2t, c2t = math.sin(2.0 * theta), math.cos(2.0 * theta)
    if s2t <= 1e-12:
        return (Rank2Params(gamma1, gamma2, 0.0, 0.0, 1.0),)
    return (
        Rank2Params(gamma1, gamma2, s2t, 0.0, c2t),
        Rank2Params(gamma1, gamma2, -s2t, 0.0, c2t),
    )


def ls_lambda_for_pure(state: TwoQubitState, psi) -> float:
    """Largest lambda whose residual (state - (1-lambda) |psi><psi|)/lambda
    is a separable state; 0 when no positive weight works."""
    if not is_state(state).decision:
        raise PreconditionError("ls_lambda_for_pure requires a valid state")
    psi = fix_global_phase(psi)
    rho = to_density_matrix(state)
    rrho = _kernels.reflect4(rho)
    proj = pure_projector(psi)
    rproj = _kernels.reflect4(proj)
    lam = float(_kernels.max_feasible_lambda(rho, rrho, proj, rproj, _FEAS_TOL, _LAM_TOL))
    if lam > 0.0:
        # re-check the endpoint: bisection assumed interval feasibility
        margin = float(_kernels.lam_margin(rho, rrho, proj, rproj, lam))
        if margin < -(_FEAS_TOL * lam + 1e-13):
            raise NumericalInconsistencyError(
                f"endpoint lambda = {lam:.9g} re-check failed with margin {margin:.3e}"
            )
    return lam


def _angles_from_amplitudes(amp):
    """Invert the hyperspherical chart for a normalized amplitude vector."""
    amp = np.asarray(amp, dtype=np.complex128)
    r = amp.size
    if abs(amp[0]) > 1e-12:
        amp = amp * (amp[0].conjugate() / abs(amp[0]))
    mags = np.abs(amp)
    th = np.zeros(2 * (r - 1))
    for k in range(r - 1):
        th[k] = math.atan2(float(np.linalg.norm(mags[k + 1 :])), float(mags[k]))
    for k in range(1, r):
        th[r - 2 + k] = math.atan2(float(amp[k].imag), float(amp[k].real)) if mags[k] > 1e-12 else 0.0
    return th


def _det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _support_product_states(u_support):
    """Product pure states inside a two-dimensional support.

    psi = u1 + z u2 is a product vector exactly when its 2x2 reshape has
    zero determinant, a quadratic in complex z; a generic subspace holds
    exactly two such states.  A vanishing leading coefficient moves one
    root to z = infinity, i.e. to u2 itself.
    """
    a = u_support[:, 0].reshape(2, 2)
    b = u_support[:, 1].reshape(2, 2)
    c2 = _det2(b)
    c1 = a[0, 0] * b[1, 1] + b[0, 0] * a[1, 1] - a[0, 1] * b[1, 0] - b[0, 1] * a[1, 0]
    c0 = _det2(a)
    scale = 1.0 + abs(c1) + abs(c0)
    vectors = []
    if abs(c2) <= 1e-13 * scale:
        vectors.append(u_support[:, 1])
        if abs(c1) > 1e-13 * scale:
            vectors.append(u_support[:, 0] - (c0 / c1) * u_support[:, 1])
    else:
        for z in np.roots([c2, c1, c0]):
            vectors.append(u_support[:, 0] + z * u_support[:, 1])
    return [v / np.linalg.norm(v) for v in vectors]


def _chaotic_state():
    return TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=np.zeros((3, 3)))


def _sep_margins(sep_rho):
    pos = float(np.linalg.eigvalsh(sep_rho)[0])
    ppt = float(np.linalg.eigvalsh(_kernels.reflect4(sep_rho))[0])
    return {"sep_min_eigenvalue": pos, "sep_reflected_min_eigenvalue": ppt}


def _separable_split(state, rho):
    """The trivial split of a separable state: all weight separable."""
    return LSDecomposition(
        lambda_=1.0,
        sep=state,
        pure=None,
        margins=_sep_margins(rho),
        objective_history=((0, 1.0),),
    )


def _rank2_split(rho, eigs, vecs):
    """The exact best split of an entangled rank-2 state.

    A separable part must lie in the two-dimensional support, where the
    separable states are exactly the mixtures sigma(mu) of the support's
    product states.  In the support basis rho is rho2 = diag(eigs), and
    the largest weight with rho2 - lam sigma(mu) positive is
    1 / lambda_max(rho2^(-1/2) sigma(mu) rho2^(-1/2)).  That weight is
    quasi-concave in mu, so golden section and both endpoints find its
    maximum; the residual there has rank one and its range is the pure part.
    """
    u_support = vecs[:, 2:]
    points = [u_support.conj().T @ psi for psi in _support_product_states(u_support)]
    q0, q1 = points[0], points[-1]
    w0, w1 = q0 / np.sqrt(eigs[2:]), q1 / np.sqrt(eigs[2:])

    def weight(mu):
        whitened = mu * np.outer(w0, w0.conj()) + (1.0 - mu) * np.outer(w1, w1.conj())
        return 1.0 / float(np.linalg.eigvalsh(whitened)[1])

    mu, lam = max(
        (_kernels._golden_max(weight, _GOLDEN_STEPS), (0.0, weight(0.0)), (1.0, weight(1.0))),
        key=lambda cand: cand[1],
    )
    sigma = mu * np.outer(q0, q0.conj()) + (1.0 - mu) * np.outer(q1, q1.conj())
    residual = np.diag(eigs[2:]) - lam * sigma
    psi = u_support @ np.linalg.eigh(residual)[1][:, 1]
    sep_rho = (rho - (1.0 - lam) * np.outer(psi, psi.conj())) / lam
    return LSDecomposition(
        lambda_=lam,
        sep=from_density_matrix(sep_rho, tol=1e-7),
        pure=fix_global_phase(psi),
        margins=_sep_margins(sep_rho),
        objective_history=((0, lam),),
    )


def ls_optimize(
    state: TwoQubitState,
    restarts: int = 64,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> LSDecomposition:
    """The best separable-plus-pure split the package can certify.

    ``tol`` decides validity, separability and the rank.  A separable state
    is its own split (weight 1) and an entangled pure state leaves nothing
    separable (weight 0).  An entangled rank-2 state is solved exactly over
    the product states of its support, with history ((0, lambda),).  Ranks
    3 and 4 run a multistart Nelder-Mead search over pure parts restricted
    to the support (a pure part with weight outside it never yields a
    positive residual), so the chart has 2(rank-1) real parameters.
    Informed starts come from the most negative eigenvector of the partial
    reflection and the top eigenvector of the state; the rest are drawn
    from ``seed``, up to ``restarts`` in all.  Rank 3 gets a two-pass search
    per start, exploration with a loosened feasibility band followed by
    strict certification.  The history then holds (start index, best
    weight so far), and the weight is a certified lower bound on S: the
    decomposition itself is the certificate.  ``restarts`` and ``seed``
    have no effect below rank 3.
    """
    if not is_state(state, tol).decision:
        raise PreconditionError("ls_optimize requires a valid state")
    rho = to_density_matrix(state)
    if is_separable(state, tol).decision:
        return _separable_split(state, rho)
    eigs, vecs = np.linalg.eigh(rho)
    rank = int(np.sum(eigs > tol))
    if rank == 1:
        # entangled pure state: nothing separable remains
        return LSDecomposition(
            lambda_=0.0,
            sep=_chaotic_state(),
            pure=fix_global_phase(vecs[:, 3]),
            margins=_sep_margins(to_density_matrix(_chaotic_state())),
            objective_history=((0, 0.0),),
        )
    if rank == 2:
        return _rank2_split(rho, eigs, vecs)
    u_support = np.ascontiguousarray(vecs[:, 4 - rank :])
    rrho = _kernels.reflect4(rho)

    def objective(th, band):
        return float(
            _kernels.neg_lambda_objective(th, u_support, rho, rrho, band, _LAM_TOL)
        )

    if rank == 4:
        schedule = (
            (_FEAS_TOL, {"maxiter": 600, "maxfev": 900, "xatol": 1e-5, "fatol": 1e-7}),
        )
    else:
        # a rank-3 state pinches the strict feasible set to (near) measure
        # zero, and the infeasibility merit does not rank pinches by their
        # weight; a loosened band widens every pinch so the weight itself
        # steers the search, then a strict pass certifies
        schedule = (
            (1e-4, {"maxiter": 600, "maxfev": 900, "xatol": 1e-6, "fatol": 1e-10}),
            (_FEAS_TOL, {"maxiter": 2000, "maxfev": 3000, "xatol": 1e-9, "fatol": 1e-15}),
        )

    starts = []
    neg_reflected = np.linalg.eigh(rrho)[1][:, 0]
    for cand in (neg_reflected, vecs[:, 3]):
        amp = u_support.conj().T @ cand
        norm = float(np.linalg.norm(amp))
        if norm > 1e-6:
            starts.append(_angles_from_amplitudes(amp / norm))
    rng = np.random.default_rng(seed)
    dim = 2 * (rank - 1)
    while len(starts) < max(restarts, 1):
        starts.append(
            np.concatenate(
                [rng.uniform(0.0, math.pi / 2, rank - 1), rng.uniform(-math.pi, math.pi, rank - 1)]
            )
        )

    best_lam = -1.0
    best_th = None
    history = []
    for idx, th0 in enumerate(starts):
        th = np.asarray(th0[:dim], dtype=float)
        fun = 0.0
        for band, options in schedule:
            res = minimize(
                lambda t: objective(t, band), th, method="Nelder-Mead", options=options
            )
            th = res.x
            fun = float(res.fun)
        lam = max(0.0, -fun)
        if lam > best_lam:
            best_lam = lam
            best_th = th
        history.append((idx, best_lam))
    if best_lam <= 0.0:
        raise ConvergenceError(
            f"no feasible decomposition found in {len(starts)} restarts "
            f"(mixed entangled input should always admit one)"
        )

    # keep the projector bit-identical to the one the objective certified:
    # at a pinched optimum the margin sits on the feasibility band edge
    # and even renormalization noise can flip the verdict
    amp = np.asarray(_kernels.chart_amplitudes(np.asarray(best_th, dtype=float)))
    psi = u_support @ amp
    proj = np.outer(psi, psi.conj())
    lam = best_lam
    sep_rho = (rho - (1.0 - lam) * proj) / lam
    sep = from_density_matrix(sep_rho, tol=1e-7)
    return LSDecomposition(
        lambda_=lam,
        sep=sep,
        pure=fix_global_phase(psi),
        margins=_sep_margins(sep_rho),
        objective_history=tuple(history),
    )


def _detect_werner_second(state: TwoQubitState):
    """Spot the chaos-plus-pure structure from the spectrum.

    Requires a threefold-degenerate eigenvalue (1-x)/4 with the remaining
    weight on one pure state; returns (x, p) of that structure or None.
    The reconstruction from the top eigenvector is verified against the
    input, so false positives need more than a degenerate spectrum.
    """
    eigs, vecs = np.linalg.eigh(to_density_matrix(state))
    if eigs[2] - eigs[0] > 1e-8:
        return None
    x = 1.0 - 4.0 * float(np.mean(eigs[:3]))
    if not 1e-9 < x <= 1.0 + 1e-12:
        return None
    psi = vecs[:, 3]
    predicted = x * pure_projector(psi) + (1.0 - x) / 4.0 * np.eye(4)
    if float(np.max(np.abs(predicted - to_density_matrix(state)))) > 1e-8:
        return None
    pure = from_density_matrix(pure_projector(psi))
    p = float(np.linalg.norm(pure.s))
    if not 1e-9 < p < 1.0 - 1e-12:
        return None
    return min(1.0, x), p


def degree(
    state: TwoQubitState,
    tol: float = DEFAULT_TOL,
    restarts: int = 64,
    seed: int = 0,
) -> DegreeResult:
    """Dispatch to the best available route for the degree of separability.

    Order: separable shortcut, vanishing-Pauli-vector closed form,
    chaos-plus-pure closed form (covers entangled pure states at x = 1),
    rank-2 closed form, and finally the optimizer lower bound.
    """
    sep_verdict = is_separable(state, tol)
    if sep_verdict.decision:
        dec = _separable_split(state, to_density_matrix(state))
        return DegreeResult(S=1.0, method="SeparableShortcut", decomposition=dec)
    if _pauli_vectors_vanish(state, tol):
        loc = local_invariants(state)
        return DegreeResult(
            S=degree_werner_first(state, tol),
            method="ClosedFormWernerFirst",
            family_data={"det_C": loc.a3_1, "trace_modulus": trace_modulus(state.C)},
        )
    detected = _detect_werner_second(state)
    if detected is not None:
        x, p = detected
        rec = degree_werner_second(x, p)
        return DegreeResult(
            S=rec.S,
            method="ClosedFormWernerSecond",
            family_data={"x": x, "p": p, "q0": rec.q0, "p0": rec.p0},
        )
    if purity_rank(state, tol).rank == 2:
        params = rank2_canonical(state, tol)
        rec = degree_rank2(params, tol)
        return DegreeResult(
            S=rec.S,
            method="ClosedFormRank2",
            family_data={
                "pair_kind": rec.pair_kind,
                "gamma1": params.gamma1,
                "gamma2": params.gamma2,
                "x1": params.x1,
                "x2": params.x2,
                "x3": params.x3,
            },
        )
    dec = ls_optimize(state, restarts=restarts, seed=seed, tol=tol)
    return DegreeResult(S=dec.lambda_, method="Optimizer", decomposition=dec)
