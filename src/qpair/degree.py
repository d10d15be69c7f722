"""Degree of separability.

The degree S of a state is the largest weight lambda such that the state
splits as lambda * (separable) + (1 - lambda) * (pure).  Four families have
closed forms.  ``ls_optimize`` computes the split itself: separable and pure
inputs are immediate, an entangled rank-2 state has a closed-form split over
the product states of its support, and ranks 3 and 4 go to a primal-dual
interior-point solve of a semidefinite program restricted to the support,
since for two qubits PPT is separable and the best split leaves a pure
remainder: S = max tr sigma over sigma >= 0, sigma^Gamma >= 0, rho - sigma >= 0.
Its feasible split certifies a lower bound on S and its dual an upper
bound.  Rank-2 and interior-point splits project the separable part
rho - w |psi><psi| onto the support of rho and divide it by its own trace.
The closed forms and ``ls_optimize`` cross-check each other.  Only
``degree_werner_second`` still searches, with ``_kernels._golden_max`` and
``_kernels._bisect``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Mapping, Optional

import numpy as np

from . import _kernels
# Nothing in degree calls minimize: the name stays only because
# perfbench/tracing.py rebinds it to count solver calls, until the benchmark
# stops reading it.
from ._neldermead import minimize  # noqa: F401
from ._tolerances import (
    CROSS_CHECK_TOL, DEFAULT_TOL, EIGEN_FLOOR, FAMILY_EDGE, ORDER_SLACK, ROUNDING_TOL,
)
from .canonical import _rank2_frame
from .classify import _require_state, is_separable, purity_rank
from .errors import ConvergenceError, NumericalInconsistencyError, PreconditionError
from .families import Chaotic, Rank2Params, RankTwo, Werner, WernerSecond, construct_family
from .invariants import trace_modulus
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
    "ls_optimize",
    "degree",
]

# eigenvalue slack allowed on the normalized separable part of a split
_FEAS_TOL = 1e-10
# Hermiticity and trace slack when a split's normalized separable part is read back
_SPLIT_TOL = 1e-7
# relative size at which a coefficient, or the discriminant, of the
# product-state quadratic counts as zero
_QUADRATIC_TOL = 1e-13
# chaos-plus-pure detection: allowed eigenvalue spread and reconstruction error
_DETECT_TOL = 1e-8
# resolution of the Werner-second q0 bisection
_Q0_RESOLUTION = 1e-10
# the rank-3/4 interior-point solve stops once its certified bracket is this
# narrow and at most this fraction of S (so a tiny S still gets a meaningful bracket)
_GAP_TOL = 1e-8
_GAP_RATIO = 0.1
# interior-point iterations allowed, and the fraction of the distance to the
# cone boundary that each step takes
_PD_ITERATIONS = 60
_STEP_FRACTION = 0.98
# a block of W or Z whose condition number reaches 1 / eps is singular to
# rounding, so that iterate is no longer positive definite
_EPS = float(np.finfo(np.float64).eps)
# smallest eigenvalue of the PPT block's value at X = 1 that its rescaling
# undoes; below it (kernel vector within about 3e-2 of a product) the scale is capped
_PPT_SCALE_FLOOR = 1e-3
# _hermitian_basis's (basis, traces) per rank r
_HERMITIAN_BASES = {}


@dataclass(frozen=True, eq=False)
class LSDecomposition:
    """A feasible split lambda * sep + (1 - lambda) * pure of a state.

    ``lambda_`` carries a trailing underscore only because of the Python
    keyword.  ``pure`` is a normalized phase-fixed 4-vector, or None for a
    separable input (lambda 1, nothing left over).  ``margins`` holds the
    positivity and reflected-positivity slack of the separable part.
    ``upper_bound`` is a certified upper bound on S (equal to lambda_ on
    the exact routes).  ``objective_history`` records (interior-point
    iteration, best lower bound so far), one entry on the exact routes, and
    ``newton_steps`` counts the iterations, each of which solves one
    Newton system.
    """

    lambda_: float
    sep: TwoQubitState
    pure: Optional[np.ndarray]
    margins: Mapping[str, float]
    objective_history: tuple
    upper_bound: float
    newton_steps: int = 0


@dataclass(frozen=True, eq=False)
class DegreeResult:
    """S with the route that produced it.

    ``method`` is one of SeparableShortcut, ClosedFormWernerFirst,
    ClosedFormWernerSecond, ClosedFormRank2, Optimizer.  Closed forms are
    exact; the Optimizer value is a certified lower bound on S.
    ``family_data`` carries route-specific numbers (q0, p0, pair kind,
    detected family parameters; for Optimizer the dual upper bound, the gap
    and the interior-point iteration count).
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
    Werner(x)  # validates x
    if x <= 1.0 / 3.0:
        return 1.0
    return 1.5 * (1.0 - x)


def _pauli_vectors_vanish(state: TwoQubitState, tol: float) -> bool:
    """s = t = 0 at ``tol``: the test for the vanishing-Pauli-vector family."""
    return float(np.max(np.abs(state.s))) <= tol and float(np.max(np.abs(state.t))) <= tol


def degree_werner_first(state: TwoQubitState, tol: float = DEFAULT_TOL) -> float:
    """Closed form for states with vanishing Pauli vectors.

    S = 1 when det C >= 0 or the trace modulus of C is at most 1, else
    3/2 - (1/2) Spur|C|, clamped to [0, 1] because a state accepted only
    at a loose ``tol`` can push it below 0.  ``tol`` decides s = t = 0 and
    validity.
    """
    _require_state(state, tol, "degree_werner_first")
    if not _pauli_vectors_vanish(state, tol):
        raise PreconditionError("degree_werner_first requires s = t = 0")
    return _werner_first(state)[0]


def _werner_first(state):
    """(S, det C, Spur|C|) of a valid state with s = t = 0."""
    det_c = float(np.linalg.det(state.C))
    tm = trace_modulus(state.C)
    if det_c >= 0.0 or tm <= 1.0:
        return 1.0, det_c, tm
    return min(1.0, max(0.0, 1.5 - 0.5 * tm)), det_c, tm


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
    WernerSecond(x, p)  # validates x and p
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
            if gm > ROUNDING_TOL:
                raise ConvergenceError(
                    f"no feasible q0 for x = {x}, p = {p} (minimal gap {gm:.3e})",
                    residual=gm,
                )
            if gm >= -ROUNDING_TOL:
                # feasible set degenerated to (numerically) one point
                lo = hi = qm
            else:
                lo, hi = qm, 1.0
        q0 = _kernels._bisect(lambda q0: gap(q0) <= 0.0, lo, hi, _Q0_RESOLUTION)
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
    if is_separable(construct_family(RankTwo(params)), tol).decision:
        return Rank2Degree(S=1.0, pair_kind=None)
    return _rank2_closed_form(params)


def _rank2_closed_form(params):
    """``degree_rank2`` of parameters already known to be entangled."""
    if math.sin(params.gamma1) * math.cos(params.gamma2) <= ROUNDING_TOL:
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
    params = Rank2Params(gamma1, gamma2, 0.0, 0.0, 0.0)  # validates the angles
    if math.sin(gamma1) * math.cos(gamma2) <= ROUNDING_TOL:
        return None
    theta = _rank2_theta(params)
    s2t, c2t = math.sin(2.0 * theta), math.cos(2.0 * theta)
    if s2t <= ROUNDING_TOL:
        return (Rank2Params(gamma1, gamma2, 0.0, 0.0, 1.0),)
    return (
        Rank2Params(gamma1, gamma2, s2t, 0.0, c2t),
        Rank2Params(gamma1, gamma2, -s2t, 0.0, c2t),
    )


def _det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _support_product_states(u_support):
    """Product pure states inside a two-dimensional support.

    psi = u1 + z u2 is a product vector exactly when its 2x2 reshape has
    zero determinant, a quadratic in complex z; a generic subspace holds
    exactly two such states.  A vanishing leading coefficient moves one
    root to z = infinity, i.e. to u2 itself.  A discriminant that is zero
    to rounding (gamma1 = gamma2) leaves the one state of the double root
    z = -c1 / (2 c2), which np.roots would split by about sqrt(eps).
    """
    a = u_support[:, 0].reshape(2, 2)
    b = u_support[:, 1].reshape(2, 2)
    c2 = _det2(b)
    c1 = a[0, 0] * b[1, 1] + b[0, 0] * a[1, 1] - a[0, 1] * b[1, 0] - b[0, 1] * a[1, 0]
    c0 = _det2(a)
    scale = 1.0 + abs(c1) + abs(c0)
    vectors = []
    if abs(c2) <= _QUADRATIC_TOL * scale:
        vectors.append(u_support[:, 1])
        if abs(c1) > _QUADRATIC_TOL * scale:
            vectors.append(u_support[:, 0] - (c0 / c1) * u_support[:, 1])
    elif abs(c1 * c1 - 4.0 * c2 * c0) <= _QUADRATIC_TOL * (abs(c2) + abs(c1) + abs(c0)) ** 2:
        vectors.append(u_support[:, 0] - (c1 / (2.0 * c2)) * u_support[:, 1])
    else:
        for z in np.roots([c2, c1, c0]):
            vectors.append(u_support[:, 0] + z * u_support[:, 1])
    return [v / np.linalg.norm(v) for v in vectors]


def _sep_margins(sep_rho):
    pos = float(np.linalg.eigvalsh(sep_rho)[0])
    ppt = float(np.linalg.eigvalsh(_kernels.reflect4(sep_rho))[0])
    return {"sep_min_eigenvalue": pos, "sep_reflected_min_eigenvalue": ppt}


def _exact_split(lam, sep, sep_rho, pure):
    """An exact route's split lam * sep + (1 - lam) |pure><pure|, with sep's margins
    read off its density matrix ``sep_rho``; ``pure`` is None for a separable state."""
    return LSDecomposition(
        lambda_=lam,
        sep=sep,
        pure=pure,
        margins=_sep_margins(sep_rho),
        objective_history=((0, lam),),
        upper_bound=lam,
    )


def _pure_split(rho, eigs, vecs, w, psi):
    """The split rho = (1 - w) sep + w |psi><psi| as an exact route reports it.

    sep is rho - w |psi><psi| projected onto the support of rho (its
    eigenvectors with eigenvalues off the rounding floor), Hermitized and
    divided by its own trace, not by 1 - w, whose rounding relative to a
    tiny 1 - w breaks the unit trace.  The projection keeps rounding in
    rho's kernel out of sep, where 1 / (1 - w) would amplify it.
    """
    support = vecs[:, np.abs(eigs) > EIGEN_FLOOR]
    proj = support @ support.conj().T
    part = proj @ (rho - w * np.outer(psi, psi.conj())) @ proj
    sep_rho = (part + part.conj().T) / (2.0 * np.trace(part).real)
    return _exact_split(
        1.0 - w, from_density_matrix(sep_rho, tol=_SPLIT_TOL), sep_rho, fix_global_phase(psi)
    )


def _rank2_split(rho, eigs, vecs):
    """The exact best split of an entangled rank-2 state.

    A separable part must lie in the two-dimensional support, where the
    separable states are exactly the mixtures sigma(mu) of the support's
    product states.  In the support basis rho is rho2 = diag(eigs), and
    the largest weight with rho2 - lam sigma(mu) positive is 1 / lambda_max
    of the whitened mixture mu w0 w0^dagger + (1 - mu) w1 w1^dagger, with
    w = rho2^(-1/2) q for the product states q.  With a = |w0|^2,
    b = |w1|^2, c = |<w0, w1>|, d = a - b and g = ab - c^2, lambda_max is
    (b + mu d + hypot(mu a - (1 - mu) b, 2c sqrt(mu (1 - mu)))) / 2, convex
    in mu, so its minimum lies at an end of [0, 1] or where its derivative
    vanishes: after squaring, (d^2 + 4g) mu^2 + (2bd - 4g) mu + (g - bd) = 0,
    whose discriminant 4 d^2 c^2 makes both roots real.  The residual at
    the best mu has rank one and its range is the pure part.
    """
    u_support = vecs[:, 2:]
    points = [u_support.conj().T @ psi for psi in _support_product_states(u_support)]
    q0, q1 = points[0], points[-1]
    w0, w1 = q0 / np.sqrt(eigs[2:]), q1 / np.sqrt(eigs[2:])
    a, b, c = np.vdot(w0, w0).real, np.vdot(w1, w1).real, abs(np.vdot(w0, w1))
    d, g = a - b, a * b - c * c

    def weight(mu):
        spread = math.hypot(mu * a - (1.0 - mu) * b, 2.0 * c * math.sqrt(mu * (1.0 - mu)))
        return 2.0 / (b + mu * d + spread)

    lead = d * d + 4.0 * g
    roots = [(2.0 * g - b * d + s * abs(d) * c) / lead for s in (1, -1)] if lead > 0.0 else []
    lam, mu = max((weight(mu), mu) for mu in [0.0, 1.0, *roots] if 0.0 <= mu <= 1.0)
    sigma = mu * np.outer(q0, q0.conj()) + (1.0 - mu) * np.outer(q1, q1.conj())
    residual = np.diag(eigs[2:]) - lam * sigma
    return _pure_split(rho, eigs, vecs, 1.0 - lam, u_support @ np.linalg.eigh(residual)[1][:, 1])


def _hermitian_basis(r):
    """The r x r Hermitian matrices' basis, orthonormal under tr(AB) and
    flattened to (r^2, r^2), and its traces; both read-only, built once per r."""
    if r not in _HERMITIAN_BASES:
        basis = np.zeros((r * r, r, r), dtype=np.complex128)
        for k, (i, j) in enumerate((i, j) for i in range(r) for j in range(r)):
            if i == j:
                basis[k, i, i] = 1.0
            elif i < j:
                basis[k, i, j] = basis[k, j, i] = math.sqrt(0.5)
            else:
                basis[k, i, j], basis[k, j, i] = 1j * math.sqrt(0.5), -1j * math.sqrt(0.5)
        traces = np.trace(basis, axis1=1, axis2=2).real
        basis = basis.reshape(r * r, r * r)
        basis.flags.writeable = traces.flags.writeable = False
        _HERMITIAN_BASES[r] = basis, traces
    return _HERMITIAN_BASES[r]


def _psd_part(m):
    e, u = np.linalg.eigh(m)
    return (u * np.maximum(e, 0.0)) @ u.conj().T


def _trace_product(wz, mask):
    """Re tr(W Z) over a (W, Z) pair of block stacks, leaving out the masked padding.

    Z is Hermitian, so tr(W Z) = sum W * conj(Z) entrywise, whose real part
    is a real dot product of the two stacks viewed as reals.
    """
    return float((wz[0] * mask).reshape(-1).view(np.float64) @ wz[1].reshape(-1).view(np.float64))


def _hkm_step(wz, y, gap, linv, buf, sdp):
    """One HKM predictor-corrector step from (W, Z, y) to the next (W, Z) pair and y.

    ``wz`` stacks W and Z, the (3, n, n) stacks of the cone blocks, ``gap`` is tr(W Z)
    and ``linv`` the inverses of their Cholesky factors L.  They give Z^-1 =
    L^-dagger L^-1, and the least eigenvalue of L^-1 (dW, dZ) L^-dagger, read from
    ``buf``, the (2, 3, n, n) stack each direction is written into, gives its distance
    to the cone boundary.  ``sdp`` holds the G_j flattened to (m, 3 n n) and viewed as
    reals, the G_j laid side by side per block (3, n, m n), C, b, the padding mask and
    the order 2r + q of the unpadded cone.  As G_j is Hermitian, tr(G_j T) =
    sum conj(G_j) * T entrywise, so its real part is a real dot product with the
    flattened G_j.  Per block, two products give K_l = W G_l Z^-1 for every l, so the
    Schur complement M_jl = Re tr(G_j K_l) is one product and W (dZ - r_d) Z^-1 =
    sum_l dy_l K_l another.  Both solves of M are LU solves: an explicit M^-1 loses
    primal feasibility near the optimum.  The mask keeps dW at zero on the padding,
    where r_d and dZ vanish exactly.
    """
    flat, rows, offset, traces, mask, size = sdp
    w, z = wz
    shape, n = w.shape, w.shape[-1]
    linv_h = linv.conj().swapaxes(-1, -2)
    z_inv = linv_h[1] @ linv[1]
    rd = offset + (y @ flat).view(np.complex128).reshape(shape) - z
    # K[b, a, l, c] = (W G_l Z^-1)[b][a, c], reordered to one row per coordinate
    k = ((w @ rows).reshape(3, -1, n) @ z_inv).reshape(3, n, -1, n)
    k = k.transpose(2, 0, 1, 3).reshape(len(flat), -1).view(np.float64)
    schur = flat @ k.T
    w_rd = w @ rd @ z_inv

    def direction(t, fraction):
        # dZ = rd + sum_j dy_j G_j and dW = t - W - W (dZ - rd) Z^-1, with dy fixed by the
        # primal equations tr(G_j (W + dW)) = -b_j; returns dy and the (primal, dual) lengths
        dy = np.linalg.solve(schur, traces + flat @ t.reshape(-1).view(np.float64))
        np.add(rd, (dy @ flat).view(np.complex128).reshape(shape), out=buf[1])
        dw = (t - w - (dy @ k).view(np.complex128).reshape(shape)) * mask
        np.multiply(0.5, dw + dw.conj().swapaxes(-1, -2), out=buf[0])
        low = np.linalg.eigvalsh(linv @ buf @ linv_h)[:, :, :1, None].min(axis=1, keepdims=True)
        return dy, fraction / np.maximum(-low, fraction)

    # t = sigma mu Z^-1 - W rd Z^-1, less dW dZ Z^-1 in the corrector
    dy, step = direction(-w_rd, 1.0)
    sigma = (_trace_product(wz + step * buf, mask) / gap) ** 3
    t = sigma * gap / size * z_inv - w_rd - buf[0] @ buf[1] @ z_inv
    dy, step = direction(t, _STEP_FRACTION)
    return wz + step * buf, y + step[1, 0, 0, 0] * dy


def _interior_point_split(rho, eigs, vecs, r, tol):
    """The certified best split of an entangled rank-3 or rank-4 state.

    S = max tr sigma over sigma >= 0, R(sigma) >= 0, rho - sigma >= 0
    (PPT is separable for two qubits), where R = ``_kernels.reflect4`` is a
    unitary conjugate of the partial transpose, self-adjoint under tr(AB).
    sigma lies in the support, so sigma = V X V^dagger with X an r x r
    Hermitian matrix written in an orthonormal basis (r^2 real
    coordinates), and D - X >= 0 with D the support eigenvalues.  A rank-3
    state whose kernel vector is a product a (x) b (second Schmidt
    coefficient at most ``tol``) has no strictly feasible point: every
    feasible R(sigma) annihilates k' = a_perp (x) b.  Besides the support,
    that adds one complex equation, <a_perp b| sigma |a b_perp> = 0, which
    restricts X to a subspace, and the PPT block is taken on the
    complement of k'.  The PPT block is written in the frame K where its
    value at X = 1 is the identity (capped at _PPT_SCALE_FLOOR, as that
    value is singular for a product kernel vector), so Z = 1 means X = 1.

    The blocks form Z = blockdiag(X, D - X, P) = C + sum_j y_j G_j, affine
    in the coordinates y, with C = blockdiag(0, D, 0), and S = max b.y with
    b_j = tr G_j's X block: the dual standard form with A_j = -G_j, whose
    primal is min tr(C W) over W >= 0 with tr(A_j W) = b_j; tr(W Z) is the
    duality gap.  An infeasible-start primal-dual interior-point method
    (HKM direction, Mehrotra predictor-corrector, ``_hkm_step``) starts at
    W = Z = 1, y = 0, so it needs no strictly feasible point.  W, Z, C and
    the G_j are stored block by block, as (3, n, n) stacks with n = max(r, q),
    W and Z as one (2, 3, n, n) pair, so every factorization and product runs
    on the blocks rather than on one mostly zero (2r + q)^2 matrix.  Each
    iteration factors the pair once, one batched Cholesky and one inverse of
    the factors.  A failed factor, or a block B with tr(B) tr(B^-1) (at
    least its condition number, at most n^2 times it) past 1 / eps, marks W
    or Z as no longer positive definite; the inverses also serve Z^-1 and
    both step lengths of ``_hkm_step``, whose directions go to one buffer
    per solve.  At rank 3 with a full PPT block the X and
    D - X blocks are padded with one diagonal entry whose G entries
    are 0 and whose offset is 1, so r_d and dZ vanish there exactly.  A
    constant mask zeroes dW there and leaves the entry out of tr(W Z), so
    the padded SDP is the same SDP; unmasked, the pad's W entry would shrink
    towards 0 and cap the primal step.  Once
    tr(W Z) <= _GAP_TOL every iterate yields
    - a lower bound: with (w, psi) the top eigenpair of rho - sigma,
      ``_pure_split`` gives lambda = 1 - w and a sep that reproduces rho;
      it counts only if its margins pass (at _FEAS_TOL, less EIGEN_FLOOR);
    - an upper bound tr(D psd(Y)), Y = 1 + A + V^dagger R(B) V, with A and
      B = K psd(W_P) K^dagger from the PSD parts of W's X and P blocks.
      Any A, B >= 0 do: a feasible sigma = V X V^dagger has tr(X A) >= 0
      and tr(X V^dagger R(B) V) = tr(R(sigma) B) >= 0, so tr X <= tr(X Y)
      <= tr(X psd(Y)) <= tr(D psd(Y)) as X, D - X >= 0.  On a reduced face
      only Y's face component meets X, so across it Y is W's D - X block.
    Stops once the bracket is at most _GAP_TOL and _GAP_RATIO * S, or
    scores one last iterate when W or Z stops being positive definite or
    after _PD_ITERATIONS iterations.  A dual bound more than ORDER_SLACK
    below the split weight (plus the weight dropped at ``tol``) raises.
    """
    v = vecs[:, 4 - r :]
    d = eigs[4 - r :]
    # eigenvalues at or below tol are zero for the solve; the split still
    # reproduces rho, so its margins may carry their weight
    outside = float(np.sum(np.abs(eigs[: 4 - r])))
    herm, herm_traces = _hermitian_basis(r)
    reflected = _kernels.reflect4(v @ herm.reshape(-1, r, r) @ v.conj().T).reshape(r * r, -1)
    null, keep = np.eye(r * r), np.eye(4)
    if r == 3:
        left, schmidt, right = np.linalg.svd(vecs[:, 0].reshape(2, 2))
        if schmidt[1] <= tol:
            reflected_kernel = np.kron(left[:, 1], right[0])
            bra = v.conj().T @ reflected_kernel
            ket = v.conj().T @ np.kron(left[:, 0], right[1])
            equation = herm @ np.outer(bra.conj(), ket).reshape(-1)
            null = np.linalg.svd(np.stack([equation.real, equation.imag]))[2][2:].T
            keep = np.linalg.svd(reflected_kernel[:, None])[0][:, 1:]
    scale, frame = np.linalg.eigh(keep.conj().T @ _kernels.reflect4(v @ v.conj().T) @ keep)
    keep = keep @ (frame / np.sqrt(np.maximum(scale, _PPT_SCALE_FLOOR))) @ frame.conj().T
    # the G_j's X block, flattened, and as reals the projection onto its span
    basis = null.T @ herm
    proj = basis.view(np.float64)
    m, q = len(basis), keep.shape[1]
    n = max(r, q)
    coords = np.zeros((m, 3, n, n), dtype=np.complex128)
    coords[:, 0, :r, :r] = basis.reshape(m, r, r)
    coords[:, 1, :r, :r] = -basis.reshape(m, r, r)
    coords[:, 2, :q, :q] = keep.conj().T @ (null.T @ reflected).reshape(m, 4, 4) @ keep
    offset = np.zeros((3, n, n), dtype=np.complex128)
    offset[1, :r, :r] = np.diag(d)
    # a block smaller than n is padded with diagonal entries held at W = Z = 1
    mask = np.ones((3, n, n))
    for b, k in enumerate((r, r, q)):
        offset[b, range(k, n), range(k, n)] = 1.0
        mask[b, range(k, n), range(k, n)] = 0.0
    sdp = (
        coords.reshape(m, -1).view(np.float64),
        coords.transpose(1, 2, 0, 3).reshape(3, n, m * n),
        offset,
        null.T @ herm_traces,
        mask,
        2 * r + q,
    )

    wz = np.tile(np.eye(n, dtype=np.complex128), (2, 3, 1, 1))
    buf, y = np.empty_like(wz), np.zeros(m)
    best_lower, best_upper, best = 0.0, math.inf, None
    # the largest margin-test slack of a scored split: the residual if none passes
    nearest = -math.inf
    history = []
    for it in range(_PD_ITERATIONS):
        gap = _trace_product(wz, mask)
        try:
            linv = np.linalg.inv(np.linalg.cholesky(wz))
            # tr(B) tr(B^-1) lies between a block B's condition number and n^2 times it
            cond = wz.trace(axis1=-2, axis2=-1).real * np.square(linv.view(np.float64)).sum((-2, -1))
            last = it == _PD_ITERATIONS - 1 or cond.max() * _EPS >= 1.0
        except np.linalg.LinAlgError:
            last = True
        if gap <= _GAP_TOL or last:
            w_dx = wz[0, 1, :r, :r]
            w_p = _kernels.reflect4(keep @ _psd_part(wz[0, 2, :q, :q]) @ keep.conj().T)
            z = np.eye(r) + _psd_part(wz[0, 0, :r, :r]) + v.conj().T @ w_p @ v
            coef = proj @ (z - w_dx).reshape(-1).view(np.float64)
            z = w_dx + (coef @ proj).view(np.complex128).reshape(r, r)
            best_upper = min(best_upper, float(d @ _psd_part(z).diagonal().real))
            top, top_vecs = np.linalg.eigh(rho - v @ wz[1, 0, :r, :r] @ v.conj().T)
            lam = 1.0 - float(top[3])
            if lam > best_lower:
                split = _pure_split(rho, eigs, vecs, float(top[3]), top_vecs[:, 3])
                slack = lam * (min(split.margins.values()) + _FEAS_TOL) + outside + EIGEN_FLOOR
                nearest = max(nearest, slack)
                if slack >= 0:
                    best_lower, best = lam, split
        history.append((it, best_lower))
        if last or best_upper - best_lower <= min(_GAP_TOL, _GAP_RATIO * best_lower):
            break
        try:
            wz, y = _hkm_step(wz, y, gap, linv, buf, sdp)
        except np.linalg.LinAlgError:
            break
    steps = len(history)

    if best is None:
        raise ConvergenceError(
            f"no interior-point iterate gave a feasible split in {steps} iterations; "
            f"the nearest missed its margin test by {-nearest:.3e}",
            residual=nearest,
        )
    if best_upper < best_lower - ORDER_SLACK - outside:
        raise NumericalInconsistencyError(
            f"dual bound {best_upper:.12g} lies below the split weight {best_lower:.12g}"
        )
    return replace(
        best, objective_history=tuple(history), upper_bound=best_upper, newton_steps=steps
    )


def ls_optimize(state: TwoQubitState, tol: float = DEFAULT_TOL) -> LSDecomposition:
    """The best separable-plus-pure split, with a bracket on S.

    ``tol`` decides validity, separability and the rank.  A separable state
    is its own split (weight 1) and an entangled pure state leaves nothing
    separable (weight 0).  An entangled rank-2 state is solved in closed form
    over the product states of its support.  These routes are exact:
    ``upper_bound`` equals ``lambda_`` and the history is ((0, lambda),).

    Ranks 3 and 4 run a primal-dual interior-point SDP restricted to the
    support (see ``_interior_point_split``).  ``lambda_`` is the weight of
    a feasible split with a pure remainder, hence a certified lower bound
    on S, and ``upper_bound`` is a dual bound, within 1e-8 and S/10 of it
    unless the solve stalls.  The history holds (iteration, best lower
    bound so far) and ``newton_steps`` the iteration count.
    Eigenvalues at or below ``tol`` count as zero in the solve, so a state
    that is positive only up to ``tol`` still gets a split reproducing it,
    with margins as negative as those eigenvalues.
    """
    rho = to_density_matrix(state)
    if is_separable(state, tol).decision:
        return _exact_split(1.0, state, rho, None)
    return _entangled_split(rho, *np.linalg.eigh(rho), purity_rank(state, tol).rank, tol)


def _entangled_split(rho, eigs, vecs, rank, tol):
    """``ls_optimize``'s split of an entangled state from its ``eigh`` and ``purity_rank``."""
    if rank == 1:
        # entangled pure state: nothing separable remains
        return _exact_split(
            0.0, construct_family(Chaotic()), np.eye(4) / 4.0, fix_global_phase(vecs[:, 3])
        )
    if rank == 2:
        return _rank2_split(rho, eigs, vecs)
    return _interior_point_split(rho, eigs, vecs, rank, tol)


def _detect_werner_second(rho, eigs, vecs):
    """Spot the chaos-plus-pure structure from the spectrum.

    Requires a threefold-degenerate eigenvalue (1-x)/4 with the remaining
    weight on one pure state; returns (x, p) of that structure or None.
    The reconstruction from the top eigenvector is verified against rho,
    so false positives need more than a degenerate spectrum.
    """
    if eigs[2] - eigs[0] > _DETECT_TOL:
        return None
    x = 1.0 - 4.0 * float(np.mean(eigs[:3]))
    if not FAMILY_EDGE < x <= 1.0 + ROUNDING_TOL:
        return None
    psi = vecs[:, 3]
    predicted = x * pure_projector(psi) + (1.0 - x) / 4.0 * np.eye(4)
    if float(np.max(np.abs(predicted - rho))) > _DETECT_TOL:
        return None
    pure = from_density_matrix(pure_projector(psi))
    p = float(np.linalg.norm(pure.s))
    if not FAMILY_EDGE < p < 1.0 - ROUNDING_TOL:
        return None
    return min(1.0, x), p


def _route(state: TwoQubitState, tol: float):
    """(route, data, spectral) of a valid state: the family test order of every caller.

    ``degree`` and CLI ``classify`` both decide here.  s = t = 0 gives
    (ClosedFormWernerFirst, None), chaos plus a pure state (ClosedFormWernerSecond,
    (x, p)), rank 2 (ClosedFormRank2, Rank2Params), anything else (Optimizer,
    rank).  The rank is ``purity_rank``'s, so every caller counts it alike.
    One ``eigh`` serves the chaos-plus-pure test, gives the rank-2 frame its
    support and is handed on as ``spectral`` = (rho, eigs, vecs), None for
    s = t = 0.
    """
    if _pauli_vectors_vanish(state, tol):
        return "ClosedFormWernerFirst", None, None
    rho = to_density_matrix(state)
    spectral = rho, *np.linalg.eigh(rho)
    detected = _detect_werner_second(*spectral)
    if detected is not None:
        return "ClosedFormWernerSecond", detected, spectral
    rank = purity_rank(state, tol).rank
    if rank == 2:
        return "ClosedFormRank2", _rank2_frame(state, spectral[2])[0], spectral
    return "Optimizer", rank, spectral


def degree(state: TwoQubitState, tol: float = DEFAULT_TOL) -> DegreeResult:
    """Dispatch to the best available route for the degree of separability.

    Order: separable shortcut, then ``_route``'s vanishing-Pauli-vector,
    chaos-plus-pure (covers entangled pure states at x = 1) and rank-2
    closed forms, and finally ``ls_optimize``'s interior-point SDP, whose S
    is a certified lower bound reported with its dual upper bound, the gap
    between them and the iteration count.  A rank-2 closed form that
    disagrees with the exact split of the same spectrum raises.
    """
    if is_separable(state, tol).decision:
        dec = _exact_split(1.0, state, to_density_matrix(state), None)
        return DegreeResult(S=1.0, method="SeparableShortcut", decomposition=dec)
    # validity is settled: is_separable above raises on an invalid state
    method, data, spectral = _route(state, tol)
    dec = None
    if method == "ClosedFormWernerFirst":
        s_val, det_c, tm = _werner_first(state)
        family_data = {"det_C": det_c, "trace_modulus": tm}
    elif method == "ClosedFormWernerSecond":
        rec = degree_werner_second(*data)
        s_val, family_data = rec.S, {"x": data[0], "p": data[1], "q0": rec.q0, "p0": rec.p0}
    elif method == "ClosedFormRank2":
        rec = _rank2_closed_form(data)
        split = _rank2_split(*spectral).lambda_
        if abs(rec.S - split) > CROSS_CHECK_TOL:
            raise NumericalInconsistencyError(
                f"rank-2 closed form S = {rec.S:.12g} but the exact split gives {split:.12g}"
            )
        s_val, family_data = rec.S, {"pair_kind": rec.pair_kind, **asdict(data)}
    else:
        dec = _entangled_split(*spectral, data, tol)
        s_val, bound = dec.lambda_, dec.upper_bound
        family_data = {"upper_bound": bound, "gap": bound - s_val, "newton_steps": dec.newton_steps}
    return DegreeResult(S=s_val, method=method, decomposition=dec, family_data=family_data)
