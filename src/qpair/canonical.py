"""Local transformations and canonical (generic) forms.

A local transformation rotates each qubit's axis frame independently; it
is the image of a local unitary and leaves all entanglement properties
unchanged.  Canonicalization picks the frame in which the cross dyadic is
a signed diagonal, and for pure and rank-2 states extracts the few numbers
that label the whole local orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._neldermead import minimize
from ._tolerances import CROSS_CHECK_TOL, DEFAULT_TOL, ORDER_SLACK, ROUNDING_TOL
from .classify import purity_rank
from .errors import ConvergenceError, NumericalInconsistencyError, PreconditionError
from .families import Rank2Params, check_rotation, rank2_family_vector
from .invariants import _invariants
from .state import TENSOR, TwoQubitState, to_density_matrix

__all__ = [
    "CanonicalForm",
    "apply_local",
    "diagonalize_cross",
    "pure_canonical",
    "rank2_canonical",
]

# the exact z-rotation pair (pi, pi) flips the signs of (x1, x2) of a rank-2 frame
_RZ_PI = np.diag([-1.0, -1.0, 1.0])

# a projector Pauli vector u or v shorter than this has no direction, and
# the rank-2 first guess aligns a singular vector of M instead
_AXIS_MIN = 1e-8
# scipy's from_rotvec and as_rotvec take sin(angle/2)/angle and its inverse
# from their series at and below this angle; _rotvec_matrix and
# _matrix_rotvec switch at the same point
_SERIES_ANGLE = 1e-3
# Nelder-Mead stopping tolerances of the rank-2 frame polish, on the six
# rotation-vector coordinates and on the squared residual
_POLISH_XATOL = 1e-13
_POLISH_FATOL = 1e-22


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Signed diagonalization of the cross dyadic.

    C = sign * o_ee @ diag(c) @ o_nn with both factors proper rotations,
    c1 >= c2 >= c3 >= 0, and sign = +1 exactly when det C >= 0.
    """

    o_ee: np.ndarray
    o_nn: np.ndarray
    c: np.ndarray
    sign: int


def apply_local(state: TwoQubitState, o_ee, o_nn) -> TwoQubitState:
    """Rotate the two qubit frames: (s, t, C) -> (O_ee s, O_nn^T t, O_ee C O_nn)."""
    o_ee = check_rotation(o_ee, "o_ee")
    o_nn = check_rotation(o_nn, "o_nn")
    return TwoQubitState(
        s=o_ee @ state.s,
        t=o_nn.T @ state.t,
        C=o_ee @ state.C @ o_nn,
    )


def diagonalize_cross(state: TwoQubitState) -> CanonicalForm:
    """Signed SVD of the cross dyadic with proper-rotation factors.

    Plain SVD factors may be reflections; the sign bookkeeping below makes
    both proper without touching the nonnegative singular values.  The
    column/row pair carrying the smallest singular value absorbs the
    determinant flips (for det C >= 0 with an odd reflection count that
    value is necessarily zero, so flipping its row alone is exact).
    """
    u, sv, vh = np.linalg.svd(state.C)
    u = u.copy()
    vh = vh.copy()
    if np.linalg.det(u) < 0:
        u[:, 2] *= -1.0
        vh[2, :] *= -1.0
    det_c = float(np.linalg.det(state.C))
    if det_c < 0:
        sign = -1
        vh = -vh
    else:
        sign = 1
        if np.linalg.det(vh) < 0:
            vh[2, :] *= -1.0
    for arr in (u, vh, sv):
        arr.flags.writeable = False
    return CanonicalForm(o_ee=u, o_nn=vh, c=sv, sign=sign)


def pure_canonical(state: TwoQubitState, tol: float = DEFAULT_TOL) -> float:
    """The single parameter p of a pure state's generic form.

    In the canonical frame a pure state has s = (p, 0, 0), t = (-p, 0, 0),
    C = diag(-1, -q, -q) with q = sqrt(1 - p^2); p = |s| labels the whole
    local orbit.  |t| = |s| and c = (1, q, q) are asserted, not assumed.
    """
    if not purity_rank(state, tol).pure:
        raise PreconditionError("pure_canonical requires a pure state")
    p = float(np.linalg.norm(state.s))
    t_norm = float(np.linalg.norm(state.t))
    if abs(t_norm - p) > tol:
        raise NumericalInconsistencyError(
            f"pure state with |s| = {p:.12g} but |t| = {t_norm:.12g}"
        )
    # Check c = (1, q, q) through p^2 + c2 c3 = 1 rather than against
    # q = sqrt(1 - p^2), whose sensitivity to rounding in p diverges as
    # p -> 1; the product form is well-conditioned on the whole range.
    c = diagonalize_cross(state).c
    gap = max(
        abs(float(c[0]) - 1.0),
        abs(float(c[1] - c[2])),
        abs(p * p + float(c[1] * c[2]) - 1.0),
    )
    if gap > tol:
        raise NumericalInconsistencyError(
            f"pure state with p = {p:.12g} should have characteristic values "
            f"(1, q, q) with q^2 = 1 - p^2, got {c} (worst deviation {gap:.3e})"
        )
    return p


def _projector_coefficients(rho_support):
    """Pauli coefficients (u, v, M) of the rank-2 support projector."""
    coeff = np.einsum("ijkl,lk->ij", TENSOR, rho_support).real
    return coeff[1:, 0], coeff[0, 1:], coeff[1:, 1:]


def _rank2_extract(pu, pv, pm, s, t, c):
    """Best-fit generic-form parameters in the current frame.

    The support projector fixes the angles: its Pauli coefficients are
    u = (0, 0, 2 cos g1 cos g2), v = (0, 0, 2 sin g1 sin g2),
    M = 2 diag(sin g1 cos g2, cos g1 sin g2, 0).  The x are then linear
    least squares over the state entries they multiply.  Vectors and
    matrices come as (nested) lists of floats.
    """
    a = 0.5 * pu[2]
    b = 0.5 * pv[2]
    cc = 0.5 * pm[0][0]
    d = 0.5 * pm[1][1]
    g1 = math.atan2(math.hypot(cc, b), math.hypot(a, d))
    g2 = math.atan2(math.hypot(d, b), math.hypot(a, cc))
    s1, c1 = math.sin(g1), math.cos(g1)
    s2, c2 = math.sin(g2), math.cos(g2)
    x3 = 0.5 * (
        b * (s[2] - a)
        + a * (t[2] - b)
        + d * (cc - c[0][0])
        + cc * (d - c[1][1])
        + c[2][2]
    )
    x1 = 0.5 * (s[0] * s1 + t[0] * c2 + c[0][2] * s2 + c[2][0] * c1)
    x2 = 0.5 * (s[1] * s2 + t[1] * c1 + c[1][2] * s1 + c[2][1] * c2)
    return g1, g2, x1, x2, x3


def _rotvec_matrix(v):
    """Rotation matrix of the rotation vector v.

    The same floating-point steps as scipy's
    ``Rotation.from_rotvec(v).as_matrix()``, in the same order, so the two
    agree bit for bit: the angle |v|, scipy's series for sin(angle/2)/angle
    at angles up to ``_SERIES_ANGLE``, the quaternion (scale v,
    cos(angle/2)), and the quaternion's nine matrix entries.
    """
    x, y, z = map(float, v)
    angle = math.sqrt(x * x + y * y + z * z)
    if angle <= _SERIES_ANGLE:
        angle2 = angle * angle
        scale = 0.5 - angle2 / 48 + angle2 * angle2 / 3840
    else:
        scale = math.sin(angle / 2) / angle
    x, y, z, w = scale * x, scale * y, scale * z, math.cos(angle / 2)
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array(
        [
            [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
            [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
            [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
        ]
    )


def _rotation_to_z(w):
    """The rotation about w x e_z that takes the direction of w to +z.

    Built as a rotation vector and turned into a matrix by
    ``_rotvec_matrix``, with the cross product written out, so it needs
    neither scipy nor ``np.cross``.
    """
    w = np.asarray(w, dtype=np.float64)
    w = w / np.linalg.norm(w)
    x, y, z = w.tolist()
    # w x e_z with np.cross's products, so zero components keep their signs
    axis = np.array([y - z * 0.0, z * 0.0 - x, x * 0.0 - y * 0.0])
    norm_axis = float(np.linalg.norm(axis))
    if norm_axis < ROUNDING_TOL:
        if w[2] > 0:
            return np.eye(3)
        return np.diag([1.0, -1.0, -1.0])
    angle = math.atan2(norm_axis, w[2])
    return _rotvec_matrix(axis / norm_axis * angle)


def _matrix_rotvec(m):
    """Rotation vector of the rotation matrix m.

    The same floating-point steps as scipy's
    ``Rotation.from_matrix(m).as_rotvec()``, in the same order, so the two
    agree bit for bit: the quaternion from the largest of (m00, m11, m22,
    trace) (the first one on ties), normalised; its sign flipped to w > 0
    (at w = 0 to a positive first nonzero component); the angle
    2 atan2(|xyz|, w); and scipy's series for angle/sin(angle/2) at angles
    up to ``_SERIES_ANGLE``.  scipy would first orthogonalise a matrix that
    fails its orthogonality test (m m^T within 1e-12 of the identity,
    numpy's ``isclose`` with its default relative 1e-5), or reject one
    with det m <= 0; this raises for either instead.
    """
    m = np.asarray(m, dtype=np.float64)
    if not (np.linalg.det(m) > 0 and np.allclose(m @ m.T, np.eye(3), atol=1e-12)):
        raise NumericalInconsistencyError(f"not a proper rotation matrix: {m.tolist()}")
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    trace = m00 + m11 + m22
    decision = [m00, m11, m22, trace]
    choice = decision.index(max(decision))
    if choice == 0:
        q = [1 - trace + 2 * m00, m10 + m01, m20 + m02, m21 - m12]
    elif choice == 1:
        q = [m01 + m10, 1 - trace + 2 * m11, m21 + m12, m02 - m20]
    elif choice == 2:
        q = [m02 + m20, m12 + m21, 1 - trace + 2 * m22, m10 - m01]
    else:
        q = [m21 - m12, m02 - m20, m10 - m01, 1 + trace]
    norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    x, y, z, w = (c / norm for c in q)
    if w < 0 or (w == 0 and (x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))))):
        x, y, z, w = -x, -y, -z, -w
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= _SERIES_ANGLE:
        angle2 = angle * angle
        scale = 2 + angle2 / 12 + 7 * angle2 * angle2 / 2880
    else:
        scale = angle / math.sin(angle / 2)
    return scale * x, scale * y, scale * z


def _embed_z(r2):
    out = np.eye(3)
    out[:2, :2] = r2
    return out


def _initial_frame(pu, pv, pm):
    """Analytic first guess: align u and v with +z, then diagonalize the
    in-plane block of M by a 2x2 SVD embedded as z-rotations."""
    if np.linalg.norm(pu) > _AXIS_MIN:
        we = pu
    else:
        we = np.linalg.eigh(pm @ pm.T)[1][:, 0]
    if np.linalg.norm(pv) > _AXIS_MIN:
        wn = pv
    else:
        wn = np.linalg.eigh(pm.T @ pm)[1][:, 0]
    oe = _rotation_to_z(we)
    on = _rotation_to_z(wn).T
    m_mid = oe @ pm @ on
    u2, _, v2h = np.linalg.svd(m_mid[:2, :2])
    u2 = u2 @ np.diag([1.0, np.linalg.det(u2)])
    v2h = np.diag([1.0, np.linalg.det(v2h)]) @ v2h
    return _embed_z(u2).T @ oe, on @ _embed_z(v2h).T


def rank2_canonical(state: TwoQubitState, tol: float = DEFAULT_TOL) -> Rank2Params:
    """Recover the generic-form parameters of a rank-2 state.

    Searches over rotation pairs (two rotation vectors, 6 parameters) for
    the frame in which the state matches the rank-2 family construction;
    the per-frame parameters are not free but extracted from the support
    projector and linear least squares, so the search only has to find the
    frame.  An analytic alignment already solves the input up to rounding;
    one Nelder-Mead run from it polishes the frame.  The search and the
    rotation-vector conversions are qpair's own kernels, which repeat
    scipy's floating-point steps, so the answers are those scipy's
    ``minimize`` and ``Rotation`` would give, bit for bit, without scipy.

    The analytic frame's in-plane SVD already orders g1 >= g2, and an
    unordered result raises; the (pi, pi) pair then makes x1 > 0 (x2 >= 0
    when x1 vanishes).  At g2 = 0 (g1 = pi/2) an x-rotation of qubit 2
    (qubit 1) turns (x2, x3) within the orbit, so there x2 = 0 and x3 =
    hypot(x2, x3).
    """
    if purity_rank(state, tol).rank != 2:
        raise PreconditionError("rank2_canonical requires a rank-2 state")
    return _rank2_frame(state, np.linalg.eigh(to_density_matrix(state))[1])[0]


def _rank2_frame(state, vecs):
    """``rank2_canonical``'s (params, o_ee, o_nn) of a valid rank-2 state from its
    ``eigh`` vectors; applying (o_ee, o_nn) to the state gives the family state.

    Nelder-Mead (``_neldermead``) polishes the analytic frame over two
    rotation vectors: ``_matrix_rotvec`` turns the start frame into them and
    ``_rotvec_matrix`` turns each vertex back into matrices.  Each
    evaluation rotates the stacked pairs (s, u), (t, v) and (C, M) in one
    product apiece.
    """
    support = vecs[:, 2:] @ vecs[:, 2:].conj().T
    pu0, pv0, pm0 = _projector_coefficients(support)
    sv0 = np.stack([state.s, pu0])[:, :, None]
    tv0 = np.stack([state.t, pv0])[:, :, None]
    cm0 = np.stack([state.C, pm0])

    def frame_of(theta):
        return _rotvec_matrix(theta[:3]), _rotvec_matrix(theta[3:])

    def mismatch(oe, on, params=None):
        s, pu = (oe @ sv0)[:, :, 0].tolist()
        t, pv = (on.T @ tv0)[:, :, 0].tolist()
        c, pm = (oe @ cm0 @ on).tolist()
        if params is None:
            params = _rank2_extract(pu, pv, pm, s, t, c)
        got = s + t + c[0] + c[1] + c[2]
        return params, np.array([a - b for a, b in zip(got, rank2_family_vector(*params))])

    def objective(theta):
        _, diff = mismatch(*frame_of(theta))
        return float(diff @ diff)

    oe_init, on_init = _initial_frame(pu0, pv0, pm0)
    res = minimize(
        objective,
        _matrix_rotvec(oe_init) + _matrix_rotvec(on_init),
        maxiter=2000,
        maxfev=3000,
        xatol=_POLISH_XATOL,
        fatol=_POLISH_FATOL,
    )

    oe, on = frame_of(res.x)
    params, diff = mismatch(oe, on)
    if params[1] > params[0] + ORDER_SLACK:
        # the clamp below would relabel such a state silently
        raise NumericalInconsistencyError(
            f"recovered gamma2 = {params[1]:.12g} above gamma1 = {params[0]:.12g}"
        )
    if params[2] < -ROUNDING_TOL or (abs(params[2]) <= ROUNDING_TOL and params[3] < -ROUNDING_TOL):
        oe, on = _RZ_PI @ oe, on @ _RZ_PI
        params, diff = mismatch(oe, on)
    # a corner's x-rotation turns (x2, x3): fix the representative (0, |(x2, x3)|)
    g1, g2, x1, x2, x3 = params
    h = math.hypot(x2, x3)
    if (g2 <= ROUNDING_TOL or g1 >= math.pi / 2 - ROUNDING_TOL) and h > 0.0:
        rx = np.array([[1.0, 0.0, 0.0], [0.0, x3 / h, -x2 / h], [0.0, x2 / h, x3 / h]])
        oe, on = (oe, on @ rx.T) if g2 <= ROUNDING_TOL else (rx @ oe, on)
        x2, x3 = 0.0, h
        params, diff = mismatch(oe, on, (g1, g2, x1, x2, x3))

    residual = float(np.max(np.abs(diff)))
    if residual > CROSS_CHECK_TOL:
        raise ConvergenceError(
            f"rank-2 canonicalization residual {residual:.3e} above {CROSS_CHECK_TOL:g}",
            residual=residual,
        )

    g1 = min(max(g1, 0.0), math.pi / 2)
    g2 = min(max(g2, 0.0), g1)
    result = Rank2Params(gamma1=g1, gamma2=g2, x1=x1, x2=x2, x3=x3)

    glob = _invariants(state)[1]
    x_sq_expected = (glob.A2 - 2.0) / 4.0
    if abs(result.x_sq - x_sq_expected) > CROSS_CHECK_TOL:
        raise NumericalInconsistencyError(
            f"recovered x^2 = {result.x_sq:.12g} but the invariants give "
            f"(A2 - 2)/4 = {x_sq_expected:.12g}"
        )
    return result, oe, on
