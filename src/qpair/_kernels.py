"""Small numeric kernels.

``reflect4`` gives ``degree``'s split margins and its SDP's partial
reflection, on one matrix or a stack.  ``_golden_max`` and ``_bisect`` serve
``degree.degree_werner_second`` and the harness-only weight solve below:
only perfbench's kernel micro-workload, which pins their values, calls
``max_feasible_lambda`` and ``neg_lambda_objective`` (weight solve and
objective of the retired pure-part search), and ``lam_margin`` and
``chart_amplitudes`` serve only those two.

The feasible set of the weight lam is an interval: the smallest eigenvalue
of an affine Hermitian pencil is a concave function of lam, and so is the
minimum of two of them, so {lam : margin(lam) >= threshold(lam)} with an
affine threshold is convex.  The solver exploits this: golden-section
search on the concave margin finds an interior feasible point even when
the interval degenerates to a single touching point, and bisection then
pins the upper boundary.  Feasibility allows ``EIGEN_FLOOR`` of eigenvalue
noise, as ``degree`` does.  This paragraph describes harness-only code.
"""

from __future__ import annotations

import numpy as np

from ._tolerances import EIGEN_FLOOR

__all__ = [
    "reflect4",
    "chart_amplitudes",
    "lam_margin",
    "max_feasible_lambda",
    "neg_lambda_objective",
]

_GOLDEN = 0.6180339887498949
# left end of _golden_max's interval: its functions divide by the argument
_GOLDEN_LOW = 1e-9


def reflect4(m):
    """Partial reflection of a 4x4 matrix: 1 (x) tr_1(m) - m.

    Written with 2x2 blocks, no Kronecker product, on the last two axes, so
    a stack of matrices reflects in one call.  Equals the density matrix of
    the parameter map (s, t, C) -> (-s, t, -C), shares its spectrum with the
    partial transpose, and is an involution, self-adjoint under tr(AB).
    """
    out = -m.copy()
    reduced = m[..., :2, :2] + m[..., 2:, 2:]
    out[..., :2, :2] += reduced
    out[..., 2:, 2:] += reduced
    return out


def chart_amplitudes(th):
    """Hyperspherical chart: 2(r-1) real angles -> r complex amplitudes.

    The first r-1 entries of ``th`` are magnitude angles (nested
    sin/cos chain, unit norm by construction), the rest are phases on
    components 1..r-1; component 0 stays real.  This fixes normalization
    and global phase, leaving exactly the physical degrees of freedom.
    """
    r = th.shape[0] // 2 + 1
    amp = np.zeros(r, dtype=np.complex128)
    prod = 1.0
    for k in range(r - 1):
        amp[k] = prod * np.cos(th[k])
        prod = prod * np.sin(th[k])
    amp[r - 1] = prod
    for k in range(1, r):
        amp[k] = amp[k] * np.exp(1j * th[r - 2 + k])
    return amp


def lam_margin(rho, rrho, proj, rproj, lam):
    """Smallest eigenvalue over both positivity constraints at weight lam.

    The candidate separable part (unnormalized) is rho - (1-lam) proj; it
    must be positive and stay positive under partial reflection.  rrho and
    rproj are the pre-reflected rho and projector (reflection is linear,
    so the pencil reflects term by term).
    """
    m1 = rho - (1.0 - lam) * proj
    m2 = rrho - (1.0 - lam) * rproj
    e1 = np.linalg.eigvalsh(m1)[0]
    e2 = np.linalg.eigvalsh(m2)[0]
    return min(e1, e2)


def _feasible(rho, rrho, proj, rproj, lam, feas_tol):
    m = lam_margin(rho, rrho, proj, rproj, lam)
    return m >= -(feas_tol * lam + EIGEN_FLOOR)


def _golden_max(f, steps):
    """Maximize a unimodal f over (0, 1] by ``steps`` golden-section steps.

    Returns (argmax, f(argmax)).
    """
    a = _GOLDEN_LOW
    b = 1.0
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1 = f(c1)
    f2 = f(c2)
    for _ in range(steps):
        if f1 < f2:
            a = c1
            c1 = c2
            f1 = f2
            c2 = a + _GOLDEN * (b - a)
            f2 = f(c2)
        else:
            b = c2
            c2 = c1
            f2 = f1
            c1 = b - _GOLDEN * (b - a)
            f1 = f(c1)
    best = 0.5 * (a + b)
    return best, f(best)


def _bisect(ok, lo, hi, tol):
    """Bisect [lo, hi] for the upper end of the interval where ok holds,
    given that it holds at lo; returns the last point found to hold."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _solve_weight(rho, rrho, proj, rproj, feas_tol, lam_tol):
    """(largest feasible weight, best tilted margin); the weight is 0.0
    when none is feasible, and only then is the margin meaningful."""
    if _feasible(rho, rrho, proj, rproj, 1.0, feas_tol):
        return 1.0, 0.0
    lo, val = _golden_max(
        lambda lam: lam_margin(rho, rrho, proj, rproj, lam) + feas_tol * lam, 70
    )
    if val < -EIGEN_FLOOR:
        return 0.0, val
    lam = _bisect(
        lambda mid: _feasible(rho, rrho, proj, rproj, mid, feas_tol), lo, 1.0, lam_tol
    )
    return lam, val


def max_feasible_lambda(rho, rrho, proj, rproj, feas_tol, lam_tol):
    """Largest lam in (0, 1] whose separable part is positive and PPT.

    Returns 0.0 when no positive weight is feasible.  feas_tol is the
    eigenvalue slack allowed on the normalized separable part (hence
    scaled by lam); lam_tol is the bisection resolution.
    """
    return _solve_weight(rho, rrho, proj, rproj, feas_tol, lam_tol)[0]


def neg_lambda_objective(th, u_support, rho, rrho, feas_tol, lam_tol):
    """Minimization objective: minus the best weight for the pure part
    parameterized by chart angles ``th`` within the support basis.

    Where no weight is feasible the value is minus the best achievable
    tilted margin (a positive number shrinking to zero at feasibility),
    so the search has a gradient signal toward feasible pure parts.
    Rank deficient states need this: their feasible set in the pure part
    can have measure zero, with the margin peaking at exactly zero.
    """
    amp = chart_amplitudes(th)
    psi = u_support @ amp
    proj = np.outer(psi, np.conj(psi))
    rproj = reflect4(proj)
    lam, val = _solve_weight(rho, rrho, proj, rproj, feas_tol, lam_tol)
    if lam == 0.0:
        return -val
    return -lam
