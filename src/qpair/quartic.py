"""Robust real-rooted quartic solver.

The eigenvalue quartics handled here come from Hermitian 4x4 matrices, so
all four roots are real, but they are frequently multiple: pure states give
a triple root and rank-2 states a double root.  A rootfinder working from
the coefficients alone smears an exact k-fold root over a disk of radius
~eps^(1/k) times the coefficient condition, observed beyond 1e-3 for k >= 3,
which is far too coarse here.  A k-fold root is therefore decided
analytically, as a point at which p and its first k - 1 derivatives all
vanish: a quadruple root at the zero of p''' and a triple root at a zero
of p''.  Everything else is decided by Rolle's theorem.  The zeros of p'
interlace the roots of a real-rooted p, so p is monotone between two
neighbouring critical points and holds exactly one root there.  Where p
vanishes at a critical point the two neighbouring roots are one double
root; where p has the wrong sign for interlacing they are a complex pair
and only their real part is kept.  The critical points come the same way
from the zeros of p'', so multiplicity is decided by the values of p at
the points where it can occur, with no window on the distance of roots.
Companion-matrix roots polished by Newton seed the brackets of p, and
their midpoints those of p'.  A seed is kept where it already sits on a
zero inside its own bracket; a bracketed Newton-bisection finds any root
the seeds miss, such as the members of a smeared cluster.

Vanishing is judged against the coefficient backward-error floor evaluated
at the candidate point itself: a floor taken at the polynomial's global
scale would merge any separated roots sitting near zero.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalInconsistencyError

__all__ = ["real_quartic_roots"]

_EPS = float(np.finfo(np.float64).eps)

# A value of p below this many eps * sum |a_i| |z|^(n-i) is rounding noise.
# At the exact double and triple roots of rotated pure, rank-2, Werner and
# Werner-like spectral quartics, p and p' measure at most about 5 of these
# units, so the floor keeps a wide margin for the multiple roots it must
# catch.
_NOISE_UNITS = 64.0
# largest imaginary residue of a companion root that still counts as real
_IMAG_ERROR = 1e-6
# a derivative this small gives no Newton step: the step would overflow
_TINY_SLOPE = 1e-300


def _horner(coeffs, z):
    p = 0.0
    for c in coeffs:
        p = p * z + c
    return p


def _floor(poly, z):
    """Rounding noise of ``poly`` at z, judged at the point's own scale."""
    s = abs(z)
    deg = len(poly) - 1
    return _NOISE_UNITS * _EPS * sum(abs(c) * s ** (deg - i) for i, c in enumerate(poly))


def _vanishes(poly, z):
    return abs(_horner(poly, z)) <= _floor(poly, z)


def _polish(coeffs, dcoeffs, z, iters=6):
    """A few Newton steps; quadratic convergence at simple roots.

    The input is already a good approximation, so a large step means the
    local model is degenerate (p and p' both at noise level near a
    multiple root); bail out rather than jump away.
    """
    for _ in range(iters):
        dp = _horner(dcoeffs, z)
        if abs(dp) < _TINY_SLOPE:
            break
        step = _horner(coeffs, z) / dp
        if abs(step) > 0.05 * (1.0 + abs(z)):
            break
        z = z - step
        if abs(step) <= 4 * _EPS * (1.0 + abs(z)):
            break
    return z


def _bracketed_zero(poly, dpoly, lo, hi, rising, z):
    """The zero of ``poly`` on [lo, hi], across which it is monotone.

    Newton's method from z, shrinking the bracket with the sign of every
    iterate and bisecting whenever a step would leave it.
    """
    z = float(z)
    if not lo <= z <= hi:
        z = 0.5 * (lo + hi)
    for _ in range(200):
        f = _horner(poly, z)
        if f == 0.0:
            break
        if (f > 0.0) == rising:
            hi = z
        else:
            lo = z
        d = _horner(dpoly, z)
        step = f / d if d != 0.0 else np.inf
        if not lo <= z - step <= hi:
            step = z - 0.5 * (lo + hi)
        z = z - step
        tiny = 4 * _EPS * (1.0 + abs(z))
        if abs(step) <= tiny or hi - lo <= tiny:
            break
    return z


def _interlaced_roots(poly, dpoly, crit, seeds, bound):
    """The n real roots of ``poly`` (degree n, positive leading
    coefficient) given its n - 1 critical points ``crit``, ascending.

    Root k lies between crit[k - 1] and crit[k], the outer brackets closed
    by the root bound.  A critical point at which ``poly`` vanishes, or has
    the wrong sign for interlacing, joins its two neighbouring roots into a
    double root there, the most nearly vanishing first; one whose neighbour
    is already taken joins nothing, so two double roots either side of a
    noisy maximum stay two double roots.  ``seeds`` are polished guesses,
    one per root, kept when they sit inside their own bracket on a zero of
    ``poly``; any other root is solved for in its bracket, which ends on
    the bracket's edge when ``poly`` keeps one sign across it.  Also
    returns whether interlacing failed, i.e. ``poly`` has a complex pair.
    """
    n = len(poly) - 1
    ends = [-bound, *crit, bound]
    roots = [None] * n
    merges = []
    for j in range(1, n):
        value = _horner(poly, ends[j])
        noise = _floor(poly, ends[j])
        # n - j roots lie to the right of crit[j - 1]
        if abs(value) <= noise or (value > 0.0) != ((n - j) % 2 == 0):
            ratio = abs(value) / noise if noise else (np.inf if value else 0.0)
            merges.append((ratio, j))
    for _, j in sorted(merges):
        if roots[j - 1] is None and roots[j] is None:
            roots[j - 1] = roots[j] = ends[j]
    for k, seed in enumerate(seeds):
        if roots[k] is not None:
            continue
        lo, hi = ends[k], ends[k + 1]
        if seed.imag == 0.0 and lo < seed.real < hi and _vanishes(poly, seed.real):
            roots[k] = float(seed.real)
        else:
            rising = (n - k - 1) % 2 == 0
            roots[k] = _bracketed_zero(poly, dpoly, lo, hi, rising, seed.real)
    return roots, any(ratio > 1.0 for ratio, _ in merges)


def real_quartic_roots(a3, a2, a1, a0) -> np.ndarray:
    """All four roots of z^4 + a3 z^3 + a2 z^2 + a1 z + a0, descending.

    Expects a polynomial whose roots are real (a Hermitian characteristic
    polynomial).  Residual imaginary parts after refinement are truncated;
    if any exceeds ``_IMAG_ERROR`` the input was not real-rooted to working
    precision and a ``NumericalInconsistencyError`` is raised.

    Returns
    -------
    ndarray, shape (4,)
        Real roots sorted in descending order.
    """
    coeffs = (1.0, float(a3), float(a2), float(a1), float(a0))
    d1 = (4.0, 3.0 * coeffs[1], 2.0 * coeffs[2], coeffs[3])
    d2 = (12.0, 6.0 * coeffs[1], 2.0 * coeffs[2])
    d3 = (24.0, 6.0 * coeffs[1])

    # Roots of multiplicity 3 and 4 defeat any rootfinder working from the
    # coefficients: the companion-matrix smear of a k-fold root grows like
    # eps^(1/k) times the coefficient condition.  A quadruple root sits at
    # -a3/4, the zero of p'''; a triple root is a zero of p'' at which p
    # and p' also vanish.
    z4 = -coeffs[1] / 4.0
    if _vanishes(coeffs, z4) and _vanishes(d1, z4) and _vanishes(d2, z4):
        return np.full(4, z4)
    disc = 9.0 * coeffs[1] ** 2 - 24.0 * coeffs[2]
    rdisc = max(disc, 0.0) ** 0.5
    inflections = ((-3.0 * coeffs[1] - rdisc) / 12.0, (-3.0 * coeffs[1] + rdisc) / 12.0)
    if disc >= 0.0:
        for w in inflections[::-1]:
            if _vanishes(coeffs, w) and _vanishes(d1, w):
                # remaining simple root from the coefficient sum
                other = float(_polish(coeffs, d1, -coeffs[1] - 3.0 * w).real)
                return np.sort(np.array([w, w, w, other]))[::-1]

    members = np.roots(coeffs).astype(np.complex128)
    members = np.array([_polish(coeffs, d1, z) for z in members])
    members = members[np.argsort(members.real)]

    # every root, critical point and inflection point lies within the
    # Cauchy bound of p (Gauss-Lucas for the derivatives)
    bound = 1.0 + max(abs(c) for c in coeffs[1:])
    u, complex2 = _interlaced_roots(d2, d3, [z4], inflections, bound)
    # the critical point between two neighbouring members, from their midpoint
    mids = [_polish(d1, d2, float(np.mean(members[j : j + 2]).real)) for j in range(3)]
    c, complex1 = _interlaced_roots(d1, d2, u, mids, bound)
    roots, complex0 = _interlaced_roots(coeffs, d1, c, list(members), bound)

    # a smeared cluster of real roots can leave companion roots complex;
    # only failed interlacing shows that the input has a complex pair
    if complex0 or complex1 or complex2:
        worst_imag = float(np.max(np.abs(members.imag)))
        if worst_imag > _IMAG_ERROR:
            raise NumericalInconsistencyError(
                f"quartic expected real roots, found imaginary residue {worst_imag:.3e} "
                f"> {_IMAG_ERROR:.1e} (non-Hermitian input upstream?)"
            )
    return np.sort(np.asarray(roots))[::-1]
