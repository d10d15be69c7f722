"""Nelder-Mead simplex minimization (Nelder & Mead, Comput. J. 7, 308 (1965)).

The polish of the rank-2 frame in ``canonical._rank2_frame`` is its only
user.  This is scipy 1.17's ``_minimize_neldermead`` cut down to what that
polish asks for: the standard coefficients (reflection 1, expansion 2,
contraction 1/2, shrink 1/2), no bounds, no adaptive coefficients, no
callback and the default start simplex.  Every step repeats scipy's
floating-point operations in scipy's order, so ``x`` and ``nfev`` agree
with ``scipy.optimize.minimize(method="Nelder-Mead")`` bit for bit:

- the centroid is summed vertex by vertex in simplex order, starting from
  +0.0 as numpy's ``add.reduce`` does, then divided by N;
- vertices are ordered by ``np.argsort`` of their values, so ties fall as
  scipy's do (twice after the start simplex, as scipy sorts it twice);
- the evaluation that would exceed ``maxfev`` is not made, and the
  iteration it belongs to ends where it stands.

Vertices are tuples of Python floats, and ``fun`` receives them as such.

``canonical`` and ``degree`` bind ``minimize`` as a module attribute, which
is the name ``perfbench/tracing.py`` rebinds to count solver calls through
``nfev``; it lives in this non-layer module so the tracer counts its time
as solver time.  ``degree`` keeps the binding only for the tracer, until
the benchmark stops reading it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# scipy's start simplex: each vertex moves one coordinate of x0 by 5 %, or
# sets it to this value where it is zero
_NONZDELT = 0.05
_ZDELT = 0.00025


class NelderMeadResult(NamedTuple):
    x: np.ndarray  # the best vertex
    nfev: int  # objective evaluations made


class _Exhausted(Exception):
    """The next evaluation would exceed ``maxfev``."""


def minimize(fun, x0, *, maxiter, maxfev, xatol, fatol):
    """Minimize ``fun`` from ``x0`` by the Nelder-Mead simplex search.

    Stops once every vertex lies within ``xatol`` of the best one in each
    coordinate and every value within ``fatol`` of the best value, or
    after ``maxiter`` iterations or ``maxfev`` evaluations.
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return fun(x)

    def ordered(sim, fsim):
        order = np.array(fsim).argsort().tolist()
        return [sim[i] for i in order], [fsim[i] for i in order]

    x0 = tuple(map(float, x0))
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(tuple(y))
    fsim = [np.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Exhausted:
        pass
    sim, fsim = ordered(*ordered(sim, fsim))

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            best, fbest = sim[0], fsim[0]
            if all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, best)) and all(
                abs(fbest - fv) <= fatol for fv in fsim[1:]
            ):
                break
            # numpy's add.reduce starts from +0.0, so an all -0.0 column sums to +0.0
            total = [0.0] * n
            for v in sim[:-1]:
                total = [a + b for a, b in zip(total, v)]
            xbar = [a / n for a in total]
            worst = sim[-1]
            xr = tuple(2 * a - b for a, b in zip(xbar, worst))
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = tuple(3 * a - 2 * b for a, b in zip(xbar, worst))
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    # outside contraction
                    xc = tuple(1.5 * a - 0.5 * b for a, b in zip(xbar, worst))
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:
                    # inside contraction
                    xc = tuple(0.5 * a + 0.5 * b for a, b in zip(xbar, worst))
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = tuple(a + 0.5 * (b - a) for a, b in zip(best, sim[j]))
                        fsim[j] = f(sim[j])
            iterations += 1
        except _Exhausted:
            pass
        sim, fsim = ordered(sim, fsim)

    return NelderMeadResult(x=np.array(sim[0]), nfev=nfev)
