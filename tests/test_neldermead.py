"""qpair's Nelder-Mead against scipy's, bit for bit.

``qpair._neldermead.minimize`` repeats the floating-point steps of
``scipy.optimize.minimize(method="Nelder-Mead")`` for the options the
rank-2 frame polish uses, so on any objective both must stop on the same
vertex (``x`` byte for byte) after the same number of evaluations.  Both
sides run in this process on the same numpy, so the comparison holds on
any build.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize import rosen

import qpair.canonical as canon
from qpair import Rank2Params, RankTwo, apply_local, construct_family, rank2_canonical
from qpair._neldermead import minimize

from conftest import random_rotation, scipy_reference

pytestmark = scipy_reference

# the options of the rank-2 polish in canonical._rank2_frame
POLISH = {"maxiter": 2000, "maxfev": 3000, "xatol": 1e-13, "fatol": 1e-22}


def _assert_same(fun, x0, **options):
    want = scipy_minimize(fun, np.array(x0, dtype=float), method="Nelder-Mead", options=options)
    got = minimize(fun, x0, **options)
    assert got.x.tobytes() == want.x.tobytes(), (got.x, want.x)
    assert got.nfev == want.nfev
    return got


def _rosen(x):
    return float(rosen(np.asarray(x)))


def _step(x):
    # piecewise constant: whole groups of vertices share a value, so the
    # order of tied vertices decides the search
    return float(np.floor(4.0 * np.sum(np.square(x))))


def _rank2_states(rng):
    """60 rotated rank-2 family states: random, and at each corner."""
    states = []
    while len(states) < 60:
        g1 = rng.uniform(0.05, math.pi / 2 - 0.05)
        g2 = rng.uniform(0.0, g1)
        x = rng.normal(size=3)
        x *= rng.uniform(0.05, 0.95) / np.linalg.norm(x)
        corner = len(states) % 4
        if corner == 1:
            g2 = g1
        elif corner == 2:
            g2 = 0.0
        elif corner == 3:
            g1 = math.pi / 2
        family = construct_family(RankTwo(Rank2Params(g1, g2, *x)))
        states.append(apply_local(family, random_rotation(rng), random_rotation(rng)))
    return states


def test_matches_scipy_on_the_rank2_polish(monkeypatch, rng):
    # every polish run of rank2_canonical, with its own objective, start and
    # options, is repeated by scipy and compared
    runs = []

    def both(fun, x0, **options):
        runs.append(options)
        return _assert_same(fun, x0, **options)

    monkeypatch.setattr(canon, "minimize", both)
    for state in _rank2_states(rng):
        rank2_canonical(state)
    assert len(runs) == 60
    assert all(options == POLISH for options in runs)


@pytest.mark.parametrize(
    "x0",
    [[-1.2, 1.0], [0.5, -0.0, 2.0, 0.0, -1.5], [1.3, 0.7, 0.8, 1.9, 1.2, -0.4]],
    ids=["classic", "zeros", "six"],
)
def test_matches_scipy_on_rosenbrock(x0):
    got = _assert_same(_rosen, x0, maxiter=2000, maxfev=3000, xatol=1e-10, fatol=1e-20)
    if len(x0) == 2:
        assert np.allclose(got.x, [1.0, 1.0], atol=1e-8)


def test_matches_scipy_on_tied_values():
    for x0 in ([0.3, -0.0, 0.9], [0.6, 0.6, 0.6, 0.6], [1.0, -1.0]):
        _assert_same(_step, x0, maxiter=300, maxfev=600, xatol=1e-9, fatol=0.5)


@pytest.mark.parametrize("fun", [_rosen, _step], ids=["rosenbrock", "step"])
def test_matches_scipy_when_stopped_early(fun):
    # every maxfev from inside the start simplex up: the cap falls during
    # expansions, both contractions and (for the step function) shrinks
    x0 = [-1.2, 1.0, 0.0] if fun is _rosen else [0.3, -0.0, 0.9]
    for maxfev in range(1, 60):
        got = _assert_same(fun, x0, maxiter=10_000, maxfev=maxfev, xatol=1e-12, fatol=1e-12)
        assert got.nfev == maxfev
    for maxiter in range(1, 15):
        _assert_same(fun, x0, maxiter=maxiter, maxfev=10_000, xatol=1e-12, fatol=1e-12)
