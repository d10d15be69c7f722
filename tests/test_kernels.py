"""Optimizer kernels: reflection, chart, and the weight solver.

The Werner(0.6) + singlet pair gives a fully hand-computable pencil: in
the Bell eigenbasis the four constraint eigenvalues at weight lam are
(lam - 0.3), 0.1, (0.3 - 0.5 lam), and (0.5 lam - 0.1), so the margin and
the maximal feasible weight (0.6) are known exactly.  The kernels are
tested against those numbers.
"""

import numpy as np
import pytest

from qpair import (
    Bell,
    Werner,
    construct_family,
    product_state,
    pure_projector,
    reflect,
    to_density_matrix,
)
from qpair._kernels import (
    chart_amplitudes,
    lam_margin,
    max_feasible_lambda,
    neg_lambda_objective,
    reflect4,
)
from qpair.degree import _angles_from_amplitudes

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
# chart angles of the singlet: magnitudes (pi/2, pi/4, 0), phases (0, pi, 0)
_SINGLET_TH = np.array([np.pi / 2, np.pi / 4, 0.0, 0.0, np.pi, 0.0])


def _werner_pencil(x=0.6):
    rho = to_density_matrix(construct_family(Werner(x)))
    proj = pure_projector(_SINGLET)
    return rho, reflect4(rho), proj, reflect4(proj)


def test_reflect4_matches_parameter_reflection():
    from qpair import random_state

    for seed in range(6):
        state = random_state(seed)
        direct = to_density_matrix(reflect(state, "partial"))
        assert np.allclose(reflect4(to_density_matrix(state)), direct, atol=1e-14)


def test_reflect4_is_a_trace_preserving_involution():
    from qpair import random_state

    m = to_density_matrix(random_state(8))
    r = reflect4(m)
    assert np.trace(r) == pytest.approx(np.trace(m).real, abs=1e-14)
    assert np.allclose(reflect4(r), m, atol=1e-14)


def test_chart_amplitudes_unit_norm_and_phase_convention(rng):
    for r in (2, 3, 4):
        for _ in range(20):
            th = np.concatenate(
                [
                    rng.uniform(0, np.pi / 2, r - 1),
                    rng.uniform(-np.pi, np.pi, r - 1),
                ]
            )
            amp = chart_amplitudes(th)
            assert amp.shape == (r,)
            assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-14)
            assert amp[0].imag == 0.0
            assert amp[0].real >= 0.0


def test_chart_round_trip(rng):
    for r in (2, 3, 4):
        for _ in range(20):
            th = np.concatenate(
                [
                    rng.uniform(0.05, np.pi / 2 - 0.05, r - 1),
                    rng.uniform(-3.0, 3.0, r - 1),
                ]
            )
            amp = chart_amplitudes(th)
            back = chart_amplitudes(_angles_from_amplitudes(amp))
            assert np.allclose(back, amp, atol=1e-12)


def test_chart_of_singlet_angles():
    assert np.allclose(chart_amplitudes(_SINGLET_TH), _SINGLET, atol=1e-15)


def test_lam_margin_analytic_oracle():
    rho, rrho, proj, rproj = _werner_pencil()
    for lam, want in [(0.2, -0.1), (0.5, 0.05), (0.6, 0.0), (0.7, -0.05), (1.0, -0.2)]:
        got = lam_margin(rho, rrho, proj, rproj, lam)
        assert got == pytest.approx(want, abs=1e-12), lam


def test_max_feasible_lambda_at_interior_boundary():
    rho, rrho, proj, rproj = _werner_pencil()
    lam = max_feasible_lambda(rho, rrho, proj, rproj, 1e-10, 1e-8)
    assert lam == pytest.approx(0.6, abs=1e-7)


def test_max_feasible_lambda_full_weight():
    # A separable rho with its own most natural pure part stays feasible
    # at lam = 1 (the separable remainder is rho itself).
    rho = to_density_matrix(construct_family(Werner(0.0)))
    proj = pure_projector(np.array([1.0, 0, 0, 0], dtype=complex))
    assert max_feasible_lambda(rho, reflect4(rho), proj, reflect4(proj), 1e-10, 1e-8) == 1.0


def test_max_feasible_lambda_infeasible_pure_part():
    # A Bell state admits no separable remainder at all: removing any
    # weight of |00><00| leaves a negative eigenvalue somewhere.
    rho = to_density_matrix(construct_family(Bell()))
    proj = pure_projector(np.array([1.0, 0, 0, 0], dtype=complex))
    assert max_feasible_lambda(rho, reflect4(rho), proj, reflect4(proj), 1e-10, 1e-8) == 0.0


def test_neg_lambda_objective_at_singlet():
    rho, rrho, _, _ = _werner_pencil()
    obj = neg_lambda_objective(_SINGLET_TH, np.eye(4, dtype=complex), rho, rrho, 1e-10, 1e-8)
    assert obj == pytest.approx(-0.6, abs=1e-7)


def test_neg_lambda_objective_merit_when_infeasible():
    # A Bell state admits no feasible weight for any pure part (even its
    # own singlet leaves a non-PPT remainder), so the objective returns
    # the positive distance-to-feasibility merit everywhere.  The merit
    # must shrink monotonically toward zero as the pure part approaches
    # the singlet, which is what gives the simplex search its signal.
    rho = to_density_matrix(construct_family(Bell()))
    rrho = reflect4(rho)
    u = np.eye(4, dtype=complex)
    merit_far = neg_lambda_objective(np.zeros(6), u, rho, rrho, 1e-10, 1e-8)
    th_near = _SINGLET_TH.copy()
    th_near[1] += 0.3
    merit_near = neg_lambda_objective(th_near, u, rho, rrho, 1e-10, 1e-8)
    merit_sing = neg_lambda_objective(_SINGLET_TH, u, rho, rrho, 1e-10, 1e-8)
    assert merit_far == pytest.approx(0.5, abs=1e-8)
    assert 0.0 < merit_sing < 1e-8 < merit_near < merit_far


def test_neg_lambda_objective_full_feasibility():
    # Chaos with any product pure part is feasible at lam = 1, the
    # objective's early exit.
    rho = to_density_matrix(construct_family(Werner(0.0)))
    obj = neg_lambda_objective(
        np.zeros(6), np.eye(4, dtype=complex), rho, reflect4(rho), 1e-10, 1e-8
    )
    assert obj == -1.0

