"""Degree of separability: closed forms, the weight solver, the optimizer.

Frozen values in here were computed from the closed forms themselves at
well-separated parameters and double-checked by hand where a formula
collapses to simple numbers (Werner 0.5 -> 0.75, the x = 0 rank-2 state
at theta = pi/6 -> 2/3).  Optimizer agreement at small restart counts is
checked loosely; the acceptance suite does the systematic comparison.
"""

import importlib
import math

import numpy as np
import pytest

from qpair import (
    Bell,
    ConvergenceError,
    GenericPure,
    NumericalInconsistencyError,
    PreconditionError,
    Rank2Params,
    RankTwo,
    TwoQubitState,
    Werner,
    WernerSecond,
    construct_family,
    degree,
    degree_rank2,
    degree_werner,
    degree_werner_first,
    degree_werner_second,
    is_separable,
    ls_lambda_for_pure,
    ls_optimize,
    mix,
    product_state,
    pure_projector,
    random_state,
    rank2_separable_pures,
    to_density_matrix,
)

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
_G2 = math.atan(0.5)  # with gamma1 = pi/4 this puts theta at pi/6


def test_degree_werner_closed_form():
    assert degree_werner(0.0) == 1.0
    assert degree_werner(1.0 / 3.0) == 1.0
    assert degree_werner(0.5) == pytest.approx(0.75, abs=1e-15)
    assert degree_werner(0.9) == pytest.approx(0.15, abs=1e-15)
    assert degree_werner(1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="Werner weight"):
        degree_werner(1.2)


def test_degree_werner_first_matches_werner_on_overlap():
    for x in (0.4, 0.5, 2.0 / 3.0, 0.9, 1.0):
        state = construct_family(Werner(x))
        assert degree_werner_first(state) == pytest.approx(degree_werner(x), abs=1e-12)


def test_degree_werner_first_branches():
    # det C > 0: always separable (validity already caps the trace
    # modulus of the plus-sign family at 1).
    plus = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=np.diag([0.5, 0.3, 0.1]))
    assert degree_werner_first(plus) == 1.0
    # det C < 0 but trace modulus below 1: still separable.
    small = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=np.diag([-0.4, 0.3, 0.2]))
    assert degree_werner_first(small) == 1.0
    # det C < 0 and trace modulus 2.55: S = 1.5 - 1.275 = 0.225.
    big = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-0.85 * np.eye(3))
    assert degree_werner_first(big) == pytest.approx(0.225, abs=1e-12)


def test_degree_werner_first_preconditions():
    with pytest.raises(PreconditionError, match="s = t = 0"):
        degree_werner_first(product_state([0.5, 0, 0], [0, 0, 0]))
    invalid = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-np.diag([0.8, 0.5, 0.2]))
    with pytest.raises(PreconditionError, match="valid"):
        degree_werner_first(invalid)


def test_degree_werner_first_decides_at_tol():
    # Minimum eigenvalue -1e-6: invalid at the default tolerance, valid at
    # 1e-3.  Pauli vectors of 1e-10 vanish at 1e-9 but not at 1e-12.
    shifted = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-1.000004 * np.eye(3))
    with pytest.raises(PreconditionError, match="valid"):
        degree_werner_first(shifted)
    assert degree_werner_first(shifted, tol=1e-3) == pytest.approx(-6e-6, abs=1e-12)
    near = construct_family(Werner(0.8))
    near = TwoQubitState(s=np.array([1e-10, 0.0, 0.0]), t=near.t, C=near.C)
    assert degree_werner_first(near) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(PreconditionError, match="s = t = 0"):
        degree_werner_first(near, tol=1e-12)


def test_degree_werner_second_threshold():
    # q = 0.8: separable exactly up to x = 1/2.6.
    x_th = 1.0 / 2.6
    rec = degree_werner_second(x_th, 0.6)
    assert rec.S == 1.0
    assert rec.q0 is None and rec.p0 is None
    rec = degree_werner_second(x_th + 1e-9, 0.6)
    assert rec.S < 1.0
    assert rec.S == pytest.approx(1.0, abs=1e-8)


def test_degree_werner_second_q0_window():
    # The q0 = 1 window for p = 0.6 reaches x = 0.69 and closes by 0.70.
    rec = degree_werner_second(0.69, 0.6)
    assert rec.q0 == 1.0
    assert rec.S == pytest.approx(0.603, abs=1e-12)
    rec = degree_werner_second(0.70, 0.6)
    assert rec.q0 < 1.0
    assert rec.S == pytest.approx(0.58994988065777, abs=1e-10)


def test_degree_werner_second_frozen_value():
    rec = degree_werner_second(0.8, 0.6)
    assert rec.S == pytest.approx(0.43743851341688866, abs=1e-10)
    assert rec.q0 == pytest.approx(0.9598950743675232, abs=1e-8)
    assert rec.p0 == pytest.approx(math.sqrt(1 - rec.q0**2), abs=1e-12)


def test_degree_werner_second_pure_limit():
    # x = 1 is the pure state itself: S = 0 and the feasible set pinches
    # to the single point q0 = q.
    rec = degree_werner_second(1.0, 0.6)
    assert rec.S == pytest.approx(0.0, abs=1e-7)
    assert rec.q0 == pytest.approx(0.8, abs=1e-6)


def test_degree_werner_second_validation():
    with pytest.raises(ValueError, match="mixing weight"):
        degree_werner_second(1.1, 0.5)
    with pytest.raises(ValueError, match="strictly"):
        degree_werner_second(0.5, 0.0)


def test_degree_rank2_kind_a():
    rec = degree_rank2(Rank2Params(math.pi / 4, _G2, 0.0, 0.0, 0.0))
    assert rec.S == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rec.pair_kind == "a"
    # theta = pi/6, x = (0, 0.4, 0.3): root = hypot(-0.2, 0.2 sqrt(3)) = 0.4,
    # S = (1 - 0.15 - 0.4) / 0.75 = 0.6.
    rec = degree_rank2(Rank2Params(math.pi / 4, _G2, 0.0, 0.4, 0.3))
    assert rec.S == pytest.approx(0.6, abs=1e-12)
    assert rec.pair_kind == "a"


def test_degree_rank2_kinds_b_and_c_mirror():
    b = degree_rank2(Rank2Params(math.pi / 4, _G2, 0.9, 0.0, 0.0))
    c = degree_rank2(Rank2Params(math.pi / 4, _G2, -0.9, 0.0, 0.0))
    assert b.pair_kind == "b"
    assert c.pair_kind == "c"
    assert b.S == pytest.approx(c.S, abs=1e-14)
    assert b.S == pytest.approx(0.430688336365782, abs=1e-12)


def test_degree_rank2_degenerate_and_separable():
    # sin(gamma1) cos(gamma2) = 0: every state in the subspace separable.
    assert degree_rank2(Rank2Params(0.0, 0.0, 0.0, 0.0, 0.4)).S == 1.0
    assert degree_rank2(Rank2Params(0.0, 0.0, 0.0, 0.0, 0.4)).pair_kind is None
    assert degree_rank2(Rank2Params(math.pi / 2, math.pi / 2, 0.0, 0.0, 0.3)).S == 1.0
    # A separable member of a nondegenerate subspace: shortcut, no kind.
    sep = rank2_separable_pures(math.pi / 4, _G2)[0]
    rec = degree_rank2(sep)
    assert rec.S == 1.0
    assert rec.pair_kind is None
    with pytest.raises(TypeError, match="Rank2Params"):
        degree_rank2((0.5, 0.3, 0.0, 0.0, 0.0))


def test_rank2_separable_pures():
    pair = rank2_separable_pures(math.pi / 4, _G2)
    assert len(pair) == 2
    for par in pair:
        assert par.x_sq == pytest.approx(1.0, abs=1e-12)
        state = construct_family(RankTwo(par))
        assert is_separable(state).decision
    assert pair[0].x1 == pytest.approx(-pair[1].x1, abs=1e-15)
    # Equal angles: theta = 0, a single separable pure at x = (0, 0, 1).
    only = rank2_separable_pures(0.8, 0.8)
    assert len(only) == 1
    assert np.allclose(only[0].x, [0.0, 0.0, 1.0])
    assert rank2_separable_pures(0.0, 0.0) is None


def test_ls_lambda_for_pure_werner_singlet():
    state = construct_family(Werner(0.6))
    lam = ls_lambda_for_pure(state, _SINGLET)
    assert lam == pytest.approx(0.6, abs=1e-6)
    # A poorly chosen pure part certifies less.
    lam_bad = ls_lambda_for_pure(state, np.array([1.0, 0, 0, 0]))
    assert lam_bad < 0.55


def test_ls_lambda_for_pure_bell_is_zero():
    assert ls_lambda_for_pure(construct_family(Bell()), _SINGLET) == 0.0


def test_ls_lambda_for_pure_requires_validity():
    invalid = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-np.diag([0.8, 0.5, 0.2]))
    with pytest.raises(PreconditionError, match="valid"):
        ls_lambda_for_pure(invalid, _SINGLET)


def _check_decomposition(state, dec, atol=1e-8):
    rho = to_density_matrix(state)
    sep_rho = to_density_matrix(dec.sep)
    if dec.pure is None:
        assert dec.lambda_ == 1.0
        recomposed = sep_rho
    else:
        assert np.linalg.norm(dec.pure) == pytest.approx(1.0, abs=1e-12)
        recomposed = dec.lambda_ * sep_rho + (1.0 - dec.lambda_) * pure_projector(dec.pure)
    assert np.allclose(recomposed, rho, atol=atol)
    assert dec.margins["sep_min_eigenvalue"] >= -1e-8
    assert dec.margins["sep_reflected_min_eigenvalue"] >= -1e-8


def test_ls_optimize_werner():
    state = construct_family(Werner(0.6))
    dec = ls_optimize(state, restarts=8)
    assert dec.lambda_ == pytest.approx(0.6, abs=5e-3)
    _check_decomposition(state, dec)
    assert is_separable(dec.sep, tol=1e-7).decision
    # History tracks the running best, one entry per restart.
    assert len(dec.objective_history) == 8
    bests = [lam for _, lam in dec.objective_history]
    assert bests == sorted(bests)


def test_ls_optimize_separable_shortcut():
    state = construct_family(Werner(0.2))
    dec = ls_optimize(state, restarts=4)
    assert dec.lambda_ == 1.0
    assert dec.pure is None
    assert np.array_equal(dec.sep.as_vector(), state.as_vector())


def test_ls_optimize_pure_entangled():
    state = construct_family(GenericPure(0.3))
    dec = ls_optimize(state, restarts=4)
    assert dec.lambda_ == 0.0
    assert dec.pure is not None
    assert np.allclose(
        pure_projector(dec.pure), to_density_matrix(state), atol=1e-10
    )
    assert np.allclose(dec.sep.as_vector(), 0.0)


@pytest.mark.parametrize(
    "params",
    [
        Rank2Params(math.pi / 4, _G2, 0.0, 0.4, 0.3),
        Rank2Params(0.8, 0.8, 0.3, 0.4, -0.5),
        Rank2Params(0.9, 0.0, 0.15, 0.3, -0.4),
        Rank2Params(math.pi / 2, 0.6, 0.3, 0.2, 0.4),
    ],
    ids=["generic", "equal_angles", "gamma2_zero", "gamma1_right_angle"],
)
def test_ls_optimize_rank2_is_exact(params, monkeypatch):
    # Entangled rank-2 states are solved over the product states of the
    # support, with no Nelder-Mead search; gamma1 = gamma2 has one product
    # state (a double root), the other corners sit on the chart's edges.
    from qpair import apply_local
    from conftest import random_rotation

    def no_search(*args, **kwargs):
        raise AssertionError("rank-2 ls_optimize must not search")

    # the package attribute qpair.degree is the function, so go by module
    monkeypatch.setattr(importlib.import_module("qpair.degree"), "minimize", no_search)
    rng = np.random.default_rng(28)
    state = apply_local(
        construct_family(RankTwo(params)), random_rotation(rng), random_rotation(rng)
    )
    closed = degree_rank2(params)
    assert closed.pair_kind is not None
    dec = ls_optimize(state)
    assert dec.lambda_ == pytest.approx(closed.S, abs=1e-7)
    assert dec.objective_history == ((0, dec.lambda_),)
    _check_decomposition(state, dec, atol=1e-12)


def test_ls_optimize_requires_validity():
    invalid = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-np.diag([0.8, 0.5, 0.2]))
    with pytest.raises(PreconditionError, match="valid"):
        ls_optimize(invalid)


def test_degree_dispatch_separable():
    res = degree(construct_family(Werner(0.2)))
    assert res.S == 1.0
    assert res.method == "SeparableShortcut"
    assert res.decomposition is not None
    assert res.decomposition.lambda_ == 1.0


def test_degree_dispatch_werner_first():
    res = degree(construct_family(Werner(0.5)))
    assert res.S == pytest.approx(0.75, abs=1e-12)
    assert res.method == "ClosedFormWernerFirst"
    assert res.family_data["det_C"] == pytest.approx(-0.125, abs=1e-12)
    assert res.family_data["trace_modulus"] == pytest.approx(1.5, abs=1e-12)
    bell = degree(construct_family(Bell()))
    assert bell.method == "ClosedFormWernerFirst"
    assert bell.S == pytest.approx(0.0, abs=1e-12)


def test_degree_dispatch_werner_second():
    res = degree(construct_family(WernerSecond(x=0.8, p=0.6)))
    assert res.method == "ClosedFormWernerSecond"
    assert res.S == pytest.approx(0.43743851341688866, abs=1e-8)
    assert res.family_data["x"] == pytest.approx(0.8, abs=1e-10)
    assert res.family_data["p"] == pytest.approx(0.6, abs=1e-10)


def test_degree_dispatch_pure_entangled():
    res = degree(construct_family(GenericPure(0.6)))
    assert res.method == "ClosedFormWernerSecond"
    assert res.S == pytest.approx(0.0, abs=1e-6)


def test_degree_dispatch_rank2():
    from qpair import apply_local
    from conftest import random_rotation

    rng = np.random.default_rng(7)
    par = Rank2Params(math.pi / 4, _G2, 0.0, 0.4, 0.3)
    state = apply_local(
        construct_family(RankTwo(par)), random_rotation(rng), random_rotation(rng)
    )
    res = degree(state)
    assert res.method == "ClosedFormRank2"
    assert res.S == pytest.approx(0.6, abs=1e-6)
    assert res.family_data["pair_kind"] == "a"
    assert res.family_data["gamma1"] == pytest.approx(math.pi / 4, abs=1e-6)


def test_degree_dispatch_optimizer():
    # A generic full-rank entangled state reaches the optimizer; its
    # result must be a valid certified decomposition.
    state = mix(
        [construct_family(Werner(0.7)), product_state([0.3, 0.1, 0], [0, 0.2, 0.1])],
        [0.85, 0.15],
    )
    assert not is_separable(state).decision
    res = degree(state, restarts=8)
    assert res.method == "Optimizer"
    assert 0.0 < res.S < 1.0
    _check_decomposition(state, res.decomposition)


def test_degree_optimizer_agrees_with_werner_second_closed_form():
    # Break the exact degeneracy so the dispatcher cannot shortcut, then
    # compare against the nearby closed form.
    base = construct_family(WernerSecond(x=0.8, p=0.6))
    bump = 1e-4
    perturbed = TwoQubitState(
        s=base.s * (1 + bump), t=base.t * (1 + bump), C=base.C
    )
    res = degree(perturbed, restarts=8)
    assert res.method == "Optimizer"
    assert res.S == pytest.approx(0.43743851341688866, abs=5e-3)
