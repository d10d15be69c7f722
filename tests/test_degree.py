"""Degree of separability: closed forms, the weight solver, the optimizer.

Frozen values in here were computed from the closed forms themselves at
well-separated parameters and double-checked by hand where a formula
collapses to simple numbers (Werner 0.5 -> 0.75, the x = 0 rank-2 state
at theta = pi/6 -> 2/3).  The acceptance suite does the systematic
comparison of the optimizer against the closed forms.
"""

import importlib
import json
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
    WernerFirst,
    WernerSecond,
    construct_family,
    degree,
    degree_rank2,
    degree_werner,
    degree_werner_first,
    degree_werner_second,
    from_density_matrix,
    is_separable,
    ls_optimize,
    mix,
    product_state,
    pure_projector,
    random_state,
    rank2_separable_pures,
    serialize_state,
    sigma_basis,
    to_density_matrix,
)

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
    # 3/2 - Spur|C|/2 = -6e-6 there, clamped to S = 0
    assert degree_werner_first(shifted, tol=1e-3) == 0.0
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


@pytest.mark.parametrize(
    "closed_form, record, args",
    [
        (degree_werner, Werner, (1.2,)),
        (degree_werner, Werner, (-0.34,)),
        (degree_werner, Werner, (math.nan,)),
        (degree_werner_second, WernerSecond, (1.1, 0.5)),
        (degree_werner_second, WernerSecond, (0.5, 0.0)),
        (degree_werner_second, WernerSecond, (0.5, math.nan)),
        (sigma_basis, lambda g1, g2: Rank2Params(g1, g2, 0.0, 0.0, 0.0), (0.2, 0.5)),
        (sigma_basis, lambda g1, g2: Rank2Params(g1, g2, 0.0, 0.0, 0.0), (2.0, 0.1)),
    ],
    ids=["werner-above", "werner-below", "werner-nan", "second-x", "second-p-zero",
         "second-p-nan", "sigma-order", "sigma-range"],
)
def test_closed_forms_raise_their_records_message(closed_form, record, args):
    # each family's domain is checked once, by its record
    with pytest.raises(ValueError) as from_record:
        record(*args)
    with pytest.raises(ValueError) as from_closed_form:
        closed_form(*args)
    assert str(from_closed_form.value) == str(from_record.value)


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
    # angles outside pi/2 >= gamma1 >= gamma2 >= 0 raise, also where
    # sin(gamma1) cos(gamma2) vanishes
    for angles in ((0.0, 0.5), (math.pi, 0.3), (0.2, 0.5)):
        with pytest.raises(ValueError, match="angles must satisfy"):
            rank2_separable_pures(*angles)


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
    dec = ls_optimize(state)
    assert dec.lambda_ == pytest.approx(0.6, abs=1e-8)
    assert 0.6 <= dec.upper_bound + 1e-9
    _check_decomposition(state, dec)
    assert is_separable(dec.sep, tol=1e-7).decision
    # History tracks the best lower bound, one entry per interior-point iteration.
    assert [stage for stage, _ in dec.objective_history] == list(
        range(len(dec.objective_history))
    )
    bests = [lam for _, lam in dec.objective_history]
    assert bests == sorted(bests)


def test_ls_optimize_separable_shortcut():
    state = construct_family(Werner(0.2))
    dec = ls_optimize(state)
    assert dec.lambda_ == 1.0
    assert dec.pure is None
    assert np.array_equal(dec.sep.as_vector(), state.as_vector())


def test_ls_optimize_pure_entangled():
    state = construct_family(GenericPure(0.3))
    dec = ls_optimize(state)
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
    # Entangled rank-2 states are solved in closed form over the product
    # states of the support, with no search of any kind; gamma1 = gamma2
    # has one product state (a double root), the other corners sit on the
    # chart's edges.
    from qpair import apply_local
    from conftest import random_rotation

    def no_search(*args, **kwargs):
        raise AssertionError("rank-2 ls_optimize must not search")

    # the package attribute qpair.degree is the function, so go by module
    monkeypatch.setattr(importlib.import_module("qpair.degree"), "minimize", no_search)
    monkeypatch.setattr(importlib.import_module("qpair._kernels"), "_golden_max", no_search)
    rng = np.random.default_rng(28)
    state = apply_local(
        construct_family(RankTwo(params)), random_rotation(rng), random_rotation(rng)
    )
    closed = degree_rank2(params)
    assert closed.pair_kind is not None
    dec = ls_optimize(state)
    assert dec.lambda_ == pytest.approx(closed.S, abs=1e-12)
    assert dec.objective_history == ((0, dec.lambda_),)
    _check_decomposition(state, dec, atol=1e-12)


def test_ls_optimize_rank2_at_equal_angles_is_exact():
    # gamma1 = gamma2 leaves one product state in the support, a double root
    # of the product-state quadratic that np.roots would split by about
    # sqrt(eps) (S up to 5e-8 too high); taken as one root, S is exact
    from qpair import apply_local
    from conftest import random_rotation

    rng = np.random.default_rng(11)
    checked = 0
    for gamma in (0.3, 0.8, 1.2):
        for _ in range(20):
            x = rng.normal(size=3)
            params = Rank2Params(gamma, gamma, *(x * rng.uniform(0.2, 0.95) / np.linalg.norm(x)))
            state = apply_local(
                construct_family(RankTwo(params)), random_rotation(rng), random_rotation(rng)
            )
            closed = degree_rank2(params)
            if closed.S < 1.0:
                assert ls_optimize(state).lambda_ == pytest.approx(closed.S, abs=1e-12)
                checked += 1
    assert checked >= 40

def _bell_with_tiny_admixture(rank, seed):
    # a locally rotated Bell state plus rank - 1 orthogonal directions of
    # weight 1.02e-9 to 1.2e-9, just above the default tol, so S is a few
    # 1e-9 and the separable part is 1e9 times smaller than rho
    rng = np.random.default_rng(seed)
    ua, ub = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in "ab")
    frame = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    frame[:, 0] = np.kron(ua, ub) @ np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    frame = np.linalg.qr(frame)[0]
    weights = rng.uniform(1.02e-9, 1.2e-9, rank - 1)
    rho = (1.0 - weights.sum()) * pure_projector(frame[:, 0])
    for w, v in zip(weights, frame[:, 1:].T):
        rho = rho + w * pure_projector(v)
    return from_density_matrix(rho)


def _phi_plus_with_01():
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    rho = (1.0 - 2e-9) * pure_projector(phi) + 2e-9 * pure_projector(np.array([0.0, 1.0, 0.0, 0.0]))
    return from_density_matrix(rho)


@pytest.mark.parametrize(
    "state, rank",
    [
        (_phi_plus_with_01(), 2),
        (_bell_with_tiny_admixture(3, 6), 3),
        (_bell_with_tiny_admixture(3, 3), 3),
        (_bell_with_tiny_admixture(4, 16), 4),
    ],
    ids=["rank2_phi_plus", "rank3_seed6", "rank3_seed3", "rank4_seed16"],
)
def test_ls_optimize_splits_states_with_tiny_S(state, rank):
    # A weight of about 1e-9 scales up any rounding of the separable part a
    # billionfold: its trace must still read back as 1, and the solve must
    # still accept eigenvalues that are negative only by rounding
    rho = to_density_matrix(state)
    assert np.sum(np.linalg.eigvalsh(rho) > 1e-9) == rank
    dec = ls_optimize(state)
    assert 0.0 < dec.lambda_ < 1e-8
    assert dec.lambda_ <= dec.upper_bound
    recomposed = dec.lambda_ * to_density_matrix(dec.sep) + (1.0 - dec.lambda_) * pure_projector(
        dec.pure
    )
    assert np.max(np.abs(recomposed - rho)) <= 1e-12
    if rank == 2:
        closed = degree(state)
        assert closed.method == "ClosedFormRank2"
        assert dec.lambda_ == pytest.approx(closed.S, abs=1e-12)


def _product_kernel_rank3():
    # kernel vector |00>, a product vector: the partial transpose of the
    # support projector is singular, so the solve works on the reduced face
    bell = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    rho = 0.5 * np.outer(bell, bell) + np.diag([0.0, 0.3, 0.0, 0.2])
    return from_density_matrix(rho)


@pytest.mark.parametrize(
    "state",
    [_product_kernel_rank3(), random_state(1, target_rank=3)],
    ids=["product_kernel", "random_seed1"],
)
def test_ls_optimize_rank3_is_certified_without_search(state, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("ls_optimize must not call minimize")

    monkeypatch.setattr(importlib.import_module("qpair.degree"), "minimize", no_search)
    assert np.sum(np.linalg.eigvalsh(to_density_matrix(state)) > 1e-9) == 3
    assert not is_separable(state).decision
    dec = ls_optimize(state)
    assert 0.0 <= dec.upper_bound - dec.lambda_ <= 1e-6
    assert dec.newton_steps > 0
    _check_decomposition(state, dec)
    assert np.max(
        np.abs(
            dec.lambda_ * to_density_matrix(dec.sep)
            + (1.0 - dec.lambda_) * pure_projector(dec.pure)
            - to_density_matrix(state)
        )
    ) <= 1e-12


def _near_product_kernel_state(seed, eps=1e-9):
    """A random rank-3 state whose kernel vector (1, 0, 0, eps) is nearly a product."""
    rng = np.random.default_rng(seed)
    kernel = np.array([1.0, 0.0, 0.0, eps], dtype=np.complex128)
    kernel /= np.linalg.norm(kernel)
    g = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    g -= np.outer(kernel, kernel.conj() @ g)
    support = np.linalg.qr(g)[0]
    weights = rng.dirichlet(np.ones(3))
    return from_density_matrix((support * weights) @ support.conj().T)


@pytest.mark.parametrize("seed", [2, 7, 8])
def test_degree_near_product_kernel_answers(seed):
    # a kernel vector within 1e-9 of a product leaves the PPT block a thin
    # direction below double precision; the interior-point solve still
    # answers with a valid split, though its bracket may exceed 1e-8
    state = _near_product_kernel_state(seed)
    res = degree(state)
    assert res.method == "Optimizer"
    assert 0.0 <= res.S <= 1.0
    assert res.family_data["gap"] >= 0.0
    _check_decomposition(state, res.decomposition)


# iterations allowed per near-product solve, 25 unless listed: as eps falls
# the dual optimum (W's PPT block) grows like 1/eps and the solve slows, and
# at 1e-7 it may use all but the last of its 60 iterations, so the answer
# still comes from a closed bracket and not from the iteration cap
_NEAR_PRODUCT_ITERATIONS = {1e-7: 59, 3e-7: 55, 1e-6: 45, 3e-6: 45}


@pytest.mark.parametrize(
    "eps", [0.0, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
)
def test_degree_answers_near_product_kernels_with_a_tight_bracket(eps):
    # the interior-point solve starts infeasible, so a kernel vector close to
    # a product (a thin PPT direction) needs no strictly feasible start point
    for seed in range(40):
        state = _near_product_kernel_state(seed, eps)
        res = degree(state)
        assert res.method == "Optimizer"
        assert 0.0 <= res.family_data["gap"] <= 1e-8
        assert res.family_data["newton_steps"] <= _NEAR_PRODUCT_ITERATIONS.get(eps, 25)
        _check_decomposition(state, res.decomposition)


# (rank, seed, S, interior-point iterations) on the degree_optimizer benchmark's
# pool; that benchmark's reference holds an older search's S, up to 2.4e-4 below
# these, so a smaller loss of accuracy shows only here
_OPTIMIZER_POOL = [
    (4, 1039769955, 0.9480147373827708, 10),
    (4, 2045790177, 0.9861584364903914, 9),
    (4, 1751639077, 0.807202578735293, 13),
    (4, 1836367018, 0.7980004413021582, 13),
    (4, 2004146128, 0.8320789250809539, 13),
    (4, 1511251223, 0.8102362664780537, 12),
    (4, 12819896, 0.5701212086774539, 10),
    (4, 389011494, 0.8680192552025559, 11),
    (3, 209085231, 0.4978655836769432, 12),
    (3, 1900247439, 0.842581206898017, 10),
    (3, 1472889233, 0.45789222181496947, 13),
    (3, 860502829, 0.6169374088971992, 11),
]


@pytest.mark.parametrize(
    "rank, seed, S, steps", _OPTIMIZER_POOL, ids=[f"rank{r}_{s}" for r, s, _, _ in _OPTIMIZER_POOL]
)
def test_degree_keeps_the_optimizer_pool_answers(rank, seed, S, steps):
    # a faster solve may not buy its speed with accuracy or iterations: S stays
    # within 1e-9 below and 1e-8 above its pinned value, the bracket stays closed
    state = random_state(seed, target_rank=rank)
    res = degree(state)
    assert res.method == "Optimizer"
    assert S - 1e-9 <= res.S <= S + 1e-8
    assert 0.0 <= res.family_data["gap"] <= min(1e-8, res.S / 10.0)
    assert res.family_data["newton_steps"] <= steps
    _check_decomposition(state, res.decomposition)


@pytest.mark.parametrize(
    "rank, seed, S, steps", _OPTIMIZER_POOL, ids=[f"rank{r}_{s}" for r, s, _, _ in _OPTIMIZER_POOL]
)
def test_degree_and_ls_optimize_share_the_optimizer_split(rank, seed, S, steps):
    # both run _entangled_split on the eigh of the same rho, so S and its bound agree bit for bit
    state = random_state(seed, target_rank=rank)
    res, dec = degree(state), ls_optimize(state)
    assert dec.lambda_ == res.S
    assert dec.upper_bound == res.family_data["upper_bound"]


def test_interior_point_convergence_error_carries_its_residual(monkeypatch):
    # a margin test that no split can pass: the error says how near the nearest came
    monkeypatch.setattr(importlib.import_module("qpair.degree"), "_FEAS_TOL", -1.0)
    with pytest.raises(ConvergenceError, match="missed its margin test") as info:
        ls_optimize(random_state(3))
    assert -1.0 < info.value.residual < 0.0
    assert f"{-info.value.residual:.3e}" in str(info.value)


@pytest.mark.parametrize("rank", [3, 4])
def test_ls_optimize_brackets_tiny_S_relative_to_S(rank):
    # an absolute 1e-8 bracket would say nothing about an S of a few 1e-9;
    # the separable part, projected onto rho's support, keeps its margins
    # at rounding level although it is normalized by 1 / S
    for seed in range(20):
        state = _bell_with_tiny_admixture(rank, seed)
        dec = ls_optimize(state)
        assert 0.0 < dec.lambda_ < 1e-8
        assert 0.0 <= dec.upper_bound - dec.lambda_ <= dec.lambda_ / 10.0
        _check_decomposition(state, dec)


def test_ls_optimize_solves_random_states_in_few_iterations():
    # the primal-dual solve takes 9-13 iterations here, one Newton system each
    for seed in range(6):
        for rank in (3, 4):
            dec = ls_optimize(random_state(seed, target_rank=rank))
            assert dec.newton_steps <= 20
            assert 0.0 <= dec.upper_bound - dec.lambda_ <= 1e-8
            assert [it for it, _ in dec.objective_history] == list(range(dec.newton_steps))


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
    res = degree(state)
    assert res.method == "Optimizer"
    assert 0.0 < res.S < 1.0
    _check_decomposition(state, res.decomposition)
    data = res.family_data
    assert data["upper_bound"] == res.decomposition.upper_bound
    assert 0.0 <= data["gap"] == data["upper_bound"] - res.S <= 1e-6
    assert data["newton_steps"] > 0


def test_degree_optimizer_agrees_with_werner_second_closed_form():
    # Break the exact degeneracy so the dispatcher cannot shortcut, then
    # compare against the nearby closed form.
    base = construct_family(WernerSecond(x=0.8, p=0.6))
    bump = 1e-4
    perturbed = TwoQubitState(
        s=base.s * (1 + bump), t=base.t * (1 + bump), C=base.C
    )
    res = degree(perturbed)
    assert res.method == "Optimizer"
    assert res.S == pytest.approx(0.43743851341688866, abs=5e-3)


@pytest.mark.parametrize(
    "state, passes",
    [
        # the rank-2 case keeps the id it had when the rank-2 frame ran its
        # own positivity pass, so the case name stays stable
        pytest.param(
            construct_family(RankTwo(Rank2Params(1.1, 0.7, 0.3, 0.25, 0.4))),
            1,
            id="state0-2",
        ),
        (random_state(3), 1),
        (construct_family(Werner(0.5)), 1),
        (construct_family(WernerSecond(x=0.8, p=0.6)), 1),
    ],
)
def test_degree_counts_the_rank_from_the_route_eigensolve(state, passes, monkeypatch):
    # the dispatcher reads the rank off the eigh it already ran for the
    # chaos-plus-pure test and hands that eigh on, to the rank-2 frame too,
    # so only the separability decision checks validity
    import qpair.classify
    from conftest import count_calls

    calls = count_calls(monkeypatch, qpair.classify, "_positivity_pass")
    degree(state)
    assert len(calls) == passes


@pytest.mark.parametrize(
    "state",
    [
        construct_family(Werner(0.2)),
        construct_family(GenericPure(0.3)),
        construct_family(RankTwo(Rank2Params(1.1, 0.7, 0.3, 0.25, 0.4))),
        random_state(1, target_rank=3),
        random_state(3),
    ],
    ids=["separable", "pure", "rank2", "rank3", "rank4"],
)
def test_ls_optimize_decides_validity_once(state, monkeypatch):
    import qpair.classify
    from conftest import count_calls

    calls = count_calls(monkeypatch, qpair.classify, "_positivity_pass")
    ls_optimize(state)
    assert len(calls) == 1


def test_ls_optimize_with_a_single_product_state_in_the_support(monkeypatch):
    # 0.7 |01><01| + 0.3 |Phi+><Phi+|: the top eigenvector |01> is the only
    # product state of the support, so both the leading and the middle
    # coefficient of the product-state quadratic vanish, and S = 0.7
    from qpair import apply_local
    from conftest import random_rotation

    module = importlib.import_module("qpair.degree")
    original = module._support_product_states
    found = []
    monkeypatch.setattr(
        module, "_support_product_states", lambda u: found.append(original(u)) or found[-1]
    )
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    rho = 0.7 * pure_projector(np.array([0.0, 1.0, 0.0, 0.0])) + 0.3 * pure_projector(phi)
    rng = np.random.default_rng(5)
    state = apply_local(from_density_matrix(rho), random_rotation(rng), random_rotation(rng))
    dec = ls_optimize(state)
    assert [len(vectors) for vectors in found] == [1]
    assert dec.lambda_ == pytest.approx(0.7, abs=1e-12)
    _check_decomposition(state, dec, atol=1e-12)


def _equal_angle_states(rng):
    # rank-2 states with gamma1 = gamma2, x1 within 1e-8 of 0 and x2 = 0: the
    # recovered angles differ by rounding, so theta is about 1e-8 instead of
    # 0, and pair kind "a" divides two quantities of order theta^2
    from qpair import apply_local
    from conftest import random_rotation

    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    product = pure_projector(np.array([0.0, 1.0, 0.0, 0.0]))
    bases = [from_density_matrix(0.55 * product + 0.45 * pure_projector(phi))]
    for gamma in (0.4, math.pi / 4, 1.2):
        for _ in range(20):
            x1 = float(rng.uniform(-1e-8, 1e-8))
            bases.append(construct_family(RankTwo(Rank2Params(gamma, gamma, x1, 0.0, 0.3))))
    return [apply_local(b, random_rotation(rng), random_rotation(rng)) for b in bases]


def test_degree_rank2_at_equal_angles_is_right_or_raises():
    # the closed form is cross-checked against the exact split of the same
    # spectrum, so a cancelled pair kind "a" raises instead of reporting a
    # wrong S (off by up to 0.35 without the check)
    answered = 0
    for state in _equal_angle_states(np.random.default_rng(7)):
        try:
            res = degree(state)
        except NumericalInconsistencyError:
            continue
        answered += 1
        assert res.method == "ClosedFormRank2"
        assert res.S == pytest.approx(ls_optimize(state).lambda_, abs=1e-9)
    assert answered > 0


# classify's family name -> the degree() route of an entangled member
_ROUTE_OF_FAMILY = {
    "werner": "ClosedFormWernerFirst",
    "bell": "ClosedFormWernerFirst",
    "werner_first": "ClosedFormWernerFirst",
    "werner_second": "ClosedFormWernerSecond",
    "generic_pure": "ClosedFormWernerSecond",
    "rank_two": "ClosedFormRank2",
    None: "Optimizer",
}


def _classified_family(state):
    from click.testing import CliRunner
    from qpair.cli import main

    result = CliRunner().invoke(main, ["classify", "-"], input=serialize_state(state))
    assert result.exit_code == 0
    family = json.loads(result.output)["report"]["family"]
    return None if family is None else family["name"]


@pytest.mark.parametrize(
    "family, state",
    [
        ("werner", construct_family(Werner(0.8))),
        ("bell", construct_family(Bell())),
        ("werner_first", construct_family(WernerFirst(-1, 0.9, 0.6, 0.5))),
        ("werner_second", construct_family(WernerSecond(x=0.9, p=0.4))),
        ("generic_pure", construct_family(GenericPure(0.6))),
        ("rank_two", construct_family(RankTwo(Rank2Params(1.1, 0.7, 0.3, 0.25, 0.4)))),
        (None, random_state(3)),
        (None, random_state(1, target_rank=3)),
    ],
)
def test_family_route_and_degree_invariant_under_local_rotations(family, state):
    from qpair import apply_local
    from conftest import random_rotation

    assert _classified_family(state) == family
    base = degree(state)
    assert base.method == _ROUTE_OF_FAMILY[family]
    rng = np.random.default_rng(20261018)
    for _ in range(3):
        rotated = apply_local(state, random_rotation(rng), random_rotation(rng))
        assert _classified_family(rotated) == family
        res = degree(rotated)
        assert res.method == base.method
        assert res.S == pytest.approx(base.S, abs=1e-9)


def test_separable_member_keeps_its_family_but_takes_the_shortcut():
    state = construct_family(Werner(0.2))
    assert _classified_family(state) == "werner"
    assert degree(state).method == "SeparableShortcut"
