"""Acceptance suite: one test per numbered criterion, in order.

Every test seeds its own generators, so reruns are bit-reproducible; the
timed criteria assert their wall-clock budget on top of the numerical
tolerance.  Optimizer results bracket the degree of separability between
a feasible split (below) and a dual bound (above), so agreement checks read
"within the stated window of the closed form, and the closed form never
above the dual bound".
"""

import dataclasses
import math
import time

import numpy as np
from click.testing import CliRunner

from conftest import random_rotation, scaled_invalid_state
from qpair import (
    Bell,
    Chaotic,
    GenericPure,
    Rank2Params,
    RankTwo,
    Werner,
    WernerFirst,
    WernerSecond,
    apply_local,
    construct_family,
    degree,
    degree_rank2,
    degree_werner,
    degree_werner_first,
    degree_werner_second,
    diagonalize_cross,
    global_invariants,
    is_separable,
    is_state,
    local_invariants,
    ls_optimize,
    mix,
    parse_state,
    random_state,
    real_quartic_roots,
    reflect,
    serialize_state,
    sigma_basis,
    to_density_matrix,
)
from qpair.cli import main
from qpair.degree import _rank2_theta, _werner_second_gap

_FLIPPED = ("a3_1", "a4_2")


def _rel_close(got, want, tol):
    return abs(got - want) <= tol * max(1.0, abs(want))


def test_criterion_01_local_invariance_and_reflection_parity():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for seed in range(1000):
        state = random_state(seed)
        base = dataclasses.asdict(local_invariants(state))
        rotated = apply_local(state, random_rotation(rng), random_rotation(rng))
        moved = dataclasses.asdict(local_invariants(rotated))
        for name, value in base.items():
            assert _rel_close(moved[name], value, 1e-10), name
        flipped = dataclasses.asdict(local_invariants(reflect(state, "partial")))
        for name, value in base.items():
            want = -value if name in _FLIPPED else value
            assert _rel_close(flipped[name], want, 1e-10), name
    assert time.perf_counter() - started < 10.0


def test_criterion_02_quartic_spectrum_matches_eigensolve():
    started = time.perf_counter()
    states = [random_state(seed) for seed in range(896)]
    states += [random_state(10_000 + seed, target_rank=1) for seed in range(100)]
    states += [
        construct_family(spec)
        for spec in (Chaotic(), Bell(), Werner(1.0 / 3.0), GenericPure(1.0))
    ]
    assert len(states) == 1000
    worst = 0.0
    for state in states:
        glo = global_invariants(local_invariants(state))
        kappa = real_quartic_roots(0.0, -glo.A2, glo.A1, -glo.A0)
        lam = np.sort((1.0 - kappa) / 4.0)
        direct = np.sort(np.linalg.eigvalsh(to_density_matrix(state)))
        worst = max(worst, float(np.max(np.abs(lam - direct))))
    assert worst <= 1e-9
    assert time.perf_counter() - started < 10.0


def test_criterion_03_positivity_routes_agree():
    rng = np.random.default_rng(303)
    for seed in range(1000):
        state = random_state(seed)
        for candidate in (state, scaled_invalid_state(state, rng)):
            invariant_route = is_state(candidate, tol=1e-9).decision
            eigen_route = bool(
                np.linalg.eigvalsh(to_density_matrix(candidate)).min() >= -1e-9
            )
            assert invariant_route == eigen_route
        assert is_state(state, tol=1e-9).decision


def test_criterion_04_separability_routes_agree_and_werner_boundary():
    for seed in range(2000):
        state = random_state(seed)
        invariant_route = is_separable(state, tol=1e-9).decision
        rho = to_density_matrix(state)
        partial = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        eigen_route = bool(np.linalg.eigvalsh(partial).min() >= -1e-9)
        assert invariant_route == eigen_route
    assert is_separable(construct_family(Werner(1.0 / 3.0)), tol=1e-9).decision
    edge = construct_family(Werner(1.0 / 3.0 + 1e-6))
    assert not is_separable(edge, tol=1e-9).decision


def test_criterion_05_werner_closed_form_vs_optimizer():
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    for x in (0.4, 0.5, 2.0 / 3.0, 0.9, 1.0):
        state = construct_family(Werner(x))
        started = time.perf_counter()
        found = ls_optimize(state)
        assert time.perf_counter() - started < 60.0
        assert abs(found.lambda_ - degree_werner(x)) <= 1e-8
        assert degree_werner(x) <= found.upper_bound + 1e-9
        assert abs(np.vdot(found.pure, singlet)) ** 2 >= 0.999


def test_criterion_06_first_kind_closed_form_vs_optimizer():
    rng = np.random.default_rng(606)
    triples = []
    while len(triples) < 10:
        c = np.sort(rng.uniform(0.0, 1.0, size=3))[::-1]
        # strictly valid (minus sign) and strictly in the entangled branch
        if c[0] + c[1] - c[2] <= 0.95 and c.sum() >= 1.1:
            triples.append(c)
    for c in triples:
        state = construct_family(WernerFirst(-1.0, *c))
        closed = degree_werner_first(state)
        assert closed < 1.0
        found = ls_optimize(state)
        assert abs(found.lambda_ - closed) <= 1e-8
        assert closed <= found.upper_bound + 1e-9


def test_criterion_07_second_kind_threshold_window_and_optimizer():
    for p in (0.3, 0.6, 0.8):
        q = math.sqrt(1.0 - p * p)
        assert degree_werner_second(1.0 / (1.0 + 2.0 * q), p).S == 1.0

    for p in (0.3, 0.6):
        record = degree_werner_second(1.0, p)
        assert abs(record.S) <= 1e-6
        assert abs(record.q0 - math.sqrt(1.0 - p * p)) <= 1e-6

    for p in (0.3, 0.6, 0.8):
        q = math.sqrt(1.0 - p * p)
        threshold = 1.0 / (1.0 + 2.0 * q)

        def edge_gap(x):
            u = 0.5 * ((1.0 + 2.0 * q) * x - 1.0)
            return _werner_second_gap(1.0, x, p, q, u)

        lo, hi = threshold + 1e-9, 1.0
        assert edge_gap(lo) <= 0.0 and edge_gap(hi) > 0.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if edge_gap(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        inside = np.linspace(threshold + 0.05 * (lo - threshold), lo - 1e-6, 3)
        for x in inside:
            record = degree_werner_second(float(x), p)
            assert record.q0 is not None
            assert abs(record.q0 - 1.0) <= 1e-8

    for x, p in ((0.5, 0.6), (0.8, 0.6), (0.9, 0.3)):
        state = construct_family(WernerSecond(x, p))
        closed = degree_werner_second(x, p).S
        found = ls_optimize(state)
        assert abs(found.lambda_ - closed) <= 1e-8
        assert closed <= found.upper_bound + 1e-9


def _rank2_branch_values(params):
    """Both candidate formulas, regardless of which the predicate picks."""
    theta = _rank2_theta(params)
    st, ct = math.sin(theta), math.cos(theta)
    s2t, c2t = math.sin(2.0 * theta), math.cos(2.0 * theta)
    ax1 = abs(params.x1)
    pair = (0.5 * (1.0 - params.x_sq)) / (1.0 - params.x3 * c2t - ax1 * s2t)
    root = math.hypot(params.x3 - c2t, params.x2 * s2t)
    single = (1.0 - params.x3 * c2t - root) / (s2t * s2t) if s2t > 1e-6 else None
    return single, pair


def test_criterion_08_rank2_closed_form_vs_optimizer_and_continuity():
    rng = np.random.default_rng(808)
    discriminated = 0
    for _ in range(20):
        gamma1 = rng.uniform(0.5, 1.45)
        gamma2 = rng.uniform(0.15, gamma1)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        params = Rank2Params(gamma1, gamma2, *(direction * rng.uniform(0.2, 0.9)))
        record = degree_rank2(params)
        state = construct_family(RankTwo(params))
        found = ls_optimize(state)
        assert abs(found.lambda_ - record.S) <= 1e-7
        if record.pair_kind is None:
            continue
        single, pair = _rank2_branch_values(params)
        other = pair if record.pair_kind == "a" else single
        if other is not None and abs(other - record.S) > 1.5e-2:
            # the predicate names the formula the exact split lands on
            assert abs(found.lambda_ - record.S) < abs(found.lambda_ - other)
            discriminated += 1
    assert discriminated >= 3

    def crossing(lo, hi, step=1e-4):
        def kind_at(x3):
            return degree_rank2(Rank2Params(1.1, 0.4, 0.3, 0.4, x3)).pair_kind

        first = kind_at(lo)
        assert first != kind_at(hi)
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if kind_at(mid) == first:
                lo = mid
            else:
                hi = mid
        left = degree_rank2(Rank2Params(1.1, 0.4, 0.3, 0.4, lo - step)).S
        right = degree_rank2(Rank2Params(1.1, 0.4, 0.3, 0.4, hi + step)).S
        assert abs(left - right) <= 1e-3

    crossing(-0.50, -0.49)
    crossing(0.63, 0.64)


def test_criterion_09_sigma_algebra_identities():
    rng = np.random.default_rng(909)
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    for _ in range(100):
        gamma1 = rng.uniform(0.0, math.pi / 2.0)
        gamma2 = rng.uniform(0.0, gamma1)
        sigma = sigma_basis(gamma1, gamma2)
        assert np.max(np.abs(sigma[0] @ sigma[0] - sigma[0])) <= 1e-12
        assert abs(np.trace(sigma[0]) - 2.0) <= 1e-12
        for j in range(1, 4):
            assert np.max(np.abs(sigma[0] @ sigma[j] - sigma[j])) <= 1e-12
            assert np.max(np.abs(sigma[j] @ sigma[0] - sigma[j])) <= 1e-12
            for k in range(1, 4):
                want = (sigma[0] if j == k else 0.0) + 1j * np.einsum(
                    "l,lab->ab", eps[j - 1, k - 1], sigma[1:]
                )
                assert np.max(np.abs(sigma[j] @ sigma[k] - want)) <= 1e-12


def test_criterion_10_generic_pure_sweep():
    rng = np.random.default_rng(1010)
    for p in np.linspace(0.0, 1.0, 11):
        p = float(p)
        state = construct_family(GenericPure(p))
        glo = global_invariants(local_invariants(state))
        assert abs(glo.A2 - glo.A1 + glo.A0 - 1.0) <= 1e-10
        assert abs(2.0 * glo.A2 - glo.A1 - 4.0) <= 1e-10
        assert abs(glo.A2 - 6.0) <= 1e-10
        assert is_separable(state, tol=1e-9).decision == (p == 1.0)
        scrambled = apply_local(state, random_rotation(rng), random_rotation(rng))
        q = math.sqrt(max(0.0, 1.0 - p * p))
        form = diagonalize_cross(scrambled)
        assert np.max(np.abs(form.c - np.array([1.0, q, q]))) <= 1e-9


def test_criterion_11_reflection_mixture_monotonicity():
    for seed in range(10):
        state = random_state(2200 + seed)
        assert np.linalg.norm(state.s) > 1e-3 and np.linalg.norm(state.t) > 1e-3
        mirrored = reflect(state, "global")
        symmetrized = mix([state, mirrored], [0.5, 0.5])
        assert np.max(np.abs(symmetrized.s)) == 0.0
        assert np.max(np.abs(symmetrized.t)) == 0.0
        record = degree(symmetrized)
        # both are closed-form routes; the shortcut fires when the
        # symmetrized state happens to be separable (S = 1)
        assert record.method in ("SeparableShortcut", "ClosedFormWernerFirst")
        weights = {}
        for y in (0.25, 0.5, 0.75, 1.0):
            if y == 1.0:
                mixture = state
            else:
                mixture = mix([state, mirrored], [(1.0 + y) / 2.0, (1.0 - y) / 2.0])
            weights[y] = ls_optimize(mixture).lambda_
        for value in weights.values():
            assert record.S >= value - 1e-6
            assert value >= weights[1.0] - 1e-6


def test_criterion_12_round_trip_and_report_stability():
    for seed in range(100):
        state = random_state(seed)
        back = parse_state(serialize_state(state))
        assert np.array_equal(back.s, state.s)
        assert np.array_equal(back.t, state.t)
        assert np.array_equal(back.C, state.C)
    runner = CliRunner()
    statefile = serialize_state(random_state(7))
    for args in (
        ["classify", "-"],
        ["degree", "-", "--restarts", "2", "--seed", "5"],
        ["decompose", "-", "--restarts", "2", "--seed", "5"],
    ):
        first = runner.invoke(main, args, input=statefile)
        second = runner.invoke(main, args, input=statefile)
        assert first.exit_code == 0
        assert first.output == second.output
