"""Canonical forms: signed diagonalization and generic-form recovery.

rank2_canonical is search-based, so its tests are reconstruction based:
build a state from known parameters in a scrambled frame, recover, and
compare against the label-invariant data (angles and |x| components up to
the quotiented symmetries, plus the frame reproducing the family state).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from qpair import (
    ConvergenceError,
    GenericPure,
    NumericalInconsistencyError,
    PreconditionError,
    Rank2Params,
    RankTwo,
    TwoQubitState,
    construct_family,
    pure_canonical,
    random_state,
    rank2_canonical,
    to_density_matrix,
)
from qpair._tolerances import CROSS_CHECK_TOL
from qpair.canonical import (
    CanonicalForm,
    _matrix_rotvec,
    _rank2_frame,
    _rotvec_matrix,
    apply_local,
    diagonalize_cross,
)
from qpair.families import rank2_family_vector

from conftest import random_rotation, scipy_reference


def _family_state(*params):
    # the rank-2 generic form from its closed-form vector, angles in any order
    v = np.array(rank2_family_vector(*params))
    return TwoQubitState(s=v[:3], t=v[3:6], C=v[6:].reshape(3, 3))


def _reassemble(form: CanonicalForm):
    return form.sign * form.o_ee @ np.diag(form.c) @ form.o_nn


def test_diagonalize_cross_reassembles(rng):
    for seed in range(10):
        state = random_state(seed)
        form = diagonalize_cross(state)
        assert np.allclose(_reassemble(form), state.C, atol=1e-12)
        assert form.c[0] >= form.c[1] >= form.c[2] >= 0
        assert np.allclose(form.o_ee.T @ form.o_ee, np.eye(3), atol=1e-12)
        assert np.allclose(form.o_nn.T @ form.o_nn, np.eye(3), atol=1e-12)
        assert np.linalg.det(form.o_ee) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(form.o_nn) == pytest.approx(1.0, abs=1e-12)
        det_c = np.linalg.det(state.C)
        assert form.sign == (1 if det_c >= 0 else -1)


def test_diagonalize_cross_sign_cases():
    neg = diagonalize_cross(
        TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=np.diag([0.7, 0.4, -0.2]))
    )
    assert neg.sign == -1
    assert np.allclose(neg.c, [0.7, 0.4, 0.2], atol=1e-14)
    pos = diagonalize_cross(
        TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=np.diag([0.7, 0.4, 0.2]))
    )
    assert pos.sign == 1
    assert np.allclose(pos.c, [0.7, 0.4, 0.2], atol=1e-14)


def test_apply_local_composition_and_invariance(rng):
    from qpair import local_invariants

    state = random_state(21)
    o_ee, o_nn = random_rotation(rng), random_rotation(rng)
    rotated = apply_local(state, o_ee, o_nn)
    assert np.allclose(rotated.s, o_ee @ state.s)
    assert np.allclose(rotated.t, o_nn.T @ state.t)
    assert np.allclose(rotated.C, o_ee @ state.C @ o_nn)
    # Spectrum is untouched.
    a = np.linalg.eigvalsh(to_density_matrix(state))
    b = np.linalg.eigvalsh(to_density_matrix(rotated))
    assert np.allclose(a, b, atol=1e-12)
    # Applying the inverse frame undoes the transformation.
    back = apply_local(rotated, o_ee.T, o_nn.T)
    assert np.allclose(back.as_vector(), state.as_vector(), atol=1e-12)
    with pytest.raises(ValueError, match="orthogonal"):
        apply_local(state, np.eye(3) + 0.01, np.eye(3))


def test_pure_canonical_recovers_p(rng):
    for p in (0.0, 0.35, 0.8, 1.0):
        base = construct_family(GenericPure(p))
        scrambled = apply_local(base, random_rotation(rng), random_rotation(rng))
        assert pure_canonical(scrambled) == pytest.approx(p, abs=1e-9)


def test_pure_canonical_requires_purity():
    with pytest.raises(PreconditionError, match="pure"):
        pure_canonical(random_state(3))


def test_pure_canonical_detects_inconsistent_input(monkeypatch):
    # Sneak past the purity gate with a state whose |s| != |t|.
    import qpair.canonical as canon

    from qpair.classify import PurityRank

    monkeypatch.setattr(canon, "purity_rank", lambda s, tol=1e-9: PurityRank(1, True))
    bad = TwoQubitState(s=[0.5, 0, 0], t=[0.1, 0, 0], C=np.diag([1.0, 0.5, 0.5]))
    with pytest.raises(NumericalInconsistencyError, match=r"\|t\|"):
        pure_canonical(bad)


def test_pure_canonical_detects_characteristic_values_off_one_q_q(monkeypatch):
    # forge c = (1, q, q + 1e-6) for a pure state; the (1, q, q) check must raise
    import qpair.canonical as canon

    real = canon.diagonalize_cross
    monkeypatch.setattr(
        canon, "diagonalize_cross", lambda s: replace(real(s), c=real(s).c + [0.0, 0.0, 1e-6])
    )
    with pytest.raises(NumericalInconsistencyError, match="worst deviation 1.000e-06"):
        pure_canonical(construct_family(GenericPure(0.35)))


def _scrambled(par, rng):
    return apply_local(
        construct_family(RankTwo(par)), random_rotation(rng), random_rotation(rng)
    )


def _canonical_frame(state):
    # (params, o_ee, o_nn) from the eigh that degree() hands to the frame
    return _rank2_frame(state, np.linalg.eigh(to_density_matrix(state))[1])


def test_rank2_canonical_recovers_parameters(rng):
    par = Rank2Params(1.1, 0.4, 0.3, -0.25, 0.2)
    got, o_ee, o_nn = _canonical_frame(_scrambled(par, rng))
    assert got.gamma1 == pytest.approx(par.gamma1, abs=1e-7)
    assert got.gamma2 == pytest.approx(par.gamma2, abs=1e-7)
    # The (pi, pi) z-rotation symmetry allows a joint sign flip of
    # (x1, x2); the canonical output fixes x1 > 0.
    assert got.x1 == pytest.approx(abs(par.x1), abs=1e-7)
    assert abs(got.x2) == pytest.approx(abs(par.x2), abs=1e-7)
    assert got.x3 == pytest.approx(par.x3, abs=1e-7)


@pytest.mark.parametrize(
    "par",
    [
        Rank2Params(0.9, 0.55, 0.15, 0.3, -0.4),
        # the degenerate corners take the fallback branches of the
        # analytic first frame: gamma2 = 0 empties v, gamma1 = pi/2
        # empties u; there the labels come out as (x1, 0, hypot(x2, x3)),
        # which test_rank2_canonical_fixes_the_corner_labels checks
        Rank2Params(0.9, 0.0, 0.15, 0.3, -0.4),
        Rank2Params(math.pi / 2, 0.55, 0.15, 0.3, -0.4),
        Rank2Params(math.pi / 2, 0.0, 0.15, 0.3, -0.4),
        Rank2Params(0.9, 0.55, 0.0, 0.0, 0.0),
    ],
    ids=["generic", "gamma2_zero", "gamma1_right", "both_corners", "x_zero"],
)
def test_rank2_canonical_frame_reproduces_family_state(par, rng):
    state = _scrambled(par, rng)
    got, o_ee, o_nn = _canonical_frame(state)
    aligned = apply_local(state, o_ee, o_nn)
    family = construct_family(RankTwo(got))
    assert np.allclose(aligned.as_vector(), family.as_vector(), atol=1e-7)


@pytest.mark.parametrize(
    "par",
    [
        Rank2Params(0.9, 0.0, 0.15, 0.3, -0.4),
        Rank2Params(math.pi / 2, 0.6, 0.15, 0.3, -0.4),
        Rank2Params(math.pi / 2, 0.0, 0.15, 0.3, -0.4),
    ],
    ids=["gamma2_zero", "gamma1_right", "both_corners"],
)
def test_rank2_canonical_fixes_the_corner_labels(par, rng):
    # at gamma2 = 0 an x-rotation of qubit 2, and at gamma1 = pi/2 one of
    # qubit 1, turns (x2, x3) within the orbit; every scrambling must land on
    # x2 = +0.0, x3 = hypot(x2, x3), with the frame and S unchanged
    from qpair import degree

    for _ in range(6):
        state = _scrambled(par, rng)
        got, o_ee, o_nn = _canonical_frame(state)
        assert got.gamma1 == pytest.approx(par.gamma1, abs=1e-12)
        assert got.gamma2 == pytest.approx(par.gamma2, abs=1e-12)
        assert got.x1 == pytest.approx(par.x1, abs=1e-12)
        assert math.copysign(1.0, got.x2) == 1.0 and got.x2 == 0.0
        assert got.x3 == pytest.approx(math.hypot(par.x2, par.x3), abs=1e-12)
        assert rank2_canonical(state) == got
        aligned = apply_local(state, o_ee, o_nn)
        family = construct_family(RankTwo(got))
        assert np.allclose(aligned.as_vector(), family.as_vector(), atol=1e-12)
        assert degree(state).S == pytest.approx(0.5, abs=1e-12)


def test_rank2_canonical_output_is_label_invariant(rng):
    # Two different scramblings of the same family state give the same
    # canonical labels.
    par = Rank2Params(1.2, 0.3, 0.0, 0.2, 0.5)
    a = rank2_canonical(_scrambled(par, rng))
    b = rank2_canonical(_scrambled(par, rng))
    assert a.gamma1 == pytest.approx(b.gamma1, abs=1e-7)
    assert a.gamma2 == pytest.approx(b.gamma2, abs=1e-7)
    assert a.x1 == pytest.approx(b.x1, abs=1e-7)
    assert abs(a.x2) == pytest.approx(abs(b.x2), abs=1e-7)
    assert a.x3 == pytest.approx(b.x3, abs=1e-7)


def test_rank2_canonical_quotients_sign_flip(rng):
    # The (pi, pi) z-rotation pair flips (x1, x2) jointly, so the flipped
    # parameters describe the same local orbit; canonicalization must land
    # both on the x1 > 0 representative.
    par = Rank2Params(1.0, 0.5, 0.2, 0.1, -0.3)
    flipped = Rank2Params(1.0, 0.5, -0.2, -0.1, -0.3)
    a = rank2_canonical(_scrambled(par, rng))
    b = rank2_canonical(_scrambled(flipped, rng))
    assert a.gamma1 == pytest.approx(b.gamma1, abs=1e-7)
    assert a.gamma2 == pytest.approx(b.gamma2, abs=1e-7)
    assert a.x1 == pytest.approx(b.x1, abs=1e-7)
    assert a.x2 == pytest.approx(b.x2, abs=1e-7)
    assert a.x3 == pytest.approx(b.x3, abs=1e-7)
    assert a.x1 > 0


def test_rank2_canonical_orders_swapped_angles():
    # The generic form written with gamma1 < gamma2 describes the same
    # local orbit as (g2, g1, -x2, x1, x3), the image under the
    # (pi/2, -pi/2) z-rotation pair; the (pi, pi) pair then makes x1 > 0.
    # The analytic first frame already orders the angles (its in-plane SVD
    # sorts the support projector's M block), so no swap step is needed.
    g1, g2, x1, x2, x3 = 0.4, 1.1, 0.3, 0.25, 0.2
    state = _family_state(g1, g2, x1, x2, x3)
    got, o_ee, o_nn = _canonical_frame(state)
    assert got.gamma1 == pytest.approx(g2, abs=1e-7)
    assert got.gamma2 == pytest.approx(g1, abs=1e-7)
    assert got.x1 == pytest.approx(x2, abs=1e-7)
    assert got.x2 == pytest.approx(-x1, abs=1e-7)
    assert got.x3 == pytest.approx(x3, abs=1e-7)
    aligned = apply_local(state, o_ee, o_nn)
    assert np.allclose(aligned.as_vector(), construct_family(RankTwo(got)).as_vector(), atol=1e-7)


def test_rank2_canonical_raises_on_unordered_angles(monkeypatch):
    # a frame whose angles come out unordered must raise rather than let the
    # clamp to gamma2 <= gamma1 relabel the state
    import qpair.canonical as canon

    monkeypatch.setattr(canon, "_initial_frame", lambda pu, pv, pm: (np.eye(3), np.eye(3)))
    state = _family_state(0.4, 1.1, 0.3, 0.25, 0.2)
    with pytest.raises(NumericalInconsistencyError, match="gamma2 = 1.1 above gamma1 = 0.4"):
        rank2_canonical(state)


def test_rank2_frame_raises_when_no_frame_reaches_the_family_state(monkeypatch):
    # shift every entry of the family vector the frame is matched against by
    # 1e-3: no rotation pair reproduces it, so the residual must raise
    import qpair.canonical as canon

    real = canon.rank2_family_vector
    monkeypatch.setattr(canon, "rank2_family_vector", lambda *p: [v + 1e-3 for v in real(*p)])
    with pytest.raises(ConvergenceError) as err:
        rank2_canonical(construct_family(RankTwo(Rank2Params(1.1, 0.7, 0.3, 0.25, 0.4))))
    assert err.value.residual > CROSS_CHECK_TOL
    assert f"residual {err.value.residual:.3e} above" in str(err.value)


def test_rank2_frame_cross_checks_x_squared_against_the_invariants(monkeypatch):
    # forge A2 by 4e-3, so (A2 - 2)/4 moves 1e-3 away from the recovered x^2
    import qpair.canonical as canon

    par = Rank2Params(1.1, 0.7, 0.3, 0.25, 0.4)
    state = construct_family(RankTwo(par))
    real = canon._invariants
    glob = real(state)[1]
    monkeypatch.setattr(canon, "_invariants", lambda s: (real(s)[0], replace(glob, A2=glob.A2 + 4e-3)))
    with pytest.raises(NumericalInconsistencyError, match="recovered x\\^2") as err:
        rank2_canonical(state)
    assert str(err.value).endswith(f"(A2 - 2)/4 = {(glob.A2 + 4e-3 - 2.0) / 4.0:.12g}")


def test_rank2_canonical_equal_angles(rng):
    par = Rank2Params(0.8, 0.8, 0.25, 0.0, 0.3)
    got = rank2_canonical(_scrambled(par, rng))
    assert got.gamma1 == pytest.approx(0.8, abs=1e-6)
    assert got.gamma2 == pytest.approx(0.8, abs=1e-6)


def test_rank2_canonical_requires_rank_two():
    with pytest.raises(PreconditionError, match="rank-2"):
        rank2_canonical(random_state(0))
    with pytest.raises(PreconditionError, match="rank-2"):
        rank2_canonical(random_state(0, target_rank=1))


def test_random_rank2_states_round_trip(rng):
    # Arbitrary rank-2 states (not built from the family) must also land
    # on a reproducing frame.
    for seed in (101, 202):
        state = random_state(seed, target_rank=2)
        got, o_ee, o_nn = _canonical_frame(state)
        aligned = apply_local(state, o_ee, o_nn)
        family = construct_family(RankTwo(got))
        assert np.allclose(aligned.as_vector(), family.as_vector(), atol=1e-6)


def test_rotvec_matrix_matches_scipy_bit_for_bit(rng):
    # the kernel repeats scipy's floating-point steps, so the matrices must
    # agree byte for byte (signed zeros included) on both sides of the
    # small-angle series switch at 1e-3, at angle 0 and pi, and on vectors
    # with exact zero components
    from scipy.spatial.transform import Rotation

    switch = 1e-3
    angles = [
        0.0,
        1e-9,
        np.nextafter(switch, 0.0),
        switch * (1 - 1e-16),
        switch,
        switch * (1 + 1e-16),
        np.nextafter(switch, 1.0),
        0.4,
        np.nextafter(math.pi, 0.0),
        math.pi,
        np.nextafter(math.pi, 4.0),
        5.0,
    ]
    axes = np.concatenate([np.eye(3), -np.eye(3), rng.normal(size=(30, 3))])
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    zeroed = rng.normal(size=(300, 3))
    zeroed[rng.random(zeroed.shape) < 0.4] = 0.0
    zeroed[rng.random(zeroed.shape) < 0.2] *= -1.0
    vectors = [axis * angle for axis in axes for angle in angles]
    vectors += list(zeroed) + [np.zeros(3), -np.zeros(3)]
    for v in vectors:
        want = Rotation.from_rotvec(v).as_matrix()
        assert _rotvec_matrix(v).tobytes() == want.tobytes(), v


@scipy_reference
def test_matrix_rotvec_matches_scipy_bit_for_bit(rng):
    # the port repeats scipy's from_matrix + as_rotvec steps, so the vectors
    # must agree byte for byte: on random rotations, which reach all four
    # choices of the quaternion's leading component, at angles up to and past
    # the series switch at 1e-3, near pi and at exact half turns (w = 0), and
    # on quaternions that scipy flips to w >= 0
    from scipy.spatial.transform import Rotation

    switch = 1e-3
    angles = [
        0.0,
        1e-9,
        1e-4,
        np.nextafter(switch, 0.0),
        switch,
        np.nextafter(switch, 1.0),
        2e-3,
        1.0,
        math.pi - 1e-6,
        np.nextafter(math.pi, 0.0),
        math.pi,
    ]
    axes = np.concatenate([np.eye(3), -np.eye(3), rng.normal(size=(30, 3))])
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    matrices = [random_rotation(rng) for _ in range(2000)]
    matrices += [_rotvec_matrix(axis * angle) for axis in axes for angle in angles]
    for n in ([1, 0, 0], [0, -1, 0], [-1, 2, 0], [1, -2, 0], [0, -1, 3], [1, 1, 0], [-1, 1, 1], [3, -4, 0]):
        n = np.array(n, dtype=float) / np.linalg.norm(n)
        matrices.append(2.0 * np.outer(n, n) - np.eye(3))
    branches, flipped, small = set(), 0, 0
    for m in matrices:
        want = Rotation.from_matrix(m).as_rotvec()
        assert np.array(_matrix_rotvec(m)).tobytes() == want.tobytes(), m
        branches.add(int(np.argmax([m[0, 0], m[1, 1], m[2, 2], m[0, 0] + m[1, 1] + m[2, 2]])))
        flipped += Rotation.from_matrix(m).as_quat()[3] < 0
        small += np.linalg.norm(want) <= switch
    assert branches == {0, 1, 2, 3}
    assert flipped > 100 and small > 100


@pytest.mark.parametrize(
    "m",
    [np.eye(3) * 1.0001, np.eye(3) + 1e-9 * np.eye(3)[::-1], np.diag([1.0, 1.0, -1.0])],
    ids=["scaled", "skewed", "reflection"],
)
def test_matrix_rotvec_rejects_what_scipy_would_orthogonalise(m):
    # scipy orthogonalises a matrix that fails its 1e-12 test (and rejects
    # det <= 0); the port raises for both rather than differ silently
    with pytest.raises(NumericalInconsistencyError, match="rotation"):
        _matrix_rotvec(m)


def test_rank2_frame_and_invariants_need_no_cross_or_rotvec(monkeypatch, rng):
    # the closed-form kernels replace np.cross and scipy's Rotation and
    # minimize on the hot paths; with all of them made to raise, the answers
    # must not change
    import scipy.optimize
    from scipy.spatial.transform import Rotation

    from qpair import degree, local_invariants

    rotated = _scrambled(Rank2Params(1.1, 0.4, 0.3, -0.25, 0.2), rng)
    generic = random_state(5)
    want = (rank2_canonical(rotated), degree(rotated), local_invariants(generic))

    def banned(*args, **kwargs):
        raise AssertionError("slow library path called")

    monkeypatch.setattr(np, "cross", banned)
    monkeypatch.setattr(Rotation, "from_rotvec", staticmethod(banned))
    monkeypatch.setattr(Rotation, "from_matrix", staticmethod(banned))
    monkeypatch.setattr(scipy.optimize, "minimize", banned)
    got = (rank2_canonical(rotated), degree(rotated), local_invariants(generic))
    assert got[0] == want[0]
    assert (got[1].S, got[1].method, got[1].family_data) == (
        want[1].S,
        want[1].method,
        want[1].family_data,
    )
    assert got[2] == want[2]
