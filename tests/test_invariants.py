"""Invariant layer: rotation invariance, reflection parity, dual routes.

The frozen Bell values (A2, A1, A0) = (6, 8, 3) and the scaling law
A_k -> x^(4-k) A_k under chaotic admixture are exact statements, tested
exactly.  Rotation invariance is a property test over random frames.
"""

import numpy as np
import pytest

from qpair import (
    Bell,
    NumericalInconsistencyError,
    TwoQubitState,
    Werner,
    construct_family,
    det_entanglement,
    entanglement_dyadic,
    global_invariants,
    local_invariants,
    random_state,
    reflect,
    spectrum,
    subdeterminant,
    to_density_matrix,
    trace_modulus,
)
from qpair.canonical import apply_local

from conftest import random_rotation

_NAMES = ("a2_1", "a2_2", "a2_3", "a3_1", "a3_2", "a4_1", "a4_2", "a4_3", "a4_4")


def _as_dict(loc):
    return {name: getattr(loc, name) for name in _NAMES}


def test_local_invariants_of_bell_state():
    loc = local_invariants(construct_family(Bell()))
    assert loc.a2_1 == pytest.approx(3.0, abs=1e-15)
    assert loc.a2_2 == 0.0
    assert loc.a2_3 == 0.0
    assert loc.a3_1 == pytest.approx(-1.0, abs=1e-15)
    assert loc.a4_1 == pytest.approx(3.0, abs=1e-15)
    glob = global_invariants(loc)
    assert (glob.A2, glob.A1, glob.A0) == pytest.approx((6.0, 8.0, 3.0), abs=1e-14)


def test_local_invariants_under_random_rotations(rng):
    state = random_state(3)
    base = _as_dict(local_invariants(state))
    for _ in range(10):
        rotated = apply_local(state, random_rotation(rng), random_rotation(rng))
        loc = _as_dict(local_invariants(rotated))
        for name in _NAMES:
            assert loc[name] == pytest.approx(base[name], rel=1e-10, abs=1e-12), name


def test_partial_reflection_flips_exactly_the_odd_invariants():
    state = random_state(17)
    before = _as_dict(local_invariants(state))
    after = _as_dict(local_invariants(reflect(state, "partial")))
    for name in _NAMES:
        want = -before[name] if name in ("a3_1", "a4_2") else before[name]
        assert after[name] == pytest.approx(want, rel=1e-12, abs=1e-15), name


def test_subdeterminant_identity(rng):
    for _ in range(10):
        c = rng.uniform(-1, 1, (3, 3))
        sub = subdeterminant(c)
        det = np.linalg.det(c)
        assert np.allclose(c @ sub.T, det * np.eye(3), atol=1e-12)
    assert np.allclose(
        subdeterminant(np.diag([2.0, 3.0, 5.0])), np.diag([15.0, 10.0, 6.0])
    )
    with pytest.raises(ValueError, match="3x3"):
        subdeterminant(np.eye(2))


def test_subdeterminant_matches_cross_rows_bit_for_bit(rng):
    # the scalar cofactors repeat np.cross's products and differences, so
    # the result must agree byte for byte, signed zeros included
    matrices = [np.zeros((3, 3)), -np.zeros((3, 3)), np.diag([2.0, -3.0, 0.0])]
    for _ in range(300):
        c = rng.normal(size=(3, 3))
        c[rng.random((3, 3)) < 0.3] = 0.0
        c[rng.random((3, 3)) < 0.3] *= -1.0
        matrices.append(c)
    for c in matrices:
        rows = np.array([np.cross(c[1], c[2]), np.cross(c[2], c[0]), np.cross(c[0], c[1])])
        assert subdeterminant(c).tobytes() == rows.tobytes(), c


def test_det_entanglement_two_routes_agree(rng):
    for seed in range(8):
        state = random_state(seed)
        value = det_entanglement(state)
        direct = np.linalg.det(entanglement_dyadic(state))
        assert value == pytest.approx(direct, abs=1e-12)
    # Product states have E = 0 exactly.
    from qpair import product_state

    prod = product_state([0.3, -0.1, 0.5], [0.2, 0.4, -0.3])
    assert det_entanglement(prod) == pytest.approx(0.0, abs=1e-15)


def test_det_entanglement_raises_when_the_direct_determinant_disagrees(monkeypatch):
    # forge the dyadic that the direct determinant reads; the invariant form
    # det C - s.sub(C).t must refuse it rather than return either value
    import qpair.invariants as inv

    state = random_state(5)
    real = inv.entanglement_dyadic
    monkeypatch.setattr(inv, "entanglement_dyadic", lambda s: real(s) + 0.01 * np.eye(3))
    direct = float(np.linalg.det(real(state) + 0.01 * np.eye(3)))
    with pytest.raises(NumericalInconsistencyError) as err:
        det_entanglement(state)
    assert f"direct determinant {direct!r}" in str(err.value)


def test_trace_modulus_raises_when_its_eigensolve_breaks_the_cubic(monkeypatch):
    # forge the eigensolve of C^T C; its sum no longer matches tr(C^T C)
    c = random_state(5).C
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: real(m) + np.array([0.0, 0.0, 0.01]))
    want = float(np.trace(c.T @ c))
    with pytest.raises(NumericalInconsistencyError, match="zeta sum") as err:
        trace_modulus(c)
    assert str(err.value).endswith(f"invariants give {want!r}")


def test_trace_modulus_is_sum_of_singular_values(rng):
    for _ in range(10):
        c = rng.uniform(-1, 1, (3, 3))
        assert trace_modulus(c) == pytest.approx(
            np.linalg.svd(c, compute_uv=False).sum(), abs=1e-10
        )
    with pytest.raises(ValueError, match="3x3"):
        trace_modulus(np.zeros((2, 3)))


def test_global_invariants_scale_under_chaotic_admixture():
    # Mixing with chaos at weight x multiplies every parameter by x, so
    # degree-n local invariants pick up x^n and A_k picks up x^(4-k).
    base = random_state(29)
    full = global_invariants(local_invariants(base))
    for x in (0.3, 0.7):
        scaled = TwoQubitState(s=x * base.s, t=x * base.t, C=x * base.C)
        glob = global_invariants(local_invariants(scaled))
        assert glob.A2 == pytest.approx(x**2 * full.A2, rel=1e-12)
        assert glob.A1 == pytest.approx(x**3 * full.A1, rel=1e-12)
        assert glob.A0 == pytest.approx(x**4 * full.A0, rel=1e-12)


def test_spectrum_matches_direct_eigensolve(rng):
    for seed in range(12):
        state = random_state(seed, target_rank=1 + seed % 4)
        res = spectrum(state)
        direct = np.linalg.eigvalsh(to_density_matrix(state))
        assert np.allclose(np.sort(res.eigenvalues), direct, atol=1e-9)
        assert res.kappa.sum() == pytest.approx(0.0, abs=1e-9)
        assert res.eigenvalues.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.eigenvalues, (1.0 - res.kappa) / 4.0)


def test_spectrum_of_werner_state():
    # x = 0.6: eigenvalues (1 + 3x)/4 = 0.7 and (1 - x)/4 = 0.1 threefold,
    # i.e. kappa = -1.8 once and 0.6 three times.
    res = spectrum(construct_family(Werner(0.6)))
    assert np.allclose(res.kappa, [0.6, 0.6, 0.6, -1.8], atol=1e-10)
    assert np.allclose(res.eigenvalues, [0.1, 0.1, 0.1, 0.7], atol=1e-10)


def test_spectrum_cross_check_triggers_on_forged_invariants(monkeypatch):
    # Corrupt the invariant route only; the guard must notice rather than
    # silently prefer either side.
    import qpair.invariants as inv

    state = random_state(5)
    real = inv.global_invariants

    def forged(loc):
        g = real(loc)
        return inv.GlobalInvariants(A2=g.A2 + 0.01, A1=g.A1, A0=g.A0)

    monkeypatch.setattr(inv, "global_invariants", forged)
    with pytest.raises(NumericalInconsistencyError, match="disagree"):
        inv.spectrum(state)


def test_pure_state_quartic_has_triple_root():
    # Any pure state has eigenvalues (1, 0, 0, 0), hence kappa (1, 1, 1, -3).
    state = random_state(31, target_rank=1)
    res = spectrum(state)
    assert np.allclose(res.kappa, [1.0, 1.0, 1.0, -3.0], atol=1e-9)
