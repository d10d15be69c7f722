"""Family constructors: parameter validation and frozen spectra.

Eigenvalue patterns below are hand-derived from the commuting products
sigma_a tau_a, whose joint eigenvalue triples on the four maximally
entangled states are (+,-,+), (-,+,+), (+,+,-), (-,-,-).  With
C = sign * diag(c) the spectrum is 1/4 (1 + sign * sum_a c_a chi_a) over
those triples, which the tests spell out numerically.
"""

import dataclasses
import math

import numpy as np
import pytest

from qpair import (
    Bell,
    Chaotic,
    GenericPure,
    Rank2Params,
    RankTwo,
    TwoQubitState,
    ValidityError,
    Werner,
    WernerFirst,
    WernerSecond,
    apply_local,
    check_rotation,
    construct_family,
    is_state,
    sigma_basis,
    to_density_matrix,
)
from qpair.families import rank2_family_vector

from conftest import random_rotation

# Levi-Civita symbol for the subspace Pauli algebra check.
_EPS3 = np.zeros((3, 3, 3))
for _a, _b, _c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS3[_a, _b, _c] = 1.0
    _EPS3[_b, _a, _c] = -1.0


def _eigs(state):
    return np.linalg.eigvalsh(to_density_matrix(state))


def test_chaotic_is_maximally_mixed():
    state = construct_family(Chaotic())
    assert np.allclose(state.as_vector(), 0.0)
    assert np.allclose(_eigs(state), 0.25)


def test_bell_is_maximally_entangled_pure(rng):
    state = construct_family(Bell())
    assert np.allclose(state.C, -np.eye(3))
    assert np.allclose(np.sort(_eigs(state)), [0, 0, 0, 1], atol=1e-12)
    rotated = apply_local(construct_family(Bell()), random_rotation(rng), np.eye(3))
    assert np.allclose(np.sort(_eigs(rotated)), [0, 0, 0, 1], atol=1e-12)


def test_generic_pure_structure():
    spec = GenericPure(0.6)
    assert spec.q == pytest.approx(0.8)
    state = construct_family(spec)
    assert np.allclose(state.s, [0.6, 0, 0])
    assert np.allclose(state.t, [-0.6, 0, 0])
    assert np.allclose(state.C, np.diag([-1.0, -0.8, -0.8]))
    assert np.allclose(np.sort(_eigs(state)), [0, 0, 0, 1], atol=1e-12)
    # Endpoints: p = 0 is the singlet-like Bell state, p = 1 a product state.
    assert np.allclose(construct_family(GenericPure(0.0)).C, -np.eye(3))
    prod = construct_family(GenericPure(1.0))
    assert np.allclose(prod.C, np.outer(prod.s, prod.t))
    with pytest.raises(ValueError, match="p must lie"):
        GenericPure(1.2)


def test_werner_spectrum_and_range():
    state = construct_family(Werner(0.6))
    assert np.allclose(state.C, -0.6 * np.eye(3))
    assert np.allclose(np.sort(_eigs(state)), [0.1, 0.1, 0.1, 0.7], atol=1e-12)
    edge = construct_family(Werner(-1.0 / 3.0))
    assert _eigs(edge)[0] >= -1e-12
    with pytest.raises(ValueError, match="x must lie"):
        Werner(1.1)
    with pytest.raises(ValueError, match="x must lie"):
        Werner(-0.34)


def test_werner_first_minus_sign_spectrum():
    # sign -1, c = (0.5, 0.3, 0.1): eigenvalues 1/4 (1 -+ c1 -+ c2 -+ c3)
    # over the triples above, i.e. {0.475, 0.275, 0.175, 0.075}.
    state = construct_family(WernerFirst(-1, 0.5, 0.3, 0.1))
    assert np.allclose(state.C, np.diag([-0.5, -0.3, -0.1]))
    assert np.allclose(np.sort(_eigs(state)), [0.075, 0.175, 0.275, 0.475], atol=1e-12)


def test_werner_first_plus_sign_spectrum():
    # sign +1, c = (0.4, 0.3, 0.2): 1/4 (1 + c . chi) over the four triples
    # gives {0.325, 0.275, 0.375, 0.025}.
    state = construct_family(WernerFirst(1, 0.4, 0.3, 0.2))
    assert np.allclose(np.sort(_eigs(state)), [0.025, 0.275, 0.325, 0.375], atol=1e-12)


def test_werner_first_rejects_invalid_parameters():
    # c = (0.8, 0.5, 0.2) with the minus sign drives one eigenvalue to
    # 1/4 (1 - 0.8 - 0.5 + 0.2) = -0.025 < 0.
    with pytest.raises(ValidityError) as excinfo:
        construct_family(WernerFirst(-1, 0.8, 0.5, 0.2))
    assert excinfo.value.min_eigenvalue == pytest.approx(-0.025, abs=1e-12)
    with pytest.raises(ValueError, match="c1 >= c2 >= c3"):
        WernerFirst(1, 0.2, 0.5, 0.1)
    with pytest.raises(ValueError, match="c1 >= c2 >= c3"):
        WernerFirst(1, 0.5, 0.2, -0.1)
    with pytest.raises(ValueError, match="sign"):
        WernerFirst(2, 0.5, 0.3, 0.1)


def test_werner_first_with_rotation_keeps_spectrum(rng):
    o = random_rotation(rng)
    plain = construct_family(WernerFirst(-1, 0.5, 0.3, 0.1))
    rotated = apply_local(construct_family(WernerFirst(-1, 0.5, 0.3, 0.1)), o, np.eye(3))
    assert np.allclose(np.sort(_eigs(rotated)), np.sort(_eigs(plain)), atol=1e-12)


def test_werner_first_invalidity_is_the_positivity_pass_margin():
    # construct_family decides positivity through the package's one positivity
    # pass, so the error carries is_state's min_eigenvalue margin bit for bit
    with pytest.raises(ValidityError) as excinfo:
        construct_family(WernerFirst(-1, 0.8, 0.5, 0.2))
    unvalidated = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-np.diag([0.8, 0.5, 0.2]))
    margin = is_state(unvalidated).margins["min_eigenvalue"]
    assert np.float64(excinfo.value.min_eigenvalue).tobytes() == np.float64(margin).tobytes()


@pytest.mark.parametrize("sign", [-1, 1])
def test_werner_first_rotated_by_apply_local(rng, sign):
    c = np.array([0.5, 0.3, 0.1])
    for _ in range(5):
        o = random_rotation(rng)
        rotated = apply_local(construct_family(WernerFirst(sign, *c)), o, np.eye(3))
        assert np.allclose(rotated.C, sign * o @ np.diag(c), rtol=0.0, atol=1e-15)
        assert np.array_equal(rotated.s, np.zeros(3))
        assert np.array_equal(rotated.t, np.zeros(3))


def test_family_records_hold_only_their_parameters():
    # a member is rotated with apply_local, so no record carries a rotation
    def names(record):
        return tuple(f.name for f in dataclasses.fields(record))

    assert names(Bell) == ()
    assert names(Werner) == ("x",)
    assert names(WernerFirst) == ("sign", "c1", "c2", "c3")


def test_werner_second_spectrum():
    spec = WernerSecond(x=0.8, p=0.6)
    assert spec.q == pytest.approx(0.8)
    state = construct_family(spec)
    # (1 - x)/4 three times and (1 + 3x)/4 once, independent of p.
    assert np.allclose(np.sort(_eigs(state)), [0.05, 0.05, 0.05, 0.85], atol=1e-12)
    pure = construct_family(GenericPure(0.6))
    assert np.allclose(state.as_vector(), 0.8 * pure.as_vector())
    with pytest.raises(ValueError, match="strictly"):
        WernerSecond(x=0.5, p=1.0)
    with pytest.raises(ValueError, match="x must lie"):
        WernerSecond(x=1.2, p=0.5)


def test_rank2_params_validation():
    with pytest.raises(ValueError, match="gamma1 >= gamma2"):
        Rank2Params(0.3, 0.6, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="gamma1 >= gamma2"):
        Rank2Params(2.0, 0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="exceeds 1"):
        Rank2Params(0.6, 0.3, 0.8, 0.8, 0.8)
    par = Rank2Params(0.6, 0.3, 0.1, -0.2, 0.3)
    assert par.x_sq == pytest.approx(0.14)
    assert np.allclose(par.x, [0.1, -0.2, 0.3])


@pytest.mark.parametrize("index", range(5))
def test_rank2_params_rejects_non_finite_values(index):
    values = [1.0, 0.5, 0.3, 0.2, 0.1]
    values[index] = math.nan
    with pytest.raises(ValueError, match="angles|exceeds 1"):
        Rank2Params(*values)


@pytest.mark.parametrize("angles", [(0.9, 0.4), (math.pi / 2, 0.0), (1.1, 1.1)])
def test_sigma_basis_pauli_algebra(angles):
    sig = sigma_basis(*angles)
    # Sigma_0 projects onto the supporting subspace.
    assert np.allclose(sig[0] @ sig[0], sig[0], atol=1e-12)
    assert np.trace(sig[0]).real == pytest.approx(2.0, abs=1e-12)
    for k in range(1, 4):
        assert np.allclose(sig[0] @ sig[k], sig[k], atol=1e-12)
        assert abs(np.trace(sig[k])) < 1e-12
        assert np.allclose(sig[k], sig[k].conj().T, atol=1e-12)
    for j in range(1, 4):
        for k in range(1, 4):
            expected = (j == k) * sig[0] + 1j * sum(
                _EPS3[j - 1, k - 1, l] * sig[l + 1] for l in range(3)
            )
            assert np.allclose(sig[j] @ sig[k], expected, atol=1e-12)


def test_sigma_basis_rejects_bad_angles():
    with pytest.raises(ValueError, match="gamma1 >= gamma2"):
        sigma_basis(0.2, 0.5)


def test_rank2_closed_form_matches_matrix_route(rng):
    # the closed-form vector is the target the rank-2 frame polish matches
    for _ in range(10):
        g2, g1 = np.sort(rng.uniform(0.0, math.pi / 2, 2))
        x = rng.uniform(-1, 1, 3)
        x *= rng.uniform(0, 1) / max(1.0, np.linalg.norm(x))
        state = construct_family(RankTwo(Rank2Params(g1, g2, *x)))
        assert np.allclose(state.as_vector(), rank2_family_vector(g1, g2, *x), atol=1e-12)


def test_rank2_spectrum_is_half_one_plus_minus_x(rng):
    par = Rank2Params(1.0, 0.5, 0.3, -0.2, 0.4)
    r = math.sqrt(par.x_sq)
    eigs = np.sort(_eigs(construct_family(RankTwo(par))))
    assert np.allclose(eigs, [0, 0, (1 - r) / 2, (1 + r) / 2], atol=1e-12)
    # On the subspace sphere the state is pure.
    x = np.array([0.6, 0.0, 0.8])
    eigs = np.sort(_eigs(construct_family(RankTwo(Rank2Params(0.9, 0.2, *x)))))
    assert np.allclose(eigs, [0, 0, 0, 1], atol=1e-12)


def test_check_rotation():
    assert np.allclose(check_rotation(np.eye(3)), np.eye(3))
    with pytest.raises(ValueError, match="3x3"):
        check_rotation(np.eye(2))
    with pytest.raises(ValueError, match="orthogonal"):
        check_rotation(np.eye(3) + 0.01)
    with pytest.raises(ValueError, match="orthogonal"):
        check_rotation(np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="determinant"):
        check_rotation(np.diag([1.0, 1.0, -1.0]))


def test_construct_family_rejects_unknown_record():
    with pytest.raises(TypeError, match="family record"):
        construct_family(object())
