"""Representation layer: basis conventions, conversions, and helpers.

The first two tests freeze the basis convention (|00>, |01>, |10>, |11>,
first factor q-bit 1, |0> the +1 eigenstate of sigma_z) against density
matrices written out by hand.  Everything downstream silently depends on
these choices, so they get exact oracles rather than round-trip checks.
"""

import numpy as np
import pytest

from qpair import (
    PAULI,
    TENSOR,
    RepresentationError,
    TwoQubitState,
    entanglement_dyadic,
    fix_global_phase,
    from_density_matrix,
    mix,
    product_state,
    pure_projector,
    random_state,
    reflect,
    table_of_five,
    to_density_matrix,
)

from conftest import random_rotation


def test_product_of_up_states_is_projector_on_00():
    # s = t = +z means both q-bits point up; the density matrix must be
    # |00><00|, which pins the basis ordering and the sign of sigma_z.
    state = product_state([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    expected = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert np.allclose(to_density_matrix(state), expected, atol=1e-15)


def test_singlet_parameters_match_projector():
    # The singlet (|01> - |10>)/sqrt(2) has s = t = 0 and C = -1.
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    state = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-np.eye(3))
    assert np.allclose(to_density_matrix(state), pure_projector(psi), atol=1e-15)


def test_pauli_algebra():
    for a in range(1, 4):
        assert np.allclose(PAULI[a] @ PAULI[a], PAULI[0])
        assert np.allclose(PAULI[a].conj().T, PAULI[a])
        assert abs(np.trace(PAULI[a])) < 1e-15
    # Cyclic products: sigma_x sigma_y = i sigma_z and cyclic.
    for a, b, c in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        assert np.allclose(PAULI[a] @ PAULI[b], 1j * PAULI[c])


def test_tensor_basis_is_trace_orthogonal():
    flat = TENSOR.reshape(16, 4, 4)
    gram = np.einsum("iab,jba->ij", flat, flat)
    assert np.allclose(gram, 4.0 * np.eye(16), atol=1e-14)


def test_density_matrix_round_trip(rng):
    for _ in range(20):
        state = TwoQubitState(
            s=rng.uniform(-1, 1, 3), t=rng.uniform(-1, 1, 3), C=rng.uniform(-1, 1, (3, 3))
        )
        back = from_density_matrix(to_density_matrix(state), tol=1e-9)
        assert np.allclose(back.s, state.s, atol=1e-13)
        assert np.allclose(back.t, state.t, atol=1e-13)
        assert np.allclose(back.C, state.C, atol=1e-13)


def test_from_density_matrix_rejects_bad_input():
    with pytest.raises(RepresentationError, match="must be 4x4"):
        from_density_matrix(np.eye(3) / 3.0)
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 0.1
    with pytest.raises(RepresentationError, match="not Hermitian"):
        from_density_matrix(m)
    with pytest.raises(RepresentationError, match="trace"):
        from_density_matrix(np.eye(4, dtype=complex))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_from_density_matrix_rejects_non_finite_entries(entry):
    # checked before any arithmetic, so an inf entry emits no RuntimeWarning
    m = np.eye(4, dtype=complex) / 4.0
    m[1, 2] = entry
    with pytest.raises(RepresentationError, match="non-finite"):
        from_density_matrix(m)


def test_state_constructor_validates_shapes():
    with pytest.raises(ValueError, match="shape"):
        TwoQubitState(s=np.zeros(2), t=np.zeros(3), C=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        TwoQubitState(s=np.array([np.nan, 0, 0]), t=np.zeros(3), C=np.zeros((3, 3)))
    state = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        state.s[0] = 1.0


def test_pauli_vectors_are_the_reduced_states():
    for seed in range(5):
        state = random_state(seed)
        m = to_density_matrix(state)
        # Basis index is 2 i + k with i on q-bit 1, so tracing out q-bit 2
        # sums the stride-2 diagonal blocks and tracing out q-bit 1 the
        # contiguous ones.
        rho1 = m[0::2, 0::2] + m[1::2, 1::2]
        rho2 = m[:2, :2] + m[2:, 2:]
        traced_s = [np.trace(PAULI[a] @ rho1).real for a in (1, 2, 3)]
        traced_t = [np.trace(PAULI[b] @ rho2).real for b in (1, 2, 3)]
        assert np.allclose(traced_s, state.s, atol=1e-12)
        assert np.allclose(traced_t, state.t, atol=1e-12)


def test_product_state_has_zero_entanglement_dyadic(rng):
    s = rng.uniform(-0.5, 0.5, 3)
    t = rng.uniform(-0.5, 0.5, 3)
    state = product_state(s, t)
    assert np.allclose(entanglement_dyadic(state), 0.0, atol=1e-15)


def test_global_reflection_preserves_spectrum(rng):
    state = random_state(11)
    flipped = reflect(state, "global")
    assert np.allclose(flipped.s, -state.s)
    assert np.allclose(flipped.t, -state.t)
    assert np.allclose(flipped.C, state.C)
    a = np.linalg.eigvalsh(to_density_matrix(state))
    b = np.linalg.eigvalsh(to_density_matrix(flipped))
    assert np.allclose(a, b, atol=1e-12)


def test_partial_reflection_matches_partial_transpose():
    # The partial reflection (s, t, C) -> (-s, t, -C) must have the same
    # spectrum as the literal partial transpose on q-bit 2 (they differ by
    # a unitary).  This is the separability witness used everywhere.
    state = random_state(23)
    reflected = reflect(state, "partial")
    m = to_density_matrix(state)
    pt = m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    a = np.linalg.eigvalsh(to_density_matrix(reflected))
    b = np.linalg.eigvalsh(pt)
    assert np.allclose(a, b, atol=1e-12)


def test_reflect_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        reflect(random_state(0), "diagonal")


def test_mix_is_componentwise_convex():
    a = random_state(1)
    b = random_state(2)
    mixed = mix([a, b], [0.25, 0.75])
    assert np.allclose(mixed.s, 0.25 * a.s + 0.75 * b.s)
    assert np.allclose(mixed.C, 0.25 * a.C + 0.75 * b.C)


def test_mix_validates_weights():
    a = random_state(1)
    with pytest.raises(ValueError, match="weights"):
        mix([a, a], [0.5])
    with pytest.raises(ValueError, match="negative"):
        mix([a, a], [1.5, -0.5])
    with pytest.raises(ValueError, match="sum"):
        mix([a, a], [0.6, 0.6])
    with pytest.raises(ValueError, match="zero states"):
        mix([], [])


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan], [np.inf, 0.0]])
def test_mix_rejects_non_finite_weights(weights):
    a = random_state(1)
    with pytest.raises(ValueError, match="sum"):
        mix([a, a], weights)


def test_random_state_is_deterministic_and_valid():
    a = random_state(42)
    b = random_state(42)
    assert np.array_equal(a.as_vector(), b.as_vector())
    eigs = np.linalg.eigvalsh(to_density_matrix(a))
    assert eigs[0] > 1e-12
    assert abs(eigs.sum() - 1.0) < 1e-12


def test_random_state_target_rank():
    for k in range(1, 5):
        eigs = np.linalg.eigvalsh(to_density_matrix(random_state(7, target_rank=k)))
        assert np.sum(eigs > 1e-9) == k
    pure = random_state(7, target_rank=1)
    m = to_density_matrix(pure)
    assert abs(np.trace(m @ m).real - 1.0) < 1e-12
    with pytest.raises(ValueError, match="target_rank"):
        random_state(0, target_rank=5)


def test_fix_global_phase():
    psi = fix_global_phase(np.array([0.0, 1j, -1j, 0.0]))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
    assert psi[1].imag == pytest.approx(0.0, abs=1e-15)
    assert psi[1].real > 0
    # Idempotent once fixed.
    assert np.allclose(fix_global_phase(psi), psi, atol=1e-15)
    with pytest.raises(RepresentationError, match="norm"):
        fix_global_phase(np.zeros(4))


@pytest.mark.parametrize("psi", [[np.nan] * 4, [1.0, np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]])
def test_fix_global_phase_rejects_non_finite_vectors(psi):
    with pytest.raises(RepresentationError, match="norm"):
        fix_global_phase(psi)


def test_pure_projector_is_projector():
    psi = fix_global_phase(np.array([1.0, 2.0, 3.0j, -1.0]))
    proj = pure_projector(psi)
    assert np.allclose(proj, proj.conj().T)
    assert np.allclose(proj @ proj, proj, atol=1e-14)
    assert abs(np.trace(proj).real - 1.0) < 1e-14


@pytest.mark.parametrize(
    "psi", [[np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0] * 4]
)
def test_pure_projector_rejects_non_finite_or_unnormalized_vectors(psi):
    with pytest.raises(RepresentationError, match="norm"):
        pure_projector(psi)


def test_table_of_five_reassembles_exactly(rng):
    state = random_state(99)
    table = table_of_five(state)
    assert len(table.rows) == 5
    names = [name for name, _ in table.rows]
    assert names == ["xx", "yy", "zz", "cyclic", "anticyclic"]
    back = table.reassemble()
    assert np.array_equal(back.as_vector(), state.as_vector())


def test_rotation_covariance(rng):
    # Local rotations act as s -> R1 s, t -> R2 t, C -> R1 C R2^T.  Check
    # against conjugation of the density matrix by the corresponding SU(2)
    # pair, built from the rotation generators.
    from scipy.linalg import expm
    from scipy.spatial.transform import Rotation

    state = random_state(5)
    vec1 = rng.uniform(-1, 1, 3)
    vec2 = rng.uniform(-1, 1, 3)
    r1 = Rotation.from_rotvec(vec1).as_matrix()
    r2 = Rotation.from_rotvec(vec2).as_matrix()
    u1 = expm(-0.5j * sum(vec1[a] * PAULI[a + 1] for a in range(3)))
    u2 = expm(-0.5j * sum(vec2[a] * PAULI[a + 1] for a in range(3)))
    u = np.kron(u1, u2)
    rotated = from_density_matrix(u @ to_density_matrix(state) @ u.conj().T)
    assert np.allclose(rotated.s, r1 @ state.s, atol=1e-12)
    assert np.allclose(rotated.t, r2 @ state.t, atol=1e-12)
    assert np.allclose(rotated.C, r1 @ state.C @ r2.T, atol=1e-12)
