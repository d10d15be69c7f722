"""Decision layer: positivity, entanglement, separability, rank.

Werner states provide exact boundary oracles: validity ends at x = 1 and
separability at x = 1/3.  Both dual-route deciders are additionally run
over random valid and over-scaled invalid states as a smaller in-process
version of the acceptance sweeps.
"""

import re

import numpy as np
import pytest

from qpair import (
    Bell,
    GenericPure,
    NumericalInconsistencyError,
    PreconditionError,
    Rank2Params,
    RankTwo,
    TwoQubitState,
    Werner,
    construct_family,
    from_density_matrix,
    is_entangled,
    is_separable,
    is_state,
    product_state,
    purity_rank,
    random_state,
    reflect,
    to_density_matrix,
)

from conftest import scaled_invalid_state


def test_valid_state_verdict():
    verdict = is_state(random_state(1))
    assert verdict.decision
    assert bool(verdict)
    assert set(verdict.margins) == {
        "quartic_value",
        "quartic_slope",
        "quartic_curvature",
        "min_eigenvalue",
    }
    assert all(v > 0 for v in verdict.margins.values())


def test_invalid_state_margins_frozen():
    # s = t = 0, C = -diag(0.8, 0.5, 0.2): min eigenvalue is exactly
    # (1 - 0.8 - 0.5 + 0.2)/4 = -0.025 and the quartic value slack is
    # 1 - (A2 - A1 + A0) = -0.1375.
    state = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-np.diag([0.8, 0.5, 0.2]))
    verdict = is_state(state)
    assert not verdict.decision
    assert verdict.margins["min_eigenvalue"] == pytest.approx(-0.025, abs=1e-12)
    assert verdict.margins["quartic_value"] == pytest.approx(-0.1375, abs=1e-12)
    assert verdict.margins["quartic_slope"] > 0
    assert verdict.margins["quartic_curvature"] > 0


def test_is_state_rejects_nonpositive_tol():
    with pytest.raises(ValueError, match="tol"):
        is_state(random_state(0), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_every_decision_rejects_a_non_finite_tol(tol):
    # nan fails every comparison, so an unchecked nan reads a valid state as invalid
    # and a non-Hermitian matrix as a state, and an unchecked inf accepts any state
    invalid = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=np.diag([0.8, 0.5, 0.2]))
    for decide in (is_state, is_separable, purity_rank):
        for state in (random_state(0), invalid):
            with pytest.raises(ValueError, match="positive and finite"):
                decide(state, tol=tol)
    non_hermitian = np.eye(4) / 4.0
    non_hermitian[0, 1] = 0.3
    for m in (to_density_matrix(random_state(0)), non_hermitian):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            from_density_matrix(m, tol=tol)


_TOL_INPUTS = {
    "is_state": lambda: random_state(0),
    "is_entangled": lambda: random_state(0),
    "is_separable": lambda: random_state(0),
    "purity_rank": lambda: random_state(0),
    "pure_canonical": lambda: construct_family(GenericPure(0.6)),
    "rank2_canonical": lambda: construct_family(RankTwo(Rank2Params(1.0, 0.5, 0.3, -0.2, 0.4))),
    "degree_werner_first": lambda: construct_family(Werner(0.5)),
    "degree_rank2": lambda: Rank2Params(1.0, 0.5, 0.3, -0.2, 0.4),
    "ls_optimize": lambda: random_state(0),
    "degree": lambda: random_state(0),
}


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-9, float("inf")])
@pytest.mark.parametrize("name", sorted(_TOL_INPUTS))
def test_every_public_tol_must_be_positive_and_finite(name, tol):
    # each input meets its function's precondition, so only tol can be at fault
    import qpair

    with pytest.raises(ValueError, match="tol"):
        getattr(qpair, name)(_TOL_INPUTS[name](), tol=tol)


def test_routes_agree_on_random_and_overscaled_states(rng):
    for seed in range(40):
        state = random_state(seed)
        verdict = is_state(state)
        assert verdict.decision
        bad = scaled_invalid_state(state, rng)
        verdict = is_state(bad)
        assert not verdict.decision
        assert verdict.margins["min_eigenvalue"] < 0
        assert min(
            verdict.margins["quartic_value"],
            verdict.margins["quartic_slope"],
            verdict.margins["quartic_curvature"],
        ) < 0


def test_werner_validity_boundary():
    assert is_state(construct_family(Werner(1.0))).decision
    beyond = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-1.001 * np.eye(3))
    assert not is_state(beyond).decision


def test_werner_separability_boundary():
    x = 1.0 / 3.0
    assert is_separable(construct_family(Werner(x))).decision
    assert not is_separable(construct_family(Werner(x + 1e-6))).decision
    verdict = is_separable(construct_family(Werner(0.8)))
    assert not verdict.decision
    # Reflected minimum eigenvalue of a Werner state is (1 - 3x)/4.
    assert verdict.margins["reflected_min_eigenvalue"] == pytest.approx(
        (1 - 3 * 0.8) / 4, abs=1e-12
    )


def test_separable_states_with_correlations_are_still_entangled_flagged():
    # A classically correlated mixture of two product states: E != 0, so
    # entangled by the dyadic criterion, yet separable by construction.
    up = product_state([0, 0, 1.0], [0, 0, 1.0])
    down = product_state([0, 0, -1.0], [0, 0, -1.0])
    from qpair import mix

    state = mix([up, down], [0.5, 0.5])
    assert is_entangled(state)
    assert is_separable(state).decision


def test_product_state_is_not_entangled():
    state = product_state([0.3, 0.2, -0.4], [0.1, -0.5, 0.2])
    assert not is_entangled(state)
    assert is_separable(state).decision


def test_entangled_nonseparable_state():
    state = construct_family(Bell())
    assert is_entangled(state)
    assert not is_separable(state).decision


def test_deciders_require_valid_state():
    bad = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-np.diag([0.8, 0.5, 0.2]))
    with pytest.raises(PreconditionError, match="valid state"):
        is_entangled(bad)
    with pytest.raises(PreconditionError, match="valid state"):
        is_separable(bad)
    with pytest.raises(PreconditionError, match="valid state"):
        purity_rank(bad)


def test_purity_rank_all_ranks():
    for k in range(1, 5):
        result = purity_rank(random_state(13, target_rank=k))
        assert result.rank == k
        assert result.pure == (k == 1)


def test_purity_rank_detects_forged_spectrum(monkeypatch):
    # Make the eigensolve claim purity for a mixed state; the invariant
    # equalities cannot hold and the cross-check must raise.
    import qpair.classify as cls

    state = random_state(2)

    def forged(m):
        # spectrum of a pure state; keeps the validity gate happy while
        # contradicting the invariant equalities
        return np.array([0.0, 0.0, 0.0, 1.0])

    monkeypatch.setattr(cls.np.linalg, "eigvalsh", forged)
    with pytest.raises(NumericalInconsistencyError, match="rank 1"):
        purity_rank(state)


def test_purity_rank_detects_a_forged_rank_two_spectrum(monkeypatch):
    # forge two nonzero eigenvalues for a rank-4 state: the quartic's value
    # at kappa = 1, which is 256 det(rho), stays far from the zero that rank 2
    # forces, and the subspace check must raise
    import qpair.classify as cls

    state = random_state(3)
    value = 256.0 * float(np.prod(np.linalg.eigvalsh(to_density_matrix(state))))
    monkeypatch.setattr(cls, "_eigenvalues", lambda s: np.array([0.0, 0.0, 0.5, 0.5]))
    with pytest.raises(NumericalInconsistencyError, match="subspace") as err:
        purity_rank(state)
    assert float(re.search(r"value (\S+),", str(err.value)).group(1)) == pytest.approx(value, rel=1e-3)


def test_route_disagreement_raises_when_not_boundary(monkeypatch):
    # Forge a wildly wrong eigensolve; both margins are then far from the
    # boundary and the agreement check must refuse to pick a side.
    import qpair.classify as cls

    state = random_state(4)
    monkeypatch.setattr(
        cls.np.linalg, "eigvalsh", lambda m: np.array([-0.5, 0.1, 0.2, 1.2])
    )
    with pytest.raises(NumericalInconsistencyError, match="positivity"):
        is_state(state)


def test_separability_margins_match_reflected_validity():
    # The two invariant separability slacks are the first two positivity
    # slacks of the reflected state; check numerically on a random state.
    from qpair import global_invariants, local_invariants

    state = random_state(9)
    verdict = is_separable(state)
    reflected = reflect(state, "partial")
    glob = global_invariants(local_invariants(reflected))
    assert verdict.margins["reflected_quartic_value"] == pytest.approx(
        1.0 - (glob.A2 - glob.A1 + glob.A0), abs=1e-12
    )
    assert verdict.margins["reflected_quartic_slope"] == pytest.approx(
        4.0 - (2.0 * glob.A2 - glob.A1), abs=1e-12
    )


def test_every_public_tol_defaults_to_default_tol():
    import inspect

    import qpair
    from qpair.cli import main

    defaults = {}
    for name in qpair.__all__:
        obj = getattr(qpair, name)
        if inspect.isfunction(obj) and "tol" in inspect.signature(obj).parameters:
            defaults[name] = inspect.signature(obj).parameters["tol"].default
    for name, command in main.commands.items():
        for param in command.params:
            if param.name == "tol":
                defaults[f"cli {name} --tol"] = param.default
    assert {
        "from_density_matrix", "is_state", "is_entangled", "is_separable", "purity_rank",
        "pure_canonical", "rank2_canonical", "degree_werner_first", "degree_rank2",
        "ls_optimize", "degree", "cli check --tol", "cli degree --tol",
    } <= set(defaults)
    assert {name: default for name, default in defaults.items() if default != qpair.DEFAULT_TOL} == {}


def test_each_public_name_is_declared_once_in_its_module():
    # qpair re-publishes its modules' __all__, so each public name is written
    # once; `from qpair import *` binds exactly qpair.__all__
    import importlib
    from collections import Counter

    import qpair

    modules = {m: importlib.import_module(f"qpair.{m}") for m in (
        "errors", "state", "families", "quartic", "invariants", "classify", "canonical",
        "degree", "io")}
    counts = Counter(name for module in modules.values() for name in module.__all__)
    assert {name: n for name, n in counts.items() if n > 1} == {}
    assert sorted(qpair.__all__) == sorted(["__version__", "DEFAULT_TOL", *counts])
    star = {}
    exec("from qpair import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(qpair.__all__)
    assert [name for name in star if star[name] is not getattr(qpair, name)] == []
    assert [name for name in star if name.startswith("_")] == ["__version__"]
    # the package attribute is the function, not the module of the same name
    assert qpair.degree is modules["degree"].degree
