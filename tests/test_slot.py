"""The one-entry memo ("slot") of the quantities derived from a state.

A run of questions about one state derives each quantity once, and every
answer equals a fresh computation bit for bit: after other states, at a
second ``tol``, after an in-place change, across threads, and after a
caller edits a returned ``Verdict``.  Failures store nothing.
"""

import sys
import threading

import numpy as np
import pytest

import qpair.classify
import qpair.invariants
from qpair import (
    NumericalInconsistencyError,
    TwoQubitState,
    ValidityError,
    det_entanglement,
    diagonalize_cross,
    global_invariants,
    is_entangled,
    is_separable,
    is_state,
    local_invariants,
    purity_rank,
    random_state,
    spectrum,
    table_of_five,
    to_density_matrix,
    trace_modulus,
)

from conftest import count_calls, scaled_invalid_state


def _analyze(state, tol=1e-9, copy=False):
    """The questions an analysis report asks of one state, in its order.

    With ``copy`` each question gets its own equal copy of the state, so no
    answer comes from the slot: the reference for the slot's answers.
    """
    ask = _fresh if copy else (lambda st: st)
    valid = is_state(ask(state), tol)
    separable = is_separable(ask(state), tol)
    entangled = is_entangled(ask(state), tol)
    rank = purity_rank(ask(state), tol)
    loc = local_invariants(ask(state))
    return (
        valid, separable, entangled, rank, loc, global_invariants(loc),
        det_entanglement(ask(state)), trace_modulus(state.C), spectrum(ask(state)),
        diagonalize_cross(state), table_of_five(state),
    )


def _reference(state, tol=1e-9):
    return _bits(_analyze(state, tol, copy=True))


def _bits(answers):
    """Every answer as text that tells apart any two different floats, -0.0 included."""
    valid, separable, entangled, rank, loc, glob, det_e, tm, spec, form, table = answers
    return repr((
        valid.decision, valid.margins, separable.decision, separable.margins, entangled,
        rank, loc, glob, det_e, tm, spec.kappa.tobytes(), spec.eigenvalues.tobytes(),
        form.c.tobytes(), form.sign, table,
    ))


def _fresh(state):
    """An equal state that no slot can hold: a new object with its own arrays."""
    return TwoQubitState(s=state.s.copy(), t=state.t.copy(), C=state.C.copy())


def test_analysis_of_one_state_eigensolves_and_evaluates_invariants_once(monkeypatch):
    state = random_state(11)
    rho = to_density_matrix(state)
    passes = count_calls(monkeypatch, qpair.classify, "_positivity_pass")
    evaluations = count_calls(monkeypatch, qpair.invariants, "_evaluate_invariants")
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        solves.append(np.array_equal(m, rho))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    _analyze(state)
    assert len(passes) == 1
    assert len(evaluations) == 1
    # the density matrix once; the partial reflection and C^T C are other matrices
    assert solves.count(True) == 1
    assert len(solves) == 3


def test_interleaved_states_and_a_second_tol_answer_as_fresh_computations():
    a, b = random_state(12), random_state(13, target_rank=2)
    want = {a: _reference(a), b: _reference(b)}
    for state in (a, b, a, a, b, a):
        assert _bits(_analyze(state)) == want[state]
    assert _bits(_analyze(a, 1e-6)) == _reference(a, 1e-6)
    assert _bits(_analyze(a)) == want[a]


def test_positivity_is_kept_per_tol():
    # eigenvalues 1/4 + f (lam - 1/4) put a rank-3 state's zero at -1e-7
    base = random_state(5, target_rank=3)
    f = 1.0 + 4e-7
    state = TwoQubitState(s=f * base.s, t=f * base.t, C=f * base.C)
    for _ in range(2):
        assert is_state(state, 1e-6).decision
        assert not is_state(state, 1e-9).decision
        with pytest.raises(ValidityError):
            purity_rank(state, 1e-9)
        assert purity_rank(state, 1e-6).rank == 3


def test_an_in_place_change_is_seen():
    state = random_state(14)
    before = _bits(_analyze(state))
    state.C.flags.writeable = True
    state.C[0, 1] += 0.01
    state.C.flags.writeable = False
    after = _bits(_analyze(state))
    assert after != before
    assert after == _reference(state)


def test_editing_a_returned_verdict_leaves_the_next_answer_alone():
    state = random_state(15)
    for decide in (is_state, is_separable):
        first = decide(state)
        want = dict(first.margins)
        first.margins["min_eigenvalue"] = 99.0
        first.margins.clear()
        second = decide(state)
        assert second.margins == want
        assert second.margins is not first.margins


def test_an_equal_state_built_anew_is_solved_anew(monkeypatch):
    # the slot holds an equal-valued state, but a new object misses it, so
    # a forged eigensolve reaches the new state's rank cross-check
    state = random_state(2)
    purity_rank(state)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(NumericalInconsistencyError, match="rank 1"):
        purity_rank(_fresh(state))


def test_an_invalid_state_raises_on_every_call(rng):
    state = scaled_invalid_state(random_state(16), rng)
    for _ in range(3):
        assert not is_state(state).decision
        for decide in (is_separable, is_entangled, purity_rank):
            with pytest.raises(ValidityError):
                decide(state)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-9, float("inf")])
def test_a_bad_tol_raises_while_the_slot_holds_the_state(tol):
    state = random_state(17)
    _analyze(state)
    for decide in (is_state, is_separable, is_entangled, purity_rank):
        with pytest.raises(ValueError, match="tol"):
            decide(state, tol)


def test_a_failed_cross_check_stores_nothing(monkeypatch):
    # a forged eigensolve far from the invariant route raises, and each call
    # runs the positivity pass again instead of reading a stored failure
    state = random_state(18)
    passes = count_calls(monkeypatch, qpair.classify, "_positivity_pass")
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array([-0.5, 0.1, 0.2, 1.2]))
    for _ in range(2):
        with pytest.raises(NumericalInconsistencyError, match="positivity"):
            is_state(state)
    assert len(passes) == 2


def test_two_threads_give_the_serial_answers():
    states = (random_state(19), random_state(20, target_rank=3))
    serial = [_reference(state) for state in states]
    results = ([], [])
    start = threading.Barrier(2)

    def work(k):
        start.wait(timeout=60)
        for _ in range(150):
            results[k].append(_bits(_analyze(states[k])))

    # switch threads as often as the interpreter allows, so that the two
    # analyses interleave inside single questions
    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(2):
        assert results[k] == [serial[k]] * 150
