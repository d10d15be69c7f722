"""Workloads of the qpair benchmark: inputs, operations and answer checks.

Each workload draws its inputs from a committed pool (``reference/*.json``).
A pool item is a recipe (a family member or a ``random_state`` seed) plus the
answer qpair gave for it when the pool was generated.  ``--seed`` picks the
items of a run and, for the in-process workloads that are invariant under
local rotations (``analyze``, ``degree_closed``), draws a fresh random local
rotation for every operation, so each seed runs states never seen before
while every answer still has a committed reference.  Operations cycle over
the pool's groups in a fixed order, so every run has the same mix of input
kinds and reaches every group.

A pool item is kept only if its answers pass these checks under eight random
local rotations when the pool is generated, so rounding from a rotation does
not flip a verdict (``regenerate.py``).
"""

from __future__ import annotations

import inspect
import json
import math
import subprocess
from pathlib import Path

import numpy as np

import qpair as qp

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# below this |det C| the sign of a signed diagonalization is rounding
_SIGN_DET = 1e-6
# gates of the answer checks
SPECTRUM_TOL = 1e-9
INVARIANT_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
# entangled pure states reach ClosedFormWernerSecond at x = 1, where the q0
# feasible set pinches to one point: degree_werner_second(1, p) returns S up
# to 3.6e-8 instead of 0, and degree() on rotated members up to 1.2e-8.
# Gated at the 1e-7 agreement ROADMAP aim 3 sets until that is fixed.
PURE_CLOSED_FORM_TOL = 1e-7
OPTIMIZER_S_TOL = 1e-8
DECOMPOSITION_TOL = 1e-9

# the command line a CLI user runs; no console script is installable offline
CLI_BOOT = "from qpair.cli import run; run()"

# ---------------------------------------------------------------------------
# inputs


def rotation(rng):
    """Uniformly random proper 3x3 rotation (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def build_state(recipe):
    """The TwoQubitState a pool recipe describes, built through qpair."""
    kind = recipe["kind"]
    if kind == "random":
        state = qp.random_state(recipe["seed"], target_rank=recipe["rank"])
    elif kind == "werner":
        state = qp.construct_family(qp.Werner(recipe["x"]))
    elif kind == "werner_first":
        state = qp.construct_family(qp.WernerFirst(recipe["sign"], *recipe["c"]))
    elif kind == "werner_second":
        state = qp.construct_family(qp.WernerSecond(recipe["x"], recipe["p"]))
    elif kind == "generic_pure":
        state = qp.construct_family(qp.GenericPure(recipe["p"]))
    elif kind == "rank_two":
        state = qp.construct_family(qp.RankTwo(qp.Rank2Params(*recipe["params"])))
    else:
        raise ValueError(f"unknown recipe kind {kind!r}")
    if "rotation" in recipe:
        state = rotate(state, np.random.default_rng(recipe["rotation"]))
    return state


def rotate(state, rng):
    return qp.apply_local(state, rotation(rng), rotation(rng))


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def density(state):
    """Density matrix from (s, t, C) by explicit Kronecker products.

    Independent of qpair's own expansion, so answer checks do not reuse the
    code they check.
    """
    paulis = [
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1.0, -1.0]),
    ]
    coeff = np.zeros((4, 4))
    coeff[0, 0] = 1.0
    coeff[1:, 0] = state.s
    coeff[0, 1:] = state.t
    coeff[1:, 1:] = state.C
    rho = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            if coeff[i, j]:
                rho += coeff[i, j] * np.kron(paulis[i], paulis[j])
    return rho / 4.0


def partial_transpose(rho):
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def _close(got, want, tol):
    return float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float)))) <= tol


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One named workload: pool, corpus for a seed, operation, answer check.

    ``ops_for(seed, count)`` returns operation records (dicts); ``run(op)``
    performs one operation through the public qpair API and returns its raw
    result; ``check(op, result)`` returns None when the answer matches the
    reference, else a message.  Checks run outside every timed region.
    """

    name = ""
    corpus_size = 0
    traced_ops = 0

    def __init__(self, reference=None):
        self.ref = load_reference(self.name) if reference is None else reference
        self.groups = self.ref["groups"]

    def ops_for(self, seed, count):
        """Round-robin over groups; item and local rotation drawn from seed."""
        rng = np.random.default_rng(seed)
        ops = []
        for k in range(count):
            g = k % len(self.groups)
            i = int(rng.integers(len(self.groups[g]["items"])))
            ops.append(self._op(g, i, rng))
        return ops

    def _op(self, g, i, rng):
        item = self.groups[g]["items"][i]
        state = build_state(item["recipe"])
        if rng is not None:
            state = rotate(state, rng)
        return {"group": g, "item": i, "state": state}

    def traced_for(self, seed):
        """The fixed-size operation list of the traced run."""
        return self.ops_for(seed, self.traced_ops)

    def warmup_op(self):
        """A fixed first operation, the same for every seed."""
        return self._op(0, 0, None)

    def mix_key(self, op):
        """The kind of an operation; the timed loop cycles over the kinds."""
        return op["group"]

    def route_of(self, op, result):
        """The degree() route an operation took, or None."""
        return getattr(result, "method", None)

    def tag_of(self, op):
        """Suffix for metrics split by input kind, or None."""
        return None

    def answer(self, op):
        return self.ref["groups"][op["group"]]["items"][op["item"]]["answer"]


class Analyze(Workload):
    """The calls a classify + invariants + expectations report makes."""

    name = "analyze"
    corpus_size = 1152
    traced_ops = 90

    @staticmethod
    def run(op):
        state = op["state"]
        valid = qp.is_state(state)
        separable = qp.is_separable(state)
        entangled = qp.is_entangled(state)
        rank = qp.purity_rank(state)
        loc = qp.local_invariants(state)
        return (
            valid,
            separable,
            entangled,
            rank,
            loc,
            qp.global_invariants(loc),
            qp.det_entanglement(state),
            qp.trace_modulus(state.C),
            qp.spectrum(state),
            qp.diagonalize_cross(state),
            qp.table_of_five(state),
        )

    @staticmethod
    def summarize(result):
        """Rotation-invariant answer record (what the reference stores)."""
        valid, sep, ent, rank, loc, glob, det_e, tm, spec, form, _ = result
        return {
            "valid": bool(valid.decision),
            "separable": bool(sep.decision),
            "entangled": bool(ent),
            "rank": int(rank.rank),
            "pure": bool(rank.pure),
            "local": [float(getattr(loc, f)) for f in _LOCAL_FIELDS],
            "global": [float(glob.A2), float(glob.A1), float(glob.A0)],
            "det_E": float(det_e),
            "trace_modulus": float(tm),
            "kappa": [float(k) for k in spec.kappa],
            "eigenvalues": [float(e) for e in spec.eigenvalues],
            "c": [float(c) for c in form.c],
            "sign": int(form.sign),
        }

    def check(self, op, result):
        got = self.summarize(result)
        want = self.answer(op)
        for key in ("valid", "separable", "entangled", "rank", "pure"):
            if got[key] != want[key]:
                return f"{key}: got {got[key]}, reference {want[key]}"
        for key, tol in (
            ("eigenvalues", SPECTRUM_TOL),
            ("kappa", SPECTRUM_TOL),
            ("local", INVARIANT_TOL),
            ("global", INVARIANT_TOL),
            ("det_E", INVARIANT_TOL),
            ("trace_modulus", INVARIANT_TOL),
            ("c", INVARIANT_TOL),
        ):
            if not _close(got[key], want[key], tol):
                return f"{key}: got {got[key]}, reference {want[key]}"
        state = op["state"]
        if abs(float(np.linalg.det(state.C))) > _SIGN_DET and got["sign"] != want["sign"]:
            return f"sign: got {got['sign']}, reference {want['sign']}"
        form = result[9]
        rebuilt = form.sign * form.o_ee @ np.diag(form.c) @ form.o_nn
        if not _close(rebuilt, state.C, INVARIANT_TOL):
            return "diagonalize_cross factors do not reproduce C"
        for o in (form.o_ee, form.o_nn):
            if not _close(o @ o.T, np.eye(3), INVARIANT_TOL) or np.linalg.det(o) < 0:
                return "diagonalize_cross factor is not a proper rotation"
        values = {name: v for _, entries in result[10].rows for name, v in entries}
        axes = "xyz"
        expected = {f"sigma_{a}": state.s[i] for i, a in enumerate(axes)}
        expected.update({f"tau_{a}": state.t[i] for i, a in enumerate(axes)})
        expected.update(
            {f"sigma_{a} tau_{b}": state.C[i, j] for i, a in enumerate(axes) for j, b in enumerate(axes)}
        )
        if values != expected:
            return "table_of_five does not reproduce the 15 parameters"
        return None


_LOCAL_FIELDS = ("a2_1", "a2_2", "a2_3", "a3_1", "a3_2", "a4_1", "a4_2", "a4_3", "a4_4")


class DegreeClosed(Workload):
    """degree() on rotated family members, one group per closed route."""

    name = "degree_closed"
    corpus_size = 250
    traced_ops = 25

    @staticmethod
    def run(op):
        return qp.degree(op["state"])

    def check(self, op, result):
        want = self.answer(op)
        if result.method != want["method"]:
            return f"route: got {result.method}, reference {want['method']}"
        tol = self.groups[op["group"]]["S_tol"]
        if abs(float(result.S) - want["closed_form_S"]) > tol:
            return f"S: got {result.S!r}, closed form {want['closed_form_S']!r}"
        return None


def degree_knobs(restarts, seed):
    """``restarts``/``seed`` for degree(), passed only while it accepts them."""
    params = inspect.signature(qp.degree).parameters
    knobs = {"restarts": restarts, "seed": seed}
    return {k: v for k, v in knobs.items() if k in params}


class DegreeOptimizer(Workload):
    """degree() on entangled random states that take the Optimizer route.

    Group 0 holds rank-4 states (single-pass search), group 1 rank-3 states
    (explore + certify passes).  The timed loop runs rank 4 only: a rank-3
    state costs 5-20 s, so a run of the benchmark's length would hold one or
    two of them and its median could not be steady.  The traced pass runs
    one state of each rank.

    A rank-4 call costs 1.6-4.7 s, so a run holds about eight.  The loop
    takes the eight pool states in a seeded order, so every run measures
    nearly the whole pool and its median does not hinge on which states the
    seed happened to draw.
    """

    name = "degree_optimizer"
    corpus_size = 8
    traced_ops = 2
    RESTARTS = 2
    SEED = 0

    def ops_for(self, seed, count):
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.groups[0]["items"]))
        return [self._op(0, int(i), None) for i in order[:count]]

    def traced_for(self, seed):
        rng = np.random.default_rng(seed)
        return [
            self._op(g, int(rng.integers(len(self.groups[g]["items"]))), None)
            for g in (1, 0)
        ]

    def run(self, op):
        return qp.degree(op["state"], **degree_knobs(self.RESTARTS, self.SEED))

    def tag_of(self, op):
        return self.groups[op["group"]]["name"]

    def mix_key(self, op):
        # one group in the timed loop; its states differ threefold in cost
        return op["item"]

    def check(self, op, result):
        want = self.answer(op)
        if result.method != "Optimizer":
            return f"route: got {result.method}, reference Optimizer"
        S = float(result.S)
        if S < want["S"] - OPTIMIZER_S_TOL:
            return f"S: got {S!r}, below reference {want['S']!r}"
        return check_decomposition(op["state"], result.decomposition, S)


def check_decomposition(state, dec, S):
    """Verify lambda * sep + (1 - lambda) |psi><psi| = rho with sep PPT."""
    if dec is None or dec.pure is None:
        return "no decomposition to certify S"
    lam = float(dec.lambda_)
    if lam != S:
        return f"decomposition weight {lam!r} differs from S {S!r}"
    sep = density(dec.sep)
    psi = np.asarray(dec.pure, dtype=complex)
    if abs(float(np.linalg.norm(psi)) - 1.0) > DECOMPOSITION_TOL:
        return "pure part is not normalized"
    if float(np.linalg.eigvalsh(sep)[0]) < -DECOMPOSITION_TOL:
        return "separable part is not positive"
    if float(np.linalg.eigvalsh(partial_transpose(sep))[0]) < -DECOMPOSITION_TOL:
        return "separable part is not PPT"
    rebuilt = lam * sep + (1.0 - lam) * np.outer(psi, psi.conj())
    if float(np.max(np.abs(rebuilt - density(state)))) > DECOMPOSITION_TOL:
        return "decomposition does not reproduce the state"
    return None


class CliCold(Workload):
    """One fresh interpreter per call of ``qpair.cli.run``.

    Group g holds the calls of command ``COMMANDS[g]``; a call is an argument
    list plus, for commands that read a state, the index of a StateFile of
    the pool's ``files``.  Reports are deterministic by contract, so the
    check is byte-for-byte on stdout plus the exit code.
    """

    name = "cli_cold"
    COMMANDS = ("check", "invariants", "classify", "canonical", "expectations", "degree", "random")
    corpus_size = 70
    traced_ops = 7

    def __init__(self, reference=None, workdir=None, python=None, env=None, cwd=None):
        super().__init__(reference)
        self.workdir = workdir
        self.python = python
        self.env = env
        self.cwd = cwd
        self.paths = None

    def write_files(self):
        """Corpus generation: build every pool StateFile through qpair."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for k, recipe in enumerate(self.ref["files"]):
            path = self.workdir / f"state{k}.json"
            path.write_text(qp.serialize_state(build_state(recipe)), encoding="utf-8")
            self.paths.append(path)

    def _op(self, g, i, rng):
        call = self.groups[g]["items"][i]
        args = list(call["args"])
        if call.get("file") is not None:
            args.append(str(self.paths[call["file"]]))
        return {"group": g, "item": i, "args": args}

    def run(self, op):
        proc = subprocess.run(
            [self.python, "-c", CLI_BOOT, *op["args"]],
            capture_output=True,
            env=self.env,
            cwd=self.cwd,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def route_of(self, op, result):
        code, stdout = result
        if op["args"][0] != "degree" or code != 0:
            return None
        return json.loads(stdout)["report"]["method"]

    def check(self, op, result):
        want = self.answer(op)
        code, stdout = result
        if code != want["code"]:
            return f"exit code {code}, reference {want['code']}"
        if stdout != want["stdout"].encode("utf-8"):
            return f"stdout differs from the reference ({len(stdout)} bytes)"
        return None


WORKLOADS = {w.name: w for w in (CliCold, Analyze, DegreeClosed, DegreeOptimizer)}


# ---------------------------------------------------------------------------
# kernel micro-workloads (the two of benchmarks/compare_backends.py)


def micro_kernels():
    """Time one objective evaluation and one single-weight feasibility solve.

    Returns {"objective_eval_s", "feasibility_solve_s", "checksum", "weight"};
    the last two are the computed values, checked against the reference.
    """
    import time

    from qpair import _kernels

    rho8 = qp.to_density_matrix(qp.construct_family(qp.Werner(0.8)))
    rrho8 = _kernels.reflect4(rho8)
    eye4 = np.eye(4, dtype=complex)
    rng = np.random.default_rng(0)
    thetas = [
        np.concatenate([rng.uniform(0.0, np.pi / 2, 3), rng.uniform(-np.pi, np.pi, 3)])
        for _ in range(15)
    ]
    # perturbed singlet angles keep some evaluations on the feasible branch
    singlet_th = np.array([np.pi / 2, np.pi / 4, 0.0, 0.0, np.pi, 0.0])
    thetas += [singlet_th + rng.normal(scale=0.05, size=6) for _ in range(5)]
    start = time.perf_counter()
    checksum = 0.0
    for th in thetas:
        checksum += float(_kernels.neg_lambda_objective(th, eye4, rho8, rrho8, 1e-10, 1e-6))
    objective_s = (time.perf_counter() - start) / len(thetas)

    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    proj = qp.pure_projector(singlet)
    rproj = _kernels.reflect4(proj)
    rho6 = qp.to_density_matrix(qp.construct_family(qp.Werner(0.6)))
    rrho6 = _kernels.reflect4(rho6)
    repeats = 50
    start = time.perf_counter()
    for _ in range(repeats):
        weight = float(_kernels.max_feasible_lambda(rho6, rrho6, proj, rproj, 1e-10, 1e-8))
    solve_s = (time.perf_counter() - start) / repeats
    return {
        "objective_eval_s": objective_s,
        "feasibility_solve_s": solve_s,
        "checksum": checksum,
        "weight": weight,
    }
