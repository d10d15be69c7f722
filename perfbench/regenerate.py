"""Regenerate the committed pools and reference answers in ``reference/``.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/regenerate.py [workload ...]

Recipes are drawn from a fixed pool seed, so regeneration at the same commit
reproduces the same files.  Every item is checked before it is kept: its
answers must not change under eight random local rotations (``analyze``,
``degree_closed``), its route must be the one its group stands for, and a
closed-form S must equal the closed form evaluated on the generating family
parameters.  Regenerate only where the program's answers are meant to change,
and say so in the change that does it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import qpair as qp  # noqa: E402
import workloads as wl  # noqa: E402

POOL_SEED = 20260417
ROOT = Path(__file__).resolve().parent.parent


def _seed(rng):
    return int(rng.integers(2**31))


def _sorted_c(rng):
    return sorted((float(v) for v in rng.uniform(0.0, 1.0, 3)), reverse=True)


def _rank2_params(rng):
    g1 = float(rng.uniform(0.3, 1.4))
    g2 = float(rng.uniform(0.1, g1 - 0.1))
    x = rng.standard_normal(3)
    x = x / np.linalg.norm(x) * rng.uniform(0.2, 0.95)
    return [g1, g2, float(x[0]), float(x[1]), float(x[2])]


def _werner_second_threshold(p):
    return 1.0 / (1.0 + 2.0 * math.sqrt(1.0 - p * p))


def _draw(rng, kind):
    """One recipe of a kind; ``kind`` may carry a verdict constraint."""
    if kind.startswith("random"):
        return {"kind": "random", "seed": _seed(rng), "rank": int(kind[-1])}
    if kind == "werner":
        x = float(rng.choice([rng.uniform(-0.3, 0.3), rng.uniform(0.37, 0.98)]))
        return {"kind": "werner", "x": x}
    if kind == "werner_entangled":
        return {"kind": "werner", "x": float(rng.uniform(0.37, 0.98))}
    if kind == "werner_separable":
        return {"kind": "werner", "x": float(rng.uniform(-0.3, 0.3))}
    if kind in ("werner_first", "werner_first_entangled", "werner_first_separable"):
        sign = {"werner_first": int(rng.choice([-1, 1])), "werner_first_entangled": -1}.get(kind, 1)
        return {"kind": "werner_first", "sign": sign, "c": _sorted_c(rng)}
    if kind in ("werner_second", "werner_second_entangled", "werner_second_separable"):
        p = float(rng.uniform(0.1, 0.9))
        edge = _werner_second_threshold(p)
        lo, hi = {
            "werner_second": (-0.3, 0.98),
            "werner_second_entangled": (edge + 0.02, 0.98),
            "werner_second_separable": (-0.3, edge - 0.02),
        }[kind]
        return {"kind": "werner_second", "x": float(rng.uniform(lo, hi)), "p": p}
    if kind == "generic_pure":
        return {"kind": "generic_pure", "p": float(rng.uniform(0.05, 0.95))}
    if kind == "rank_two":
        return {"kind": "rank_two", "params": _rank2_params(rng)}
    raise ValueError(kind)


def _valid(recipe):
    try:
        return wl.build_state(recipe)
    except qp.ValidityError:
        return None


def _rotations(state, rng):
    """The state under eight random local rotations."""
    return [wl.rotate(state, rng) for _ in range(8)]


def _environment():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def analyze_reference(rng):
    kinds = ["random1", "random2", "random3", "random4", "werner", "werner_first",
             "werner_second", "generic_pure", "rank_two"]
    groups = []
    for kind in kinds:
        items = []
        while len(items) < 16:
            recipe = _draw(rng, kind)
            state = _valid(recipe)
            if state is None:
                continue
            answer = wl.Analyze.summarize(wl.Analyze.run({"state": state}))
            checker = wl.Analyze(reference={"groups": [{"items": [{"answer": answer}]}]})
            ops = [{"group": 0, "item": 0, "state": s} for s in _rotations(state, rng)]
            if any(checker.check(op, checker.run(op)) for op in ops):
                continue
            items.append({"recipe": recipe, "answer": answer})
        groups.append({"name": kind, "items": items})
    return {"groups": groups}


def _closed_form(recipe, state):
    kind = recipe["kind"]
    if kind == "werner":
        return qp.degree_werner(recipe["x"])
    if kind == "werner_first":
        return qp.degree_werner_first(state)
    if kind == "werner_second":
        return qp.degree_werner_second(recipe["x"], recipe["p"]).S
    if kind == "generic_pure":
        return qp.degree_werner_second(1.0, recipe["p"]).S
    if kind == "rank_two":
        return qp.degree_rank2(qp.Rank2Params(*recipe["params"])).S
    raise ValueError(kind)


def degree_closed_reference(rng):
    # (group, route, recipe kinds, gate on |S - closed form|)
    groups_spec = [
        ("rank2", "ClosedFormRank2", ["rank_two"], wl.CLOSED_FORM_TOL),
        ("werner_first", "ClosedFormWernerFirst", ["werner_entangled", "werner_first_entangled"],
         wl.CLOSED_FORM_TOL),
        ("werner_second", "ClosedFormWernerSecond", ["werner_second_entangled"], wl.CLOSED_FORM_TOL),
        ("pure", "ClosedFormWernerSecond", ["generic_pure"], wl.PURE_CLOSED_FORM_TOL),
        ("separable", "SeparableShortcut",
         ["werner_separable", "werner_second_separable", "werner_first_separable"],
         wl.CLOSED_FORM_TOL),
    ]
    groups = []
    for name, route, kinds, tol in groups_spec:
        items = []
        while len(items) < 16:
            recipe = _draw(rng, kinds[len(items) % len(kinds)])
            state = _valid(recipe)
            if state is None:
                continue
            closed = float(_closed_form(recipe, state))
            results = [qp.degree(s) for s in [state] + _rotations(state, rng)]
            # a draw that lands in another route's region (a WernerFirst
            # member with Spur|C| <= 1 is separable) belongs to no group here
            if any(r.method != route for r in results):
                continue
            if any(abs(r.S - closed) > tol for r in results):
                raise RuntimeError(f"{recipe}: S off its closed form beyond {tol}")
            items.append({"recipe": recipe, "answer": {"method": route, "closed_form_S": closed}})
        groups.append({"name": name, "S_tol": tol, "items": items})
    return {"groups": groups}


def degree_optimizer_reference(rng):
    work = wl.DegreeOptimizer(reference={"groups": []})
    groups = []
    for rank, count in ((4, 8), (3, 4)):
        items = []
        while len(items) < count:
            recipe = _draw(rng, f"random{rank}")
            state = wl.build_state(recipe)
            if qp.is_separable(state).decision:
                continue
            res = work.run({"state": state})
            problem = wl.check_decomposition(state, res.decomposition, float(res.S))
            if res.method != "Optimizer" or problem:
                raise RuntimeError(f"{recipe}: {res.method} {problem}")
            items.append({"recipe": recipe, "answer": {"S": float(res.S)}})
            print(f"  rank {rank}: S = {res.S:.9f}", file=sys.stderr)
        groups.append({"name": f"rank{rank}", "items": items})
    micro = wl.micro_kernels()
    return {
        "groups": groups,
        "restarts": wl.DegreeOptimizer.RESTARTS,
        "seed": wl.DegreeOptimizer.SEED,
        "micro": {"checksum": micro["checksum"], "weight": micro["weight"]},
    }


def cli_cold_reference(rng):
    kinds = ["werner_entangled", "werner_first_entangled", "werner_second_entangled",
             "generic_pure", "rank_two", "random1", "random2", "random3", "random4"]
    files = []
    for kind in kinds * 2:
        while True:
            recipe = _draw(rng, kind)
            if recipe["kind"] != "random":
                recipe["rotation"] = _seed(rng)
            if _valid(recipe) is not None:
                break
        files.append(recipe)
    # entangled random states of rank 3 and 4 would take the Optimizer route,
    # about 37 s per call at the CLI's default restarts
    degree_ok = [
        k for k, r in enumerate(files)
        if not (r["kind"] == "random" and r["rank"] > 2
                and not qp.is_separable(wl.build_state(r)).decision)
    ]
    randoms = [["random", "--seed", str(_seed(rng) % 10000), "--rank", str(r)] for r in (1, 2, 3, 4)]
    randoms += [
        ["random", "--family", "werner", "--params", "0.7"],
        ["random", "--family", "generic_pure", "--params", "0.3"],
        ["random", "--family", "werner_second", "--params", "0.9,0.4"],
        ["random", "--family", "rank_two", "--params", "1.1,0.7,0.3,0.25,0.4"],
    ]
    groups = []
    for command in wl.CliCold.COMMANDS:
        if command == "random":
            calls = [{"args": args, "file": None} for args in randoms]
        else:
            eligible = degree_ok if command == "degree" else range(len(files))
            calls = [{"args": [command], "file": k} for k in eligible]
        groups.append({"name": command, "items": calls})
    ref = {"files": files, "groups": groups}

    workdir = ROOT / "perfbench" / "out" / "regenerate"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    work = wl.CliCold(reference=ref, workdir=workdir, python=sys.executable, env=env, cwd=ROOT)
    work.write_files()
    for g, group in enumerate(groups):
        for i, call in enumerate(group["items"]):
            code, stdout = work.run(work._op(g, i, None))
            if code != 0:
                raise RuntimeError(f"{call}: exit {code}: {stdout[:200]!r}")
            call["answer"] = {"code": code, "stdout": stdout.decode("utf-8")}
        print(f"  {group['name']}: {len(group['items'])} calls", file=sys.stderr)
    for path in work.paths:
        path.unlink()
    return ref


GENERATORS = {
    "analyze": analyze_reference,
    "degree_closed": degree_closed_reference,
    "degree_optimizer": degree_optimizer_reference,
    "cli_cold": cli_cold_reference,
}


def main(names):
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(GENERATORS):
        print(f"regenerating {name}", file=sys.stderr)
        # one pool seed per workload, so regenerating one leaves the others alone
        rng = np.random.default_rng([POOL_SEED, list(GENERATORS).index(name)])
        ref = GENERATORS[name](rng)
        ref = {"workload": name, "generated_with": _environment(), **ref}
        with open(wl.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
