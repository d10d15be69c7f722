"""Workload process of the qpair benchmark; started by ``run.py``.

Phases:
  setup    import qpair, generate the corpus, run one warm-up operation,
           print ``ready`` and exit (``run.py`` times this from process start)
  measure  the same set-up, then a closed loop with one caller for
           ``--seconds``, then answer checks; prints one JSON result line
  trace    the same set-up, then a fixed list of operations run untraced and
           then traced, then answer checks; prints per-layer figures

Answer checks and all bookkeeping run outside the timed regions.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import qpair
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

ROUTES = (
    "SeparableShortcut",
    "ClosedFormWernerFirst",
    "ClosedFormWernerSecond",
    "ClosedFormRank2",
    "Optimizer",
)
RANKS = ("rank3", "rank4")
# per-layer call counts and self times named in the benchmark's contract
CALLS_AND_SELF = (
    "classify.is_state",
    "classify.is_separable",
    "classify.purity_rank",
    "invariants.local_invariants",
    "invariants.spectrum",
    "invariants.trace_modulus",
    "invariants.det_entanglement",
)
KERNELS = ("kernels.neg_lambda_objective", "kernels.max_feasible_lambda", "kernels.lam_margin")
LAYERS = tuple(tracing.layer_name(m) for m in tracing.LAYER_MODULES) + ("linalg", "solver")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def environment():
    import numpy
    import scipy

    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qpair": qpair.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in blas},
    }


def make_workload(name):
    cls = wl.WORKLOADS[name]
    if cls is wl.CliCold:
        return cls(
            workdir=OUT / f"work-{os.getpid()}",
            python=sys.executable,
            env=dict(os.environ),
            cwd=ROOT,
        )
    return cls()


def safe_run(work, op):
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return work.run(op), None
    except Exception as exc:  # every failure is counted and reported
        return None, f"{type(exc).__name__}: {exc}"


def verify(work, records):
    """Check every answer; returns the list of failure messages."""
    failures = []
    for op, result, error in records:
        problem = error or work.check(op, result)
        if problem:
            failures.append(f"{op['group']}/{op['item']}: {problem}")
    return failures


def tail(latencies):
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            rank = min(n - 1, max(0, int(round(p / 100 * n)) - 1))
            return {"percentile": p, "value": ordered[rank], "samples": n}
    return None


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(work, ops, seconds):
    """Closed loop with one caller for ``seconds``, and at least until every
    kind of operation has run once (binds only for ``degree_optimizer``,
    whose eight pool states take 15-25 s on one core).

    Each answer is checked right after its operation, outside the timed
    call, so no result is kept and memory stays that of one operation.

    ``ops_per_s`` is the throughput of the workload's fixed mix: each kind
    of operation (``Workload.mix_key``) counts once, at its median time in
    the run.  On a shared host a burst of contention would move a mean over
    the run by its full size; the slow kinds (a rank-2 canonical form, a
    ``degree`` CLI call) still count in full, which ``latency_p50_s`` alone
    would not show.
    """
    failures, latencies = [], []
    by_kind = {}
    kinds = {work.mix_key(op) for op in ops}
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or len(by_kind) < len(kinds):
        op = ops[k % len(ops)]
        k += 1
        t0 = time.perf_counter()
        result, error = safe_run(work, op)
        latency = time.perf_counter() - t0
        latencies.append(latency)
        by_kind.setdefault(work.mix_key(op), []).append(latency)
        failures += verify(work, [(op, result, error)])
    return {
        "attempted": len(latencies),
        "failures": failures,
        "metrics": {
            "ops_per_s": len(by_kind) / sum(statistics.median(v) for v in by_kind.values()),
            "latency_p50_s": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb(work.name),
        },
        "latency_tail": tail(latencies),
    }


def traced_call(work, op, j, tracer):
    """Run one operation traced as operation ``j``.

    Returns (result, error, child trace or None, seconds).  In-process
    operations record into ``tracer``; a CLI call runs in a traced child
    process, timed from its start like an untraced call.
    """
    if work.name == "cli_cold":
        path = work.workdir / f"trace{j}.json"
        env = dict(work.env)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        argv = [work.python, "-c", "import tracing; tracing.cli_main()", str(path), *op["args"]]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=work.cwd, timeout=120)
        seconds = time.perf_counter() - t0
        with open(path, encoding="utf-8") as fh:
            export = json.load(fh)
        path.unlink()
        return (proc.returncode, proc.stdout), None, export, seconds
    tracer.install()
    try:
        tracer.op = j
        t0 = time.perf_counter()
        with tracer.span("op"):
            result, error = safe_run(work, op)
        seconds = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return result, error, None, seconds


def per_layer(work, ops, seed, env_for_import):
    """The traced run: each operation untraced, then traced; per-layer figures.

    Untraced and traced runs of one operation alternate, so a drift in
    machine speed does not show up as tracing overhead.
    """
    workload = work.name
    tracer = tracing.Tracer()
    untraced, traced, durations, traced_durations, exports = [], [], [], [], []
    for j, op in enumerate(ops):
        t0 = time.perf_counter()
        result, error = safe_run(work, op)
        durations.append(time.perf_counter() - t0)
        untraced.append((op, result, error))
        result, error, export, seconds = traced_call(work, op, j, tracer)
        traced.append((op, result, error))
        traced_durations.append(seconds)
        if export is not None:
            exports.append((export, j))
    stats, counters, spans = tracing.merge([(tracer.export(), None)] + exports)
    traced_total = sum(traced_durations)
    failures = verify(work, untraced) + verify(work, traced)
    failures += [f"trace: {p}" for p in tracing.nesting_errors(spans, stats, traced_total)]
    attempted = len(untraced) + len(traced)

    n = len(ops)
    tags = [work.tag_of(op) for op in ops]

    def total(name, field, tag=None):
        idx = {"calls": 0, "total_s": 1, "self_s": 2}[field]
        return sum(
            rec[idx] for (op, nm), rec in stats.items() if nm == name and (tag is None or tags[op] == tag)
        )

    def count(name, tag=None):
        return sum(v for (op, nm), v in counters.items() if nm == name and (tag is None or tags[op] == tag))

    m = {}
    timed = []  # (metric, span name, tag, ops) of every per-op time from spans

    def put(key, name, field, tag=None):
        k = max(1, tags.count(tag)) if tag else n
        m[key] = total(name, field, tag) / k
        if field != "calls":
            timed.append((key, name, tag, k))

    imports = [tracing.import_times(sys.executable, env_for_import, ROOT) for _ in range(3)]
    m["import.qpair_s"] = statistics.median(t["qpair"] for t in imports)
    m["import.scipy_optimize_s"] = statistics.median(t["scipy.optimize"] for t in imports)
    put("cli.run.self_s", "cli.run", "self_s")
    put("io.parse_state.total_s", "io.parse_state", "total_s")
    put("io.dump_json.total_s", "io.dump_json", "total_s")
    for name in CALLS_AND_SELF:
        put(f"{name}.calls", name, "calls")
        put(f"{name}.self_s", name, "self_s")
    put("quartic.real_quartic_roots.self_s", "quartic.real_quartic_roots", "self_s")
    for name in (
        "state.to_density_matrix",
        "families.construct_family",
        "families.rank2_family_params",
        "linalg.eigvalsh",
        "linalg.eigh",
        "canonical.rank2_canonical",
        "solver.minimize.canonical",
    ):
        put(f"{name}.calls", name, "calls")
    put("canonical.rank2_canonical.total_s", "canonical.rank2_canonical", "total_s")
    m["solver.minimize.canonical.nfev"] = count("solver.minimize.canonical") / n

    routes = [work.route_of(op, result) for op, result, _ in untraced]
    for route in ROUTES:
        times = [d for d, r in zip(durations, routes) if r == route]
        m[f"degree.route.{route}.count"] = len(times) / n
        m[f"degree.route.{route}.p50_s"] = statistics.median(times) if times else 0.0
    put("degree.degree_werner_second.self_s", "degree.degree_werner_second", "self_s")

    for rank in RANKS:
        k = max(1, tags.count(rank))
        put(f"degree.ls_optimize.total_s.{rank}", "degree.ls_optimize", "total_s", rank)
        for name in KERNELS:
            put(f"{name}.calls.{rank}", name, "calls", rank)
            put(f"{name}.self_s.{rank}", name, "self_s", rank)
        put(f"solver.minimize.degree.calls.{rank}", "solver.minimize.degree", "calls", rank)
        m[f"solver.minimize.degree.nfev.{rank}"] = count("solver.minimize.degree", rank) / k
        raised = starts = 0
        for (op, result, _), tag in zip(untraced, tags):
            if tag == rank and result is not None and result.decomposition is not None:
                history = result.decomposition.objective_history
                best = [b for _, b in history]
                raised += sum(1 for i, b in enumerate(best) if i == 0 or b > best[i - 1])
                starts += len(history)
        m[f"degree.ls_optimize.improving_start_ratio.{rank}"] = raised / starts if starts else 0.0

    micro = {"objective_eval_s": 0.0, "feasibility_solve_s": 0.0}
    if workload == "degree_optimizer":
        micro = wl.micro_kernels()
        want = work.ref["micro"]
        attempted += 2
        for key in ("checksum", "weight"):
            if abs(micro[key] - want[key]) > wl.INVARIANT_TOL:
                failures.append(f"micro {key}: got {micro[key]!r}, reference {want[key]!r}")
    m["kernels.micro.objective_eval_s"] = micro["objective_eval_s"]
    m["kernels.micro.feasibility_solve_s"] = micro["feasibility_solve_s"]

    overhead = traced_total - sum(durations)
    m["trace.overhead_s"] = overhead / n
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            rec[2] for (op, nm), rec in stats.items() if nm.startswith(layer + ".")
        ) / n

    # a figure whose share of the tracing overhead exceeds the figure itself
    # is flagged, not quoted as exact
    wrapped_calls = sum(rec[0] for (op, nm), rec in stats.items() if nm != "op")
    per_call = max(0.0, overhead) / wrapped_calls if wrapped_calls else 0.0
    flags = []
    for key, name, tag, k in timed:
        cost = per_call * total(name, "calls", tag) / k
        if cost > m[key]:
            flags.append(f"{key}: tracing overhead ~{cost:.3g} s/op exceeds the figure")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"columns": ["source", "id", "name", "start", "end", "parent", "op"], "spans": spans}, fh)
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": m,
        "flags": flags,
        "traced_ops": n,
        "traced_wall_s": traced_total,
        "untraced_s": sum(durations),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    import_env = dict(os.environ)
    work = make_workload(args.workload)
    try:
        if isinstance(work, wl.CliCold):
            work.write_files()
        ops = work.ops_for(args.seed, work.corpus_size)
        warm = work.warmup_op()
        result, error = safe_run(work, warm)
        warm_failures = verify(work, [(warm, result, error)])
        print("ready", flush=True)
        if args.phase == "setup":
            return 0
        if args.phase == "measure":
            out = measure(work, ops, args.seconds)
        else:
            out = per_layer(work, work.traced_for(args.seed), args.seed, import_env)
        out["attempted"] += 1
        out["failures"] = warm_failures + out["failures"]
        out["environment"] = environment()
        print(json.dumps(out), flush=True)
        return 0
    finally:
        if isinstance(work, wl.CliCold) and work.paths:
            for path in work.paths:
                path.unlink(missing_ok=True)
            work.workdir.rmdir()


if __name__ == "__main__":
    sys.exit(main())
