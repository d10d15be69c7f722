"""Self-test of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench/test_harness.py

It checks that a perturbed reference answer is reported as a failed
operation, that traced spans nest, that exact counts repeat, that a seed not
used while the harness was written still reaches every route, and that the
command keeps its output contract.  The optimizer case takes 10-30 s.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

FRESH_SEED = 987654321


def _perturbed(work_cls, edit, **kwargs):
    ref = copy.deepcopy(wl.load_reference(work_cls.name))
    edit(ref)
    return work_cls(reference=ref, **kwargs)


def _shift_closed_form(ref):
    ref["groups"][0]["items"][0]["answer"]["closed_form_S"] += 1e-6


def _swap_route(ref):
    ref["groups"][0]["items"][0]["answer"]["method"] = "ClosedFormWernerFirst"


def _flip_separable(ref):
    answer = ref["groups"][0]["items"][0]["answer"]
    answer["separable"] = not answer["separable"]


@pytest.mark.parametrize("edit", [_shift_closed_form, _swap_route])
def test_perturbed_degree_reference_fails(edit):
    work = wl.DegreeClosed()
    op = work.warmup_op()
    result = work.run(op)
    assert work.check(op, result) is None
    assert _perturbed(wl.DegreeClosed, edit).check(op, result) is not None


def test_perturbed_analyze_reference_fails():
    work = wl.Analyze()
    op = work.warmup_op()
    result = work.run(op)
    assert work.check(op, result) is None
    assert _perturbed(wl.Analyze, _flip_separable).check(op, result) is not None


def test_perturbed_optimizer_reference_fails():
    work = wl.DegreeOptimizer()
    op = work.warmup_op()
    result = work.run(op)
    assert work.check(op, result) is None

    def raise_s(ref):
        ref["groups"][0]["items"][0]["answer"]["S"] += 1e-6

    assert _perturbed(wl.DegreeOptimizer, raise_s).check(op, result) is not None


def test_perturbed_cli_byte_fails():
    workdir = HERE / "out" / f"selftest-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    kwargs = {"workdir": workdir, "python": sys.executable, "env": env, "cwd": ROOT}

    def change_byte(ref):
        call = ref["groups"][0]["items"][0]["answer"]
        text = call["stdout"]
        call["stdout"] = text[:10] + ("0" if text[10] != "0" else "1") + text[11:]

    work = wl.CliCold(**kwargs)
    bad = _perturbed(wl.CliCold, change_byte, **kwargs)
    try:
        work.write_files()
        bad.paths = work.paths
        op = work.warmup_op()
        result = work.run(op)
        assert work.check(op, result) is None
        assert bad.check(op, result) is not None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _trace(work, ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for j, op in enumerate(ops):
            tracer.op = j
            with tracer.span("op"):
                work.run(op)
    finally:
        tracer.uninstall()
    wall = sum(rec[1] for (op, name), rec in tracer.stats.items() if name == "op")
    return tracing.merge([(tracer.export(), None)]), wall


@pytest.mark.parametrize("work_cls", [wl.Analyze, wl.DegreeClosed])
def test_traced_spans_nest_and_counts_repeat(work_cls):
    work = work_cls()
    ops = work.ops_for(FRESH_SEED, 10)
    (stats, counters, spans), wall = _trace(work, ops)
    assert tracing.nesting_errors(spans, stats, wall) == []
    assert all(rec[2] >= -1e-9 for rec in stats.values())
    assert sum(rec[2] for rec in stats.values()) <= wall * (1 + 1e-9)
    assert spans and any(s[5] is not None for s in spans)

    (again, counters_again, _), _ = _trace(work, ops)
    calls = {key: rec[0] for key, rec in stats.items()}
    assert calls == {key: rec[0] for key, rec in again.items()}
    assert counters == counters_again

    # the check has teeth: a child ending after its parent is reported
    source, span_id, name, start, end, parent, op = next(s for s in spans if s[5] is not None)
    broken = [s for s in spans if s[1] != span_id] + [(source, span_id, name, start, end + 10.0, parent, op)]
    assert tracing.nesting_errors(broken, stats, wall)


def test_fresh_seed_reaches_every_closed_route():
    work = wl.DegreeClosed()
    ops = work.ops_for(FRESH_SEED, len(work.groups))
    results = [work.run(op) for op in ops]
    assert all(work.check(op, r) is None for op, r in zip(ops, results))
    routes = {r.method for r in results}
    assert routes == {
        "SeparableShortcut",
        "ClosedFormWernerFirst",
        "ClosedFormWernerSecond",
        "ClosedFormRank2",
    }
    pure = [r for op, r in zip(ops, results) if work.groups[op["group"]]["name"] == "pure"]
    assert pure and all(r.family_data["x"] == pytest.approx(1.0) for r in pure)


def test_fresh_seed_reaches_optimizer_at_both_ranks():
    work = wl.DegreeOptimizer()
    ops = work.traced_for(FRESH_SEED)
    assert sorted(work.tag_of(op) for op in ops) == ["rank3", "rank4"]
    for op in ops:
        result = work.run(op)
        assert result.method == "Optimizer"
        assert work.check(op, result) is None


def _run_bench(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_command_output_contract():
    proc = _run_bench(ROOT, "--workload", "analyze", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(last["metrics"]) == sorted(m["name"] for m in bench["end_to_end"])


def test_command_fails_without_program():
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run_bench(bare, "--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
