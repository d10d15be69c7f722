"""qpair benchmark: one command, four workloads, answer-checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for why each exists):
  cli_cold          one fresh interpreter per ``qpair.cli.run`` call
  analyze           in-process validity/invariants/spectrum report per state
  degree_closed     in-process degree() on rotated family members
  degree_optimizer  in-process degree() on the Optimizer route

With ``--trace 0`` the run reports the end-to-end metrics: ``ops_per_s``,
``latency_p50_s``, ``setup_s`` (median of three set-ups, each from
interpreter start through ``import qpair``, corpus generation and one warm-up
operation) and ``peak_rss_mb``; the summary lines add ``error_rate`` and
``latency_tail_s``.  With ``--trace 1`` it reports per-layer figures from a
traced pass (``tracing.py``) and the tracing overhead.  Every answer is
checked against ``reference/``.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full result, with an
environment block, goes to ``perfbench/out/``.

Every process this starts gets one BLAS thread and ``src`` as its only
``PYTHONPATH`` entry.  The program is the checkout's ``src/qpair``; without
it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_cold", "analyze", "degree_closed", "degree_optimizer")
SETUPS = 3
# a worker that runs longer than this is stopped and the run fails
WORKER_TIMEOUT_S = 170


def metric_units(trace):
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def start_worker(args, phase, env):
    """Start a worker; returns (process, seconds until it printed ``ready``)."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--phase", phase,
    ]
    t0 = time.perf_counter()
    # own process group, so stopping a worker also stops the CLI calls it runs
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, preexec_fn=os.setpgrp
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"worker ({phase}) failed during set-up")
    return proc, ready


def stop(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def finish_worker(proc):
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def run(args):
    env = child_env()
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            proc, ready = start_worker(args, "setup", env)
            finish_worker(proc)
            setups.append(ready)
    proc, ready = start_worker(args, "trace" if args.trace else "measure", env)
    setups.append(ready)
    lines = finish_worker(proc).strip().splitlines()
    result = json.loads(lines[-1])

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = metric_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    attempted = result["attempted"]
    failed = len(result["failures"])
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**result["environment"], "git_commit": git_commit()},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": result["failures"][:20],
        "setup_samples_s": setups,
        "metrics": metrics,
        **{k: v for k, v in result.items() if k not in ("metrics", "failures", "environment", "attempted")},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} environment={json.dumps(full['environment'])}")
    for key in sorted(metrics):
        print(f"{args.workload} {key} = {metrics[key]:.6g} {units[key]}")
    print(f"{args.workload} error_rate = {full['error_rate']:.6g} ({failed}/{attempted})")
    if not args.trace:
        t = result.get("latency_tail")
        if t:
            print(f"{args.workload} latency_tail_s = {t['value']:.6g} s (p{t['percentile']:g} of {t['samples']} samples)")
        else:
            print(f"{args.workload} latency_tail_s omitted: fewer than 20 samples")
    else:
        print(f"{args.workload} tracing overhead = {metrics['trace.overhead_s']:.6g} s/op "
              f"({result['traced_wall_s']:.4g} s traced vs {result['untraced_s']:.4g} s untraced)")
        for flag in result["flags"]:
            print(f"{args.workload} flagged {flag}")
    for failure in result["failures"][:5]:
        print(f"{args.workload} FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qpair" / "__init__.py").is_file():
        print(f"error: no qpair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
