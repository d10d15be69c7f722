"""Out-of-program tracing for the qpair benchmark.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` wraps
every public function of each ``qpair`` layer module and rebinds the wrapper
wherever any ``qpair.*`` module (or the package itself) holds the original,
because several modules import by name.  It also wraps ``numpy.linalg``'s
``eigvalsh``/``eigh`` (every qpair module reaches them as
``np.linalg.<name>``) and ``scipy.optimize.minimize`` as bound in
``qpair.degree`` and ``qpair.canonical``.

Each wrapped call is a span: name, start, end, parent span, operation id.
Self time is a span's duration minus the time covered by its children, and is
accumulated online per (operation, name).  Calls in the eigenvalue hot path
(``HOT``) are aggregated the same way but not stored one by one: an optimizer
run makes millions of them, which would not fit in memory as span records.
Their time still counts as child time of the span that called them.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import re
import subprocess
import sys
import time

# qpair modules treated as layers; metric names use the module name without
# its leading underscore, because a metric name must start with a letter
LAYER_MODULES = (
    "state",
    "families",
    "quartic",
    "invariants",
    "classify",
    "canonical",
    "degree",
    "_kernels",
    "io",
    "cli",
)

HOT = frozenset(
    {
        "linalg.eigvalsh",
        "linalg.eigh",
        "kernels.lam_margin",
        "kernels.reflect4",
        "kernels.chart_amplitudes",
    }
)


def layer_name(module_short: str) -> str:
    return module_short.lstrip("_")


class Tracer:
    """Span recorder; one per process, installed around a traced pass."""

    def __init__(self):
        self.op = -1
        self._stack = []  # frames: [child_time, span_id or None]
        self._next_id = 0
        self.stats = {}  # (op, name) -> [calls, total_s, self_s]
        self.counters = {}  # (op, name) -> summed value (solver nfev)
        self.spans = []  # (id, name, start, end, parent_id, op)
        self._patches = []

    # -- recording -----------------------------------------------------

    def _open(self, keep):
        """Push a frame; returns (frame, parent span id)."""
        parent_id = None
        for frame in reversed(self._stack):
            if frame[1] is not None:
                parent_id = frame[1]
                break
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame, parent_id

    def _close(self, name, frame, parent_id, start, end):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        rec = self.stats.get((self.op, name))
        if rec is None:
            rec = self.stats[(self.op, name)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[0]
        if frame[1] is not None:
            self.spans.append((frame[1], name, start, end, parent_id, self.op))

    def _wrap(self, name, fn, on_result=None):
        keep = name not in HOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame, parent_id = self._open(keep)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, parent_id, start, clock())
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name):
        def add(result):
            key = (self.op, name)
            self.counters[key] = self.counters.get(key, 0) + int(result.nfev)

        return add

    @contextlib.contextmanager
    def span(self, name):
        """A harness-side span, e.g. around one whole operation."""
        frame, parent_id = self._open(True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, parent_id, start, time.perf_counter())

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's public functions, the eigensolvers and minimize."""
        import numpy

        modules = {
            short: importlib.import_module(f"qpair.{short}") for short in LAYER_MODULES
        }
        holders = [m for n, m in sorted(sys.modules.items()) if n == "qpair" or n.startswith("qpair.")]
        for short, module in modules.items():
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer_name(short)}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, name, wrapped)
        for attr in ("eigvalsh", "eigh"):
            self._set(numpy.linalg, attr, self._wrap(f"linalg.{attr}", getattr(numpy.linalg, attr)))
        for short in ("degree", "canonical"):
            name = f"solver.minimize.{short}"
            module = modules[short]
            self._set(module, "minimize", self._wrap(name, module.minimize, self._count(name)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- export --------------------------------------------------------

    def export(self):
        """Plain-JSON form of everything recorded."""
        return {
            "stats": [[op, name, *rec] for (op, name), rec in self.stats.items()],
            "counters": [[op, name, value] for (op, name), value in self.counters.items()],
            "spans": [list(span) for span in self.spans],
        }


def merge(exports):
    """Combine exported traces into ``(stats, counters, spans)``.

    ``exports`` is a list of (export, op) pairs; a non-None ``op`` replaces
    the export's own operation ids (a CLI child traces a single operation).
    """
    stats, counters, spans = {}, {}, []
    for source, (exp, op_id) in enumerate(exports):
        def remap(op):
            return op if op_id is None else op_id

        for op, name, calls, total, self_s in exp["stats"]:
            rec = stats.setdefault((remap(op), name), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for op, name, value in exp["counters"]:
            key = (remap(op), name)
            counters[key] = counters.get(key, 0) + value
        for span_id, name, start, end, parent, op in exp["spans"]:
            spans.append((source, span_id, name, start, end, parent, remap(op)))
    return stats, counters, spans


def nesting_errors(spans, stats, wall_s):
    """Consistency checks on a trace; returns a list of problems found.

    Every child span lies inside its parent, every self time is >= 0 (up to
    clock rounding), and the self times add up to no more than the wall time
    of the traced region.
    """
    problems = []
    by_id = {(s[0], s[1]): s for s in spans}
    for source, span_id, name, start, end, parent, _ in spans:
        if end < start:
            problems.append(f"span {name} ends before it starts")
        if parent is None:
            continue
        p = by_id.get((source, parent))
        if p is None:
            problems.append(f"span {name} has unknown parent {parent}")
        elif start < p[3] or end > p[4]:
            problems.append(f"span {name} lies outside its parent {p[2]}")
    total_self = 0.0
    for (op, name), (calls, total, self_s) in stats.items():
        if self_s < -1e-9 * max(1, calls):
            problems.append(f"negative self time for {name}: {self_s}")
        total_self += self_s
    if total_self > wall_s * (1 + 1e-9) + 1e-6:
        problems.append(f"self times sum to {total_self} s, beyond wall time {wall_s} s")
    return problems


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_times(python, env, cwd):
    """Cumulative import times (s) from ``-X importtime`` for ``import qpair.cli``.

    Returns {"qpair": ..., "scipy.optimize": ...}; the ``qpair.cli`` entry
    is the outermost one and already includes the package and its imports.
    """
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import qpair.cli"],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
        check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            cumulative.setdefault(m.group(4), int(m.group(2)) * 1e-6)
    return {
        "qpair": cumulative.get("qpair.cli", 0.0),
        "scipy.optimize": cumulative.get("scipy.optimize", 0.0),
    }


def cli_main():
    """Run one traced CLI call: ``python -c <boot> TRACE_OUT <qpair args>``.

    The trace of the call (one operation, id 0) is written to TRACE_OUT as
    JSON; the exit code is the CLI's own.
    """
    out = sys.argv.pop(1)
    import qpair.cli

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    code = 0
    try:
        with tracer.span("op"):
            qpair.cli.run()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    sys.exit(code)
