"""scipy entry points, imported on first use.

Importing ``scipy.optimize`` costs about half a second, several times the
rest of ``import qpair``, and only the rank-2 frame polish in
``canonical._rank2_frame`` needs it.  So the import waits for the first
call, and CLI calls that never reach a rank-2 frame load no scipy at all.

``canonical`` and ``degree`` bind ``minimize`` as a module attribute, which
is the name ``perfbench/tracing.py`` rebinds to count solver calls; it
lives in this non-layer module so the tracer counts its time as solver
time.  ``degree`` keeps the binding only for the tracer, until the
benchmark stops reading it.
"""

from __future__ import annotations


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)
