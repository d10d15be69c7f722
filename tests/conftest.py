"""Shared helpers for the test suite."""

import sys

import numpy as np
import pytest
import scipy
from scipy.spatial.transform import Rotation

from qpair import TwoQubitState, to_density_matrix


# qpair's Nelder-Mead and matrix-to-rotation-vector kernels repeat scipy
# 1.17's floating-point steps. Older scipy (1.15 is the newest for Python
# 3.10) is not yet shown to take the same steps, so the bit-for-bit
# comparisons with it skip there rather than hold qpair to another reference.
scipy_reference = pytest.mark.skipif(
    tuple(int(part) for part in scipy.__version__.split(".")[:2]) < (1, 17),
    reason=f"bit-for-bit reference is scipy 1.17 or newer, not {scipy.__version__}",
)


def random_rotation(rng):
    """A Haar-ish random proper rotation (det +1)."""
    return Rotation.from_quat(rng.normal(size=4), scalar_first=False).as_matrix()


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every qpair module holding it.

    Several modules import by name, so the counting wrapper replaces the
    function wherever it is bound.  The one-entry memo of ``qpair.state``
    starts empty, so the count does not depend on what earlier tests left
    there.  Returns the list that grows by one entry per call.
    """
    import qpair.state

    monkeypatch.setattr(qpair.state, "_slot", (None, b"", {}))
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, held in list(sys.modules.items()):
        if module_name == "qpair" or module_name.startswith("qpair."):
            for attr, value in list(vars(held).items()):
                if value is original:
                    monkeypatch.setattr(held, attr, counted)
    return calls


def scaled_invalid_state(state, rng):
    """Over-scale the parameters of a valid state until positivity breaks.

    Scaling (s, t, C) by f mixes the state linearly with chaos:
    eigenvalues become 1/4 + f (lam - 1/4), crossing zero at
    f* = 1/(1 - 4 lam_min).  Any factor beyond f* gives a certainly
    invalid parameter set with margin at least (f/f* - 1)/4 below zero.
    """
    lam_min = float(np.linalg.eigvalsh(to_density_matrix(state))[0])
    f = (1.0 + rng.uniform(0.5, 4.0)) / (1.0 - 4.0 * min(lam_min, 0.2499))
    return TwoQubitState(s=f * state.s, t=f * state.t, C=f * state.C)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
