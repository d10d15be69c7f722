"""Named state families and their constructors.

Each family is a small parameter record; ``construct_family`` turns it into
a ``TwoQubitState``.  The rank-2 family comes with its own operator basis
(``sigma_basis``), four Hermitian operators on the supporting two-dimensional
subspace that obey the Pauli algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._tolerances import DEFAULT_TOL, ROUNDING_TOL
from .errors import ValidityError
from .state import TENSOR, TwoQubitState, from_density_matrix, to_density_matrix

__all__ = [
    "Chaotic",
    "Bell",
    "GenericPure",
    "Werner",
    "WernerFirst",
    "WernerSecond",
    "Rank2Params",
    "RankTwo",
    "construct_family",
    "sigma_basis",
    "rank2_family_params",
    "check_rotation",
]

# allowed deviation of a rotation matrix from orthogonality and unit determinant
_ROTATION_TOL = 1e-10


def check_rotation(o, name: str = "rotation") -> np.ndarray:
    """Validate a proper rotation matrix and return it as a float array."""
    o = np.asarray(o, dtype=np.float64)
    if o.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got {o.shape}")
    residual = np.max(np.abs(o.T @ o - np.eye(3)))
    if not residual <= _ROTATION_TOL:  # a NaN residual fails too
        raise ValueError(
            f"{name} is not orthogonal: max |O^T O - 1| = {residual:.3e} > {_ROTATION_TOL:.1e}"
        )
    det = np.linalg.det(o)
    if abs(det - 1.0) > _ROTATION_TOL:
        raise ValueError(f"{name} must have determinant +1, got {det:.17g}")
    return o


def _identity3():
    return np.eye(3)


@dataclass(frozen=True, eq=False)
class Chaotic:
    """The maximally mixed state, s = t = 0, C = 0."""


@dataclass(frozen=True, eq=False)
class Bell:
    """Maximally entangled pure state: s = t = 0, C = -o_en."""

    o_en: np.ndarray = field(default_factory=_identity3)

    def __post_init__(self):
        object.__setattr__(self, "o_en", check_rotation(self.o_en, "o_en"))


@dataclass(frozen=True, eq=False)
class GenericPure:
    """Pure state with Schmidt parameter p in [0, 1].

    Realized on fixed axes: s = (p, 0, 0), t = (-p, 0, 0),
    C = diag(-1, -q, -q) with q = sqrt(1 - p^2).  p = 0 is a Bell state,
    p = 1 a product state; every pure state is locally equivalent to one
    of these.
    """

    p: float

    def __post_init__(self):
        if not -ROUNDING_TOL <= self.p <= 1.0 + ROUNDING_TOL:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    @property
    def q(self) -> float:
        return math.sqrt(max(0.0, 1.0 - min(1.0, self.p) ** 2))


@dataclass(frozen=True, eq=False)
class Werner:
    """Mixture of a Bell state (weight x) with the chaotic state.

    Valid for -1/3 <= x <= 1; entangled for |x| > 0 and separable up to
    x = 1/3.
    """

    x: float
    o_en: np.ndarray = field(default_factory=_identity3)

    def __post_init__(self):
        if not -1.0 / 3.0 - ROUNDING_TOL <= self.x <= 1.0 + ROUNDING_TOL:
            raise ValueError(f"x must lie in [-1/3, 1], got {self.x}")
        object.__setattr__(self, "o_en", check_rotation(self.o_en, "o_en"))


@dataclass(frozen=True, eq=False)
class WernerFirst:
    """First Werner generalization: s = t = 0, C = sign * o_en * diag(c).

    The characteristic values obey c1 >= c2 >= c3 >= 0; positivity of the
    resulting operator is checked at construction time.
    """

    sign: int
    c1: float
    c2: float
    c3: float
    o_en: np.ndarray = field(default_factory=_identity3)

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if not self.c1 + ROUNDING_TOL >= self.c2 >= self.c3 - ROUNDING_TOL or self.c3 < -ROUNDING_TOL:
            raise ValueError(
                f"characteristic values must satisfy c1 >= c2 >= c3 >= 0, "
                f"got ({self.c1}, {self.c2}, {self.c3})"
            )
        object.__setattr__(self, "o_en", check_rotation(self.o_en, "o_en"))


@dataclass(frozen=True, eq=False)
class WernerSecond:
    """Second Werner generalization: chaos mixed with a generic pure state.

    The state is (1 - x) / 4 + x |pure(p)><pure(p)| with 0 < p < 1 and
    -1/3 <= x <= 1; its spectrum is (1 + 3x)/4 once and (1 - x)/4 threefold.
    """

    x: float
    p: float

    def __post_init__(self):
        if not -1.0 / 3.0 - ROUNDING_TOL <= self.x <= 1.0 + ROUNDING_TOL:
            raise ValueError(f"x must lie in [-1/3, 1], got {self.x}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly in (0, 1), got {self.p}")

    @property
    def q(self) -> float:
        return math.sqrt(1.0 - self.p**2)


@dataclass(frozen=True)
class Rank2Params:
    """Generic-form parameters of a rank-2 state.

    The angles fix the supporting two-dimensional subspace, the coefficient
    vector (x1, x2, x3) the position inside it; pi/2 >= gamma1 >= gamma2 >= 0
    and x1^2 + x2^2 + x3^2 <= 1.
    """

    gamma1: float
    gamma2: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        if not math.pi / 2 + ROUNDING_TOL >= self.gamma1 >= self.gamma2 >= -ROUNDING_TOL:
            raise ValueError(
                f"angles must satisfy pi/2 >= gamma1 >= gamma2 >= 0, "
                f"got ({self.gamma1}, {self.gamma2})"
            )
        if not self.x_sq <= 1.0 + DEFAULT_TOL:  # a NaN coefficient fails too
            raise ValueError(f"x1^2 + x2^2 + x3^2 = {self.x_sq:.17g} exceeds 1")

    @property
    def x_sq(self) -> float:
        return self.x1**2 + self.x2**2 + self.x3**2

    @property
    def x(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])


@dataclass(frozen=True)
class RankTwo:
    """A state of rank at most 2 in its generic form."""

    params: Rank2Params


def sigma_basis(gamma1: float, gamma2: float) -> np.ndarray:
    """The four subspace Pauli operators for given subspace angles.

    Returns an array of shape (4, 4, 4): Sigma_0 (the projector onto the
    supporting subspace, trace 2) followed by Sigma_1, Sigma_2, Sigma_3
    (traceless), satisfying Sigma_0 Sigma_k = Sigma_k and
    Sigma_j Sigma_k = delta_jk Sigma_0 + i sum_l eps_jkl Sigma_l.
    """
    if not math.pi / 2 + ROUNDING_TOL >= gamma1 >= gamma2 >= -ROUNDING_TOL:
        raise ValueError(
            f"angles must satisfy pi/2 >= gamma1 >= gamma2 >= 0, "
            f"got ({gamma1}, {gamma2})"
        )
    s1, c1 = math.sin(gamma1), math.cos(gamma1)
    s2, c2 = math.sin(gamma2), math.cos(gamma2)
    out = np.empty((4, 4, 4), dtype=np.complex128)
    out[0] = 0.5 * (
        TENSOR[0, 0]
        + c1 * c2 * TENSOR[3, 0]
        + s1 * s2 * TENSOR[0, 3]
        + s1 * c2 * TENSOR[1, 1]
        + c1 * s2 * TENSOR[2, 2]
    )
    out[1] = 0.5 * (
        s1 * TENSOR[1, 0] + c2 * TENSOR[0, 1] + s2 * TENSOR[1, 3] + c1 * TENSOR[3, 1]
    )
    out[2] = 0.5 * (
        s2 * TENSOR[2, 0] + c1 * TENSOR[0, 2] + s1 * TENSOR[2, 3] + c2 * TENSOR[3, 2]
    )
    out[3] = 0.5 * (
        s1 * s2 * TENSOR[3, 0]
        + c1 * c2 * TENSOR[0, 3]
        - c1 * s2 * TENSOR[1, 1]
        - s1 * c2 * TENSOR[2, 2]
        + TENSOR[3, 3]
    )
    return out


def rank2_family_vector(gamma1, gamma2, x1, x2, x3):
    """(s, t, C) of the rank-2 generic form as 15 floats, C row by row.

    Algebraically identical to expanding (Sigma_0 + x . Sigma) / 2 in the
    Pauli basis; kept as a separate closed form because the canonicalization
    search evaluates it in a tight loop.
    """
    s1, c1 = math.sin(gamma1), math.cos(gamma1)
    s2, c2 = math.sin(gamma2), math.cos(gamma2)
    a, b = c1 * c2, s1 * s2
    cc, d = s1 * c2, c1 * s2
    return [
        x1 * s1, x2 * s2, a + x3 * b,
        x1 * c2, x2 * c1, b + x3 * a,
        cc - x3 * d, 0.0, x1 * s2,
        0.0, d - x3 * cc, x2 * s1,
        x1 * c1, x2 * c2, x3,
    ]


def rank2_family_params(gamma1, gamma2, x1, x2, x3):
    """Direct (s, t, C) arrays of the rank-2 generic form, bypassing matrices.

    The angles may come in either order; a non-finite parameter raises
    ``ValueError``.
    """
    for name, value in zip(("gamma1", "gamma2", "x1", "x2", "x3"), (gamma1, gamma2, x1, x2, x3)):
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value} is not finite")
    v = rank2_family_vector(gamma1, gamma2, x1, x2, x3)
    return np.array(v[:3]), np.array(v[3:6]), np.array([v[6:9], v[9:12], v[12:]])


def construct_family(spec) -> TwoQubitState:
    """Build the ``TwoQubitState`` described by a family record."""
    if isinstance(spec, Chaotic):
        return TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=np.zeros((3, 3)))
    if isinstance(spec, Bell):
        return TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-spec.o_en)
    if isinstance(spec, GenericPure):
        p = min(1.0, max(0.0, spec.p))
        q = spec.q
        return TwoQubitState(
            s=np.array([p, 0.0, 0.0]),
            t=np.array([-p, 0.0, 0.0]),
            C=np.diag([-1.0, -q, -q]),
        )
    if isinstance(spec, Werner):
        return TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=-spec.x * spec.o_en)
    if isinstance(spec, WernerFirst):
        c = spec.o_en @ np.diag([spec.c1, spec.c2, spec.c3]) * spec.sign
        state = TwoQubitState(s=np.zeros(3), t=np.zeros(3), C=c)
        # Positivity is not automatic for arbitrary characteristic values.
        eig_min = np.linalg.eigvalsh(to_density_matrix(state))[0]
        if eig_min < -DEFAULT_TOL:
            raise ValidityError(
                f"characteristic values ({spec.c1}, {spec.c2}, {spec.c3}) with "
                f"sign {spec.sign:+.0f} give minimum eigenvalue {eig_min:.6g} < 0",
                min_eigenvalue=float(eig_min),
            )
        return state
    if isinstance(spec, WernerSecond):
        pure = construct_family(GenericPure(spec.p))
        return TwoQubitState(s=spec.x * pure.s, t=spec.x * pure.t, C=spec.x * pure.C)
    if isinstance(spec, RankTwo):
        par = spec.params
        sig = sigma_basis(par.gamma1, par.gamma2)
        rho = 0.5 * (sig[0] + par.x1 * sig[1] + par.x2 * sig[2] + par.x3 * sig[3])
        return from_density_matrix(rho)
    raise TypeError(f"not a family record: {spec!r}")
