"""Real-rooted quartic solver, including the multiple-root regimes.

The spectral quartics of pure and rank-2 states have exact triple and
double roots; a coefficient-only solver must return those to much better
than the eps^(1/k) smearing of a generic rootfinder.  Tolerances in the
multiplicity tests reflect that requirement.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpair import NumericalInconsistencyError, real_quartic_roots


def _coeffs_from_roots(roots):
    c = np.poly(roots)
    return c[1], c[2], c[3], c[4]


def test_bell_quartic():
    # kappa^4 - 6 kappa^2 + 8 kappa - 3 = (kappa - 1)^3 (kappa + 3).
    roots = real_quartic_roots(0.0, -6.0, 8.0, -3.0)
    assert np.allclose(roots, [1.0, 1.0, 1.0, -3.0], atol=1e-12)


def test_simple_roots_exact():
    roots = real_quartic_roots(*_coeffs_from_roots([3.0, 1.0, -2.0, 0.5]))
    assert np.allclose(roots, [3.0, 1.0, 0.5, -2.0], atol=1e-12)


def test_double_root():
    roots = real_quartic_roots(*_coeffs_from_roots([2.0, 2.0, 0.7, -1.3]))
    assert np.allclose(roots, [2.0, 2.0, 0.7, -1.3], atol=1e-10)


def test_two_double_roots():
    roots = real_quartic_roots(*_coeffs_from_roots([1.5, 1.5, -0.5, -0.5]))
    assert np.allclose(roots, [1.5, 1.5, -0.5, -0.5], atol=1e-10)


def test_triple_root():
    roots = real_quartic_roots(*_coeffs_from_roots([0.8, 0.8, 0.8, -0.4]))
    assert np.allclose(roots, [0.8, 0.8, 0.8, -0.4], atol=1e-9)


def test_quadruple_root():
    roots = real_quartic_roots(*_coeffs_from_roots([0.25] * 4))
    assert np.allclose(roots, 0.25, atol=1e-9)


def test_close_but_distinct_pair_not_collapsed():
    # Separation 1e-5 sits inside the clustering window; the quadratic
    # split must keep the roots apart instead of merging them.
    r = [1.0 + 5e-6, 1.0 - 5e-6, 0.3, -0.8]
    roots = real_quartic_roots(*_coeffs_from_roots(r))
    assert np.allclose(roots, sorted(r, reverse=True), atol=1e-10)
    assert roots[0] - roots[1] == pytest.approx(1e-5, rel=1e-3)


def test_rejects_complex_roots():
    # z^4 + 1 has no real roots at all.
    with pytest.raises(NumericalInconsistencyError, match="imaginary"):
        real_quartic_roots(0.0, 0.0, 0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    )
)
# regressions: roots separated near zero must not merge into one
# multiple root just because the whole neighborhood evaluates small
@example([0.0, 0.0, 0.1875, 0.0001])
@example([0.3, 0.2, 1e-6, 0.0])
# a double root next to two separated roots near zero: Newton polish at
# the double root must not carry it onto them
@example([1 / 32, 1 / 32, 5.8e-117, 0.0])
# three distinct roots within 4.2e-4 of each other are no triple root
@example([3.0, 2.357421875, 2.3575534413767105, 2.357839948824237])
def test_random_real_rooted_quartics(root_list):
    target = np.sort(np.asarray(root_list))[::-1]
    roots = real_quartic_roots(*_coeffs_from_roots(target))
    scale = max(1.0, float(np.max(np.abs(target))))
    # Allow eps^(1/2) smearing only when roots actually come close.
    gaps = np.diff(np.sort(target))
    tight = gaps.size == 0 or np.min(gaps[gaps > 0], initial=1.0) > 1e-3
    tol = 1e-9 * scale if tight else 5e-5 * scale
    assert np.allclose(roots, target, atol=tol)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: in a four-root cluster about 4e-3 wide, a critical value "
    "under the 64-unit noise floor merges two roots into a double root",
)
def test_four_root_cluster_under_the_noise_floor():
    # a draw on which test_random_real_rooted_quartics failed: the middle critical
    # value is 40.7 noise units, two roots merge, and the error is 5.2e-4 where the
    # property test allows 5e-5 times the scale, 7.8e-5
    target = np.array([1.56640625, 1.5654371562062206, 1.564453125, 1.5625])
    roots = real_quartic_roots(*_coeffs_from_roots(target))
    assert np.allclose(roots, target, atol=5e-5 * float(np.max(np.abs(target))))


def test_sum_and_product_consistency(rng):
    for _ in range(50):
        a3, a2, a1, a0 = rng.uniform(-2, 2, 4)
        try:
            roots = real_quartic_roots(a3, a2, a1, a0)
        except NumericalInconsistencyError:
            continue
        assert roots.sum() == pytest.approx(-a3, abs=1e-8)
        assert np.prod(roots) == pytest.approx(a0, abs=1e-8)
