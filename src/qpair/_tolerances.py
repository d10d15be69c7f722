"""The decision thresholds that several parts of qpair share, one name per meaning.

``DEFAULT_TOL`` is also the default of every public ``tol`` parameter.  A
threshold that one routine alone takes (a search's stops and steps, the
quartic's noise units, a single self-check) stays beside that routine.
"""

# slack accepted on a caller's input: every public ``tol``, a read density matrix's
# Hermiticity and trace, mixing weights, Rank2Params' x^2 <= 1, WernerFirst's eigenvalues
DEFAULT_TOL = 1e-9
# an order-one quantity this small is zero up to rounding: range ends, angles and gaps of
# records and closed forms, pure-state components, axes, det E's two forms' relative gap
ROUNDING_TOL = 1e-12
# rounding by which a computed quantity may cross a bound it must respect before the
# answer raises: a recovered gamma2 above gamma1, a split weight above its dual bound
ORDER_SLACK = 1e-9
# largest gap between two independent routes to one answer: quartic and eigensolve spectra,
# the rank-2 frame residual and x^2, the rank-2 closed form and the exact split
CROSS_CHECK_TOL = 1e-6
# family-detection edge: x or p this small is chaos or a Bell state, x this close to 1 is
# the Bell state, and cross-dyadic singular values this close are equal (Werner)
FAMILY_EDGE = 1e-9
# absolute eigenvalue noise floor, below any meaningful feasibility slack
EIGEN_FLOOR = 1e-14
