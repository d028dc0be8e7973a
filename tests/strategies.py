"""Shared hypothesis strategies for exact-arithmetic property tests."""

from hypothesis import strategies as st

from faberfields.polyring import CoeffPoly, mono
from faberfields.series import LaurentSeries

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)

nonzero_rationals = rationals.filter(bool)

var_indices = st.integers(min_value=1, max_value=4)

monomials = st.lists(
    st.tuples(var_indices, st.integers(min_value=1, max_value=3)),
    max_size=3,
).map(lambda pairs: mono(*pairs))

coeff_polys = st.dictionaries(monomials, rationals, max_size=4).map(CoeffPoly)

small_coeff_polys = st.dictionaries(monomials, rationals, max_size=2).map(CoeffPoly)


def _to_series(coeffs):
    return LaurentSeries(0, coeffs)


power_series = st.lists(small_coeff_polys, min_size=1, max_size=5).map(_to_series)

unit_series = st.lists(small_coeff_polys, min_size=0, max_size=4).map(
    lambda tail: LaurentSeries(0, [CoeffPoly.one()] + tail)
)

# Unit series with integer coefficients: every power has integer coefficients.
integral_unit_series = st.lists(
    st.dictionaries(monomials, st.integers(min_value=-5, max_value=5), max_size=2)
    .map(CoeffPoly),
    min_size=0, max_size=4,
).map(lambda tail: LaurentSeries(0, [CoeffPoly.one()] + tail))

# Series of the form z + (higher order), the admissible reversion inputs.
reversible_series = st.lists(small_coeff_polys, min_size=0, max_size=3).map(
    lambda tail: LaurentSeries(0, [CoeffPoly.zero(), CoeffPoly.one()] + tail)
)
