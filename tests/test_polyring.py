import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from faberfields.polyring import (
    CoeffPoly,
    MissingVariableError,
    c,
    mono,
    mono_degree,
    mono_weight,
    partial,
    poly_add,
    poly_div_int,
    poly_mul,
    specialize,
    weight_components,
)

from .strategies import coeff_polys, rationals, var_indices

c1, c2, c3 = c(1), c(2), c(3)


class TestMonomials:
    def test_weight_and_degree(self):
        m = mono((1, 2), (3, 1))  # c1^2 c3
        assert mono_weight(m) == 2 * 1 + 3 * 1
        assert mono_degree(m) == 3

    def test_zero_exponents_dropped(self):
        assert mono((2, 0)) == ()
        assert mono((1, 1), (1, 1)) == mono((1, 2))

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            mono((0, 1))


class TestArithmetic:
    def test_additive_inverse(self):
        assert c1 + (-c1) == CoeffPoly.zero()

    def test_like_terms(self):
        assert c2 * 2 + c2 * 3 == c2 * 5

    def test_add_mixed(self):
        # (c1^2 - c2) + 3 c2 = c1^2 + 2 c2, by hand.
        assert poly_add(c1 * c1 - c2, c2 * 3) == c1 * c1 + c2 * 2

    def test_mul_square(self):
        assert poly_mul(c1, c1) == CoeffPoly.var(1, 2)

    def test_mul_unit(self):
        p = c1 * c1 - c2
        assert poly_mul(p, CoeffPoly.one()) == p

    def test_mul_expand(self):
        # 2 c1 (c1^2 - c2) = 2 c1^3 - 2 c1 c2, by hand.
        got = poly_mul(c1 * 2, c1 * c1 - c2)
        want = CoeffPoly.var(1, 3) * 2 - c1 * c2 * 2
        assert got == want

    def test_pow(self):
        assert (c1 + c2) ** 2 == c1 * c1 + c1 * c2 * 2 + c2 * c2
        assert (c1 + 1) ** 0 == CoeffPoly.one()

    def test_scalar_coercion(self):
        assert c1 + 0 == c1
        assert 2 * c1 == c1 * Fraction(2)
        assert c1 - 1 == c1 - CoeffPoly.one()


class TestPartial:
    def test_square(self):
        assert partial(c1 * c1, 1) == c1 * 2

    def test_absent_variable(self):
        assert partial(c1 * c1, 2) == CoeffPoly.zero()

    def test_mixed(self):
        # d/dc1 (4 c1^2 - 3 c2) = 8 c1, by hand.
        assert partial(c1 * c1 * 4 - c2 * 3, 1) == c1 * 8


class TestWeightComponents:
    def test_single_weight(self):
        p = c1 * c1 + c2 * 2
        assert weight_components(p) == {2: p}

    def test_two_weights(self):
        assert weight_components(c1 + c2) == {1: c1, 2: c2}

    def test_lambda3_linear_coefficient_is_homogeneous(self):
        # 6 c3 - 2 c1 c2 sits in a single weight-3 component.
        p = c3 * 6 - c1 * c2 * 2
        assert weight_components(p) == {3: p}
        assert p.is_homogeneous(3)

    def test_sum_of_components_restores(self):
        p = c1 + c1 * c2 - c3 * c3
        total = CoeffPoly.zero()
        for comp in weight_components(p).values():
            total = total + comp
        assert total == p


class TestSpecialize:
    def test_hand_value(self):
        assert specialize(c1 * c1 - c2, {1: 2, 2: 3}) == 1

    def test_zero_poly(self):
        assert specialize(CoeffPoly.zero(), {}) == 0

    def test_koebe_values(self):
        # c_n = n + 1 specialization of 2 c1.
        assert specialize(c1 * 2, {n: n + 1 for n in range(1, 4)}) == 4

    def test_exact_fraction_values(self):
        val = specialize(c1 * c2, {1: Fraction(1, 2), 2: Fraction(1, 3)})
        assert val == Fraction(1, 6)

    def test_missing_variable_named(self):
        with pytest.raises(MissingVariableError) as exc:
            specialize(c1 + c2, {1: 1.0})
        assert exc.value.index == 2
        assert "c2" in str(exc.value)

    def test_complex_values(self):
        assert specialize(c1, {1: 1j}) == 1j


class TestProperties:
    @given(coeff_polys, coeff_polys, coeff_polys)
    def test_ring_axioms(self, a, b, d):
        assert (a + b) + d == a + (b + d)
        assert a + b == b + a
        assert (a * b) * d == a * (b * d)
        assert a * b == b * a
        assert a * (b + d) == a * b + a * d

    @given(coeff_polys, coeff_polys, var_indices)
    def test_leibniz(self, a, b, j):
        lhs = (a * b).partial(j)
        rhs = a.partial(j) * b + a * b.partial(j)
        assert lhs == rhs

    @given(coeff_polys, coeff_polys)
    @settings(max_examples=50)
    def test_weight_components_respect_products(self, a, b):
        wa = a.weight_components()
        wb = b.weight_components()
        for m, comp in (a * b).weight_components().items():
            total = CoeffPoly.zero()
            for k, ca in wa.items():
                cb = wb.get(m - k)
                if cb is not None:
                    total = total + ca * cb
            assert total == comp


class TestRendering:
    def test_canonical_order(self):
        assert (c2 * 4 - c1 * c1).render() == "4*c2 - c1^2"

    def test_constants_and_signs(self):
        assert CoeffPoly.zero().render() == "0"
        assert (-c1).render() == "-c1"
        assert (c1 - 1).render() == "-1 + c1"
        assert CoeffPoly.const(Fraction(-3, 2)).render() == "-3/2"

    def test_json_round_trip_bit_exact(self):
        p = c1 * c1 * Fraction(3, 2) - c2 * 4 + CoeffPoly.const(Fraction(1, 7))
        blob = json.dumps(p.to_json_terms(), sort_keys=True)
        q = CoeffPoly.from_json_terms(json.loads(blob))
        assert q == p
        assert json.dumps(q.to_json_terms(), sort_keys=True) == blob

    @given(coeff_polys)
    @settings(max_examples=50)
    def test_json_round_trip_random(self, p):
        assert CoeffPoly.from_json_terms(p.to_json_terms()) == p


class TestQueries:
    def test_variables_and_max(self):
        p = c1 * c3 + c2
        assert p.variables() == (1, 2, 3)
        assert p.max_variable() == 3
        assert CoeffPoly.const(5).max_variable() == 0

    def test_homogeneous_weight(self):
        assert (c1 * c2).homogeneous_weight() == 3
        assert CoeffPoly.zero().homogeneous_weight() is None
        with pytest.raises(ValueError):
            (c1 + c2).homogeneous_weight()


def whole_fractions(p: CoeffPoly) -> list:
    """The stored coefficients of p that are Fractions with denominator 1."""
    return [q for q in p.terms.values() if type(q) is Fraction and q.denominator == 1]


class TestWholeValues:
    def test_hand_cases(self):
        h = c1 * Fraction(1, 2)
        assert type((h + h).terms[mono((1, 1))]) is int
        assert type((c1 * c1).partial(1).terms[mono((1, 1))]) is int
        assert type((h * 4).terms[mono((1, 1))]) is int
        assert type(CoeffPoly({mono((1, 1)): Fraction(3, 1)}).terms[mono((1, 1))]) is int

    @given(coeff_polys, coeff_polys, rationals, var_indices)
    def test_ring_operations_keep_whole_values_int(self, a, b, q, j):
        for p in (a, b, a + b, a - b, a * b, a * q, a * int(q * 6), a.partial(j),
                  poly_div_int(a, 3), -a):
            assert not whole_fractions(p), p


class TestDivInt:
    def test_whole_quotients_stay_ints(self):
        got = poly_div_int(c1 * 6 + c2 * 3, 3, exact=True)
        assert got == c1 * 2 + c2
        assert all(type(q) is int for q in got.terms.values())

    def test_inexact_division_is_rational(self):
        got = poly_div_int(c1 * 3 + c2 * 4, 2)
        assert got == c1 * Fraction(3, 2) + c2 * 2
        assert type(got.terms[mono((2, 1))]) is int

    def test_exact_division_asserts(self):
        with pytest.raises(AssertionError):
            poly_div_int(c1 * 3, 2, exact=True)
