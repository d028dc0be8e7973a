import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberfields import clear_caches
from faberfields.cli import main
from faberfields.kirillov import make_L, partial_derivation
from faberfields.polyring import (
    _MONO_INTERN,
    _MONO_MUL_CACHE,
    CoeffPoly,
    MissingVariableError,
    accumulate_product,
    c,
    mono,
    mono_weight,
    poly_div_int,
    poly_from_bucket,
)

from .strategies import coeff_polys, rationals, var_indices

c1, c2, c3 = c(1), c(2), c(3)


class TestMonomials:
    def test_weight(self):
        m = mono((1, 2), (3, 1))  # c1^2 c3
        assert mono_weight(m) == 2 * 1 + 3 * 1

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
        assert (c1 * c1 - c2) + c2 * 3 == c1 * c1 + c2 * 2

    def test_mul_square(self):
        assert c1 * c1 == CoeffPoly.var(1, 2)

    def test_mul_unit(self):
        p = c1 * c1 - c2
        assert p * CoeffPoly.one() == p

    def test_mul_expand(self):
        # 2 c1 (c1^2 - c2) = 2 c1^3 - 2 c1 c2, by hand.
        got = (c1 * 2) * (c1 * c1 - c2)
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
        assert (c1 * c1).partial(1) == c1 * 2

    def test_absent_variable(self):
        assert (c1 * c1).partial(2) == CoeffPoly.zero()

    def test_mixed(self):
        # d/dc1 (4 c1^2 - 3 c2) = 8 c1, by hand.
        assert (c1 * c1 * 4 - c2 * 3).partial(1) == c1 * 8


class TestWeightComponents:
    def test_single_weight(self):
        p = c1 * c1 + c2 * 2
        assert p.weight_components() == {2: p}

    def test_two_weights(self):
        assert (c1 + c2).weight_components() == {1: c1, 2: c2}

    def test_lambda3_linear_coefficient_is_homogeneous(self):
        # 6 c3 - 2 c1 c2 sits in a single weight-3 component.
        p = c3 * 6 - c1 * c2 * 2
        assert p.weight_components() == {3: p}
        assert p.is_homogeneous(3)

    def test_sum_of_components_restores(self):
        p = c1 + c1 * c2 - c3 * c3
        total = CoeffPoly.zero()
        for comp in p.weight_components().values():
            total = total + comp
        assert total == p


class TestSpecialize:
    def test_hand_value(self):
        assert (c1 * c1 - c2).specialize({1: 2, 2: 3}) == 1

    def test_zero_poly(self):
        assert CoeffPoly.zero().specialize({}) == 0

    def test_koebe_values(self):
        # c_n = n + 1 specialization of 2 c1.
        assert (c1 * 2).specialize({n: n + 1 for n in range(1, 4)}) == 4

    def test_exact_fraction_values(self):
        val = (c1 * c2).specialize({1: Fraction(1, 2), 2: Fraction(1, 3)})
        assert val == Fraction(1, 6)

    def test_missing_variable_named(self):
        with pytest.raises(MissingVariableError) as exc:
            (c1 + c2).specialize({1: 1.0})
        assert exc.value.index == 2
        assert "c2" in str(exc.value)

    def test_complex_values(self):
        assert c1.specialize({1: 1j}) == 1j


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


def merged(a, b):
    """The monomial a * b, by adding exponents."""
    exps = dict(a)
    for j, e in b:
        exps[j] = exps.get(j, 0) + e
    return tuple(sorted(exps.items()))


class TestInterning:
    # _MONO_MUL_CACHE is a table of rows, _MONO_MUL_CACHE[id(a)][id(b)] = a * b,
    # keyed by the id() of each factor.  An id is reused once its object is
    # freed, so every monomial that a polynomial stores, and every factor and
    # product in the table, must be the interned object, which the intern
    # table keeps alive.

    @given(coeff_polys, coeff_polys, rationals, var_indices, st.integers(0, 3))
    @settings(max_examples=100)
    def test_results_store_interned_monomials(self, a, b, q, j, k):
        bucket: dict = {}
        accumulate_product(bucket, a, b)
        results = [a + b, a - b, a * q, a * b, a ** k, a.partial(j),
                   *a.weight_components().values(), poly_from_bucket(bucket),
                   poly_div_int(a, 3), CoeffPoly.from_json_terms(a.to_json_terms()),
                   make_L(j).apply_poly(a), make_L(0).apply_poly(a),
                   partial_derivation(j).apply_poly(a)]
        for p in results:
            assert all(_MONO_INTERN[m] is m for m in p.terms), p

    def test_no_row_is_empty(self, capsys):
        # A row is made by the first product stored in it: a left factor met
        # only with the constant monomial has none.
        clear_caches()
        assert main(["check", "--suite", "all", "--order", "2"]) == 0
        capsys.readouterr()
        assert _MONO_MUL_CACHE and all(_MONO_MUL_CACHE.values())

    def test_product_rows_key_interned_monomials(self):
        @given(coeff_polys, coeff_polys, var_indices)
        @settings(max_examples=100)
        def products(a, b, j):
            bucket: dict = {}
            accumulate_product(bucket, a, b)
            a * b
            make_L(j).apply_poly(a * b)

        products()
        interned = {id(m): m for m in _MONO_INTERN.values()}
        assert _MONO_MUL_CACHE
        for ia, row in _MONO_MUL_CACHE.items():
            a = interned[ia]
            for ib, m in row.items():
                b = interned[ib]
                assert interned.get(id(m)) is m, (a, b, m)
                assert m == merged(a, b), (a, b, m)
