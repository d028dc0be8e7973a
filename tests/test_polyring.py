import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberfields.kirillov import make_L, partial_derivation
from faberfields.polyring import (
    ONE_MONO,
    CoeffPoly,
    MissingVariableError,
    accumulate_product,
    c,
    mono,
    mono_pairs,
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
        assert mono((2, 0)) == ONE_MONO
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
                  poly_div_int(a, 3), -a, make_L(j).apply_poly(a),
                  partial_derivation(j).apply_poly(a)):
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
        with pytest.raises(ArithmeticError, match="3 is not divisible by 2"):
            poly_div_int(c1 * 3, 2, exact=True)

    def test_exact_division_raises_under_optimize(self):
        # python -O strips assert statements; the check must not be one.
        code = ("from faberfields.polyring import c, poly_div_int\n"
                "try:\n    print(poly_div_int(c(1) * 3, 2, exact=True))\n"
                "except ArithmeticError as exc:\n    print(type(exc).__name__, exc)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True, timeout=60).stdout
        assert out == "ArithmeticError 3 is not divisible by 2\n"


def merged(a, b):
    """The monomial a * b, by adding exponents."""
    exps = dict(a)
    for j, e in b:
        exps[j] = exps.get(j, 0) + e
    return tuple(sorted(exps.items()))


def reference_key(pairs):
    """The printed order of a monomial given as (j, e) pairs: by weight,
    then by the dense exponent vector c1, c2, ... padded to the weight."""
    weight = sum(j * e for j, e in pairs)
    dense = [0] * weight
    for j, e in pairs:
        dense[j - 1] = e
    return (weight, tuple(dense))


def reference_terms(products):
    """{pairs: coefficient} of a sum of (pairs, coefficient) products, in the
    order each monomial first appears, with zero sums dropped."""
    out: dict = {}
    for pairs, q in products:
        out[pairs] = out.get(pairs, 0) + q
    return {pairs: q for pairs, q in out.items() if q}


def product_pairs(a, b):
    """The (pairs, coefficient) term products of a * b, a's terms outer."""
    return ((merged(mono_pairs(m1), mono_pairs(m2)), q1 * q2)
            for m1, q1 in a.terms.items() for m2, q2 in b.terms.items())


def quotient(pairs, j):
    """The pairs of m / c_j, for a monomial m holding c_j."""
    return tuple((i, e - (i == j)) for i, e in pairs if (i, e) != (j, 1))


class TestPackedMonomials:
    """Each operation, read back through ``mono_pairs``, is the tuple
    arithmetic on (j, e) pairs, term for term and in the same term order,
    and the printed forms follow the reference key."""

    @staticmethod
    def derivation_terms(D, a):
        # Every factor c_j^e of each term q m adds q e (m / c_j) v_j.
        return reference_terms(
            (merged(quotient(mono_pairs(m), j), mono_pairs(m2)), q * e * q2)
            for m, q in a.terms.items() for j, e in mono_pairs(m)
            for m2, q2 in D.coefficient(j).terms.items())

    @given(coeff_polys, coeff_polys, var_indices)
    @settings(max_examples=100)
    def test_operations_match_tuple_reference(self, a, b, j):
        products = reference_terms(product_pairs(a, b))
        # One bucket shared by two products whose terms collide and partly
        # cancel, with rational coefficients of mixed denominators.
        bucket: dict = {}
        accumulate_product(bucket, a, b)
        accumulate_product(bucket, b, b - a)
        shared = reference_terms(chain(product_pairs(a, b), product_pairs(b, b - a)))
        partial = reference_terms(
            (quotient(mono_pairs(m), j), q * dict(mono_pairs(m))[j])
            for m, q in a.terms.items() if j in dict(mono_pairs(m)))
        for got, want in [(a * b, products), (poly_from_bucket(bucket), shared),
                          (a.partial(j), partial),
                          (make_L(j).apply_poly(a), self.derivation_terms(make_L(j), a)),
                          (partial_derivation(j).apply_poly(a),
                           self.derivation_terms(partial_derivation(j), a))]:
            assert [(mono_pairs(m), q) for m, q in got.terms.items()] == list(want.items())
            self.assert_printed_in_reference_order(got)

    @staticmethod
    def assert_printed_in_reference_order(p):
        want = sorted(((mono_pairs(m), q) for m, q in p.terms.items()),
                      key=lambda t: reference_key(t[0]))
        assert [(mono_pairs(m), q) for m, q in p.sorted_terms()] == want
        assert p.to_json_terms() == [{"coeff": str(q), "exps": {str(j): e for j, e in pairs}}
                                     for pairs, q in want]
        assert p.render() == reference_render(want)


def reference_render(terms) -> str:
    """The text of (pairs, coefficient) terms, in the order given."""
    parts = []
    for pairs, q in terms:
        body = "*".join(f"c{j}" if e == 1 else f"c{j}^{e}" for j, e in pairs)
        aq = abs(q)
        parts.append(("-" if q < 0 else "+",
                      str(aq) if not pairs else body if aq == 1 else f"{aq}*{body}"))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


class TestExponentCap:
    """An index or an exponent is at most 127: past it, a product raises,
    and no exponent ever carries into the next variable's field."""

    def test_largest_exponent_fits(self):
        top = CoeffPoly.var(1, 127)
        assert CoeffPoly.var(1, 100) * CoeffPoly.var(1, 27) == top
        assert top.to_json_terms() == [{"coeff": "1", "exps": {"1": 127}}]
        assert top.partial(1) == CoeffPoly.var(1, 126) * 127
        assert c(127).variables() == (127,) and c(127).max_variable() == 127
        assert top.partial(128) == top.partial(10 ** 9) == CoeffPoly.zero()

    @pytest.mark.parametrize("j", [1, 2, 126, 127])
    def test_product_past_the_cap_raises(self, j):
        for a, b in [(CoeffPoly.var(j, 127), c(j)), (CoeffPoly.var(j, 64), CoeffPoly.var(j, 64))]:
            with pytest.raises(OverflowError, match="past the cap"):
                a * b
            with pytest.raises(OverflowError):
                a ** 2

    def test_derivation_past_the_cap_raises(self):
        # L_1 c2 = 2 c1, so L_1 (c1^127 c2) holds 2 c1^128.
        with pytest.raises(OverflowError):
            make_L(1).apply_poly(CoeffPoly.var(1, 127) * c2)

    def test_guard_is_checked_once_per_output_term(self):
        # The product kernel only adds; poly_from_bucket refuses the term.
        bucket: dict = {}
        accumulate_product(bucket, CoeffPoly.var(1, 127), c1 + c2)
        with pytest.raises(OverflowError, match="c1\\^128"):
            poly_from_bucket(bucket)

    @pytest.mark.parametrize("pairs", [((1, 128),), ((1, 100), (1, 28)), ((2, 255),),
                                       ((128, 1),)])
    def test_mono_past_the_cap_raises(self, pairs):
        with pytest.raises(ValueError, match="past the cap"):
            mono(*pairs)

    @pytest.mark.parametrize("j, e", [(1, 128), (2, 255), (3, 256), (128, 1)])
    def test_var_and_json_past_the_cap_raise(self, j, e):
        with pytest.raises(ValueError, match="past the cap"):
            CoeffPoly.var(j, e)
        with pytest.raises(ValueError, match="past the cap"):
            CoeffPoly.from_json_terms([{"coeff": "1", "exps": {str(j): e}}])

    @pytest.mark.parametrize("m", [1 << 7, 1 << 8 * 127, -1])
    def test_constructor_refuses_what_is_no_monomial(self, m):
        # 1 << 7 is c1^128: it sets the guard bit of c1's field.
        with pytest.raises(ValueError, match="not a monomial"):
            CoeffPoly({m: 1})
