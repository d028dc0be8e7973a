from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberfields.inversion import (
    _reverse_powers,
    _reversion,
    check_thm51_positive,
    check_thm51_zero_and_negative,
    reverse_table,
    unique_elimination_check,
    unique_elimination_pairs,
)
from faberfields.faberkernel import lambda_direct
from faberfields.kirillov import make_L
from faberfields.polyring import CoeffPoly, c
from faberfields.reports import IdentityPair
from faberfields.series import laurent_pow, laurent_recip, ps_reversion, seed_series

c1, c2 = c(1), c(2)
one = CoeffPoly.one()

ZERO_VALUES = {n: 0 for n in range(1, 40)}


def lagrange_power_coefficient(q: int, m: int, order_margin: int = 4):
    """[z^m] (f^{-1})^q = (q/m) [w^(m-q)] (w/f(w))^m, classical formula."""
    r = laurent_recip(seed_series(m + order_margin).shift(-1))
    from faberfields.series import laurent_pow

    return laurent_pow(r, m).coefficient(m - q) * Fraction(q, m)


class TestReverseTable:
    def test_q_one_literal(self):
        table = reverse_table(1, 1, 3)
        g = table.power(1)
        assert g.coefficient(1) == one
        assert g.coefficient(2) == -c1
        assert g.coefficient(3) == c1 * c1 * 2 - c2

    def test_q_minus_one_valuation_and_head(self):
        table = reverse_table(-1, -1, 2)
        h = table.power(-1)
        assert h.valuation == -1
        assert h.coefficient(-1) == one
        assert h.coefficient(0) == c1
        assert h.coefficient(1) == c2 - c1 * c1

    def test_zero_seed_specializes_to_monomials(self):
        table = reverse_table(-2, 3, 5)
        for q in range(-2, 4):
            s = table.power(q)
            for m in range(s.valuation, 6):
                val = s.coefficient(m).specialize(ZERO_VALUES)
                assert val == (1 if m == q else 0)

    def test_against_lagrange_power_formula(self):
        table = reverse_table(1, 4, 7)
        for q in range(1, 5):
            s = table.power(q)
            for m in range(q + 1, 8):
                assert s.coefficient(m) == lagrange_power_coefficient(q, m)

    def test_product_pairs_cancel(self):
        table = reverse_table(-4, 4, 8)
        for q in range(1, 5):
            prod = table.power(q) * table.power(-q)
            assert prod.coefficient(0) == one
            assert all(not prod.coefficient(m)
                       for m in range(prod.valuation, prod.order + 1) if m != 0)

    def test_delta_weights(self):
        table = reverse_table(-3, 3, 8)
        for q in (-3, -1, 1, 2, 3):
            for n in range(1, 8 - abs(q)):
                assert table.delta(n, q).is_homogeneous(n)

    def test_delta_base(self):
        table = reverse_table(1, 1, 4)
        assert table.delta(0, 1) == one
        assert table.delta(1, 1) == -c1

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            reverse_table(2, 1, 4)
        with pytest.raises(IndexError):
            reverse_table(1, 2, 4).power(3)


class TestLagrangePowers:
    """Lagrange-Burmann powers of the reverse series against repeated products."""

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=-6, max_value=6),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_against_laurent_pow(self, top, qmin, width):
        # Each g^q through z^top against the repeated products of a reversion
        # whose seed knows every power there.
        qmax = min(qmin + width, 6)
        g = ps_reversion(seed_series(max(top + 1 - qmin, 1)))
        pows = _reverse_powers(range(qmin, qmax + 1), top)
        assert sorted(pows) == list(range(qmin, qmax + 1))
        for q, s in pows.items():
            assert s.order == top, q
            assert s == laurent_pow(g, q).truncate(top), q

    def test_burmann_constant_terms(self):
        # [z^0] g^q for q < 0 comes from the Burmann form, not from (q/m).
        g = _reversion(10)
        pows = _reverse_powers(range(-6, 0), 3)
        for q in range(-6, 0):
            assert pows[q].order == 3
            assert pows[q].coefficient(0) == laurent_pow(g, q).coefficient(0)
        assert pows[-1].coefficient(0) == c1


class TestTheorem51Positive:
    def test_hand_checks_k1(self):
        # L_1 applied to the z^2 and z^3 coefficients of the reverse series.
        L1 = make_L(1)
        assert L1.apply_poly(-c1) == CoeffPoly.const(-1)
        assert L1.apply_poly(c1 * c1 * 2 - c2) == c1 * 2

    def test_small(self):
        assert check_thm51_positive(2, 6).passed

    def test_zero_seed_consistency(self):
        # Specializing both sides of L_k g = -g^{k+1} at c = 0 gives
        # 0 = ... on the polynomial level; the generic suite covers it, here
        # we check the specialized right side is the monomial -z^(k+1).
        table = reverse_table(2, 2, 5)
        s = table.power(2)
        vals = {m: s.coefficient(m).specialize(ZERO_VALUES)
                for m in range(s.valuation, 6)}
        assert vals[2] == 1
        assert all(not v for m, v in vals.items() if m != 2)


class TestTheorem51ZeroNegative:
    def test_small(self):
        assert check_thm51_zero_and_negative(3, 6).passed

    def test_full_acceptance_size(self):
        assert check_thm51_positive(5, 10).passed
        assert check_thm51_zero_and_negative(5, 10).passed


class TestUniqueElimination:
    def test_p_two_and_three(self):
        assert unique_elimination_check(2, 6).passed
        assert unique_elimination_check(3, 6).passed

    @pytest.mark.parametrize("N", [4, 6, 9])
    def test_pairs_match_a_longer_reversion(self, N):
        # The cells are (p, m) with m <= 1 whatever order g is taken through,
        # so g through z^(N + p + 1) gives the very same pairs.
        for p in (2, 3):
            g = _reversion(N + p + 1)
            lam = lambda_direct(p).poly(p).at_variable()
            e = laurent_pow(g, 1 - p) + lam * g.derivative()
            want = [IdentityPair("unique-elimination", (("p", p), ("m", m)),
                                 e.coefficient(m), CoeffPoly.zero())
                    for m in range(min(e.valuation, 1 - p), 2)]
            assert list(unique_elimination_pairs((p,))) == want

    def test_requires_p_at_least_two(self):
        with pytest.raises(ValueError):
            unique_elimination_check(1, 6)

    def test_zero_seed_trivial(self):
        # f = z: z^(1-p) + (-z^(1-p)) * 1 = 0 after specialization.
        from faberfields.faberkernel import lambda_direct
        from faberfields.inversion import _reversion
        from faberfields.series import laurent_pow

        g = _reversion(9)
        lam = lambda_direct(2).poly(2).at_variable()
        e = laurent_pow(g, -1) + lam * g.derivative()
        for m in range(e.valuation, 2):
            assert e.coefficient(m).specialize(ZERO_VALUES) == 0
