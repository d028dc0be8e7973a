from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberfields import polyring, series
from faberfields.polyring import CoeffPoly, c
from faberfields.series import (
    INF,
    BiSeries,
    DiagonalError,
    LaurentSeries,
    LaurentWPoly,
    LeadingCoefficientError,
    OrderError,
    SeriesError,
    WPoly,
    bi_log_in_u,
    bi_quotient,
    const_series,
    divided_difference,
    laurent_pow,
    laurent_recip,
    ps_compose,
    ps_log,
    ps_reversion,
    reversion_powers,
    seed_series,
    unit_pow,
    z_series,
    zero_series,
)

from .oracles import (
    dense_log_kernel,
    horner_compose,
    newton_reversion,
    series_agree,
    unit_row_bi_log,
)
from .strategies import (
    integral_unit_series,
    power_series,
    rationals,
    reversible_series,
    small_coeff_polys,
    unit_series,
)

c1, c2, c3 = c(1), c(2), c(3)
one = CoeffPoly.one()
zero = CoeffPoly.zero()


# -- independent oracles ------------------------------------------------------


def mercator_log(x: CoeffPoly, order: int) -> LaurentSeries:
    """log(1 + x z) as sum (-1)^(n+1) x^n z^n / n, the classical series."""
    data = [zero]
    for n in range(1, order + 1):
        sign = 1 if n % 2 else -1
        data.append(x ** n * Fraction(sign, n))
    return LaurentSeries(0, data)


def lagrange_reversion(N: int) -> LaurentSeries:
    """Reverse of the seed by the classical coefficient formula
    g_n = (1/n) [z^(n-1)] (z/f(z))^n, with the powers of z/f taken by repeated
    series products, independent of the power kernel."""
    r = laurent_recip(seed_series(N + 1).shift(-1))  # z/f
    coeffs = [zero, one]
    r_pow = r
    for n in range(2, N + 1):
        r_pow = r_pow * r
        coeffs.append(r_pow.coefficient(n - 1) * Fraction(1, n))
    return LaurentSeries(0, coeffs[: N + 1])


class TestSeed:
    def test_seed_three(self):
        f = seed_series(3)
        assert f.coefficient(0) == zero
        assert f.coefficient(1) == one
        assert f.coefficient(2) == c1
        assert f.coefficient(3) == c2
        assert f.order == 3

    def test_seed_one_is_z(self):
        f = seed_series(1)
        assert f.coefficient(1) == one
        assert f.order == 1

    def test_seed_derivative(self):
        df = seed_series(3).derivative()
        assert df.coefficient(0) == one
        assert df.coefficient(1) == c1 * 2
        assert df.coefficient(2) == c2 * 3

    def test_seed_requires_positive_order(self):
        with pytest.raises(ValueError):
            seed_series(0)


class TestMulAddScale:
    def test_mul_by_zero(self):
        f = seed_series(4)
        assert (f * zero_series(4)).is_zero()

    def test_fprime_squared(self):
        # f'(z)^2 = 1 + 4 c1 z + (4 c1^2 + 6 c2) z^2 + ..., by hand.
        df = seed_series(3).derivative()
        sq = df * df
        assert sq.coefficient(0) == one
        assert sq.coefficient(1) == c1 * 4
        assert sq.coefficient(2) == c1 * c1 * 4 + c2 * 6

    def test_one_plus_z_times_one_minus_z(self):
        a = LaurentSeries(0, [1, 1], order=3)
        b = LaurentSeries(0, [1, -1], order=3)
        prod = a * b
        assert prod.coefficient(0) == one
        assert prod.coefficient(1) == zero
        assert prod.coefficient(2) == -one

    def test_scale(self):
        f = seed_series(2)
        assert f.scale(c1).coefficient(1) == c1
        assert (f + -f).is_zero()

    def test_order_propagation_min(self):
        a = LaurentSeries(0, [1, 1], order=5)
        b = LaurentSeries(0, [1, 1], order=3)
        assert (a + b).order == 3
        assert (a * b).order == 3


class TestDiv:
    def test_inverse_derivative(self):
        # 1/f' = 1 - 2 c1 z + (4 c1^2 - 3 c2) z^2 + ...
        inv = const_series(1) / seed_series(3).derivative()
        assert inv.coefficient(0) == one
        assert inv.coefficient(1) == c1 * -2
        assert inv.coefficient(2) == c1 * c1 * 4 - c2 * 3

    def test_self_division(self):
        f = seed_series(5)
        q = f / f
        assert q.coefficient(0) == one
        assert all(not q.coefficient(k) for k in range(1, q.order + 1))

    def test_sq_ratio_low_order(self):
        # z^2 f'^2 / f^2 = 1 + 2 c1 z + ...
        f = seed_series(3)
        df = f.derivative()
        s = (df * df) * (z_series() * z_series()) / (f * f)
        assert s.coefficient(0) == one
        assert s.coefficient(1) == c1 * 2

    def test_zero_lead_rejected(self):
        with pytest.raises(LeadingCoefficientError):
            const_series(1) / zero_series(3)

    def test_non_unit_lead_rejected(self):
        bad = LaurentSeries(0, [c1, one], order=3)
        with pytest.raises(LeadingCoefficientError) as exc:
            const_series(1) / bad
        assert exc.value.valuation == 0

    @given(unit_series, unit_series)
    @settings(max_examples=30)
    def test_div_mul_round_trip(self, a, b):
        q = a / b
        back = q * b
        assert series_agree(back, a, through=min(back.order, a.order)) is None


class TestLog:
    def test_log_of_one(self):
        assert ps_log(LaurentSeries(0, [1], order=4)).is_zero()

    def test_mercator(self):
        got = ps_log(LaurentSeries(0, [one, c1], order=2))
        want = mercator_log(c1, 2)
        assert series_agree(got, want, through=2) is None

    def test_log_quotient_rule(self):
        # d/dz log(f/z) = f'/f - 1/z, checked as Laurent series.
        f = seed_series(6)
        lhs = ps_log(f.shift(-1)).derivative()
        rhs = f.derivative() * laurent_recip(f) - z_series().shift(-2)
        assert series_agree(lhs, rhs, through=min(lhs.order, rhs.order)) is None

    def test_requires_unit_constant(self):
        with pytest.raises(SeriesError):
            ps_log(seed_series(3))

    @given(unit_series)
    @settings(max_examples=30)
    def test_log_derivative_identity(self, a):
        if a.order < 1:
            return
        la = ps_log(a)
        lhs = la.derivative() * a
        rhs = a.derivative()
        assert series_agree(lhs, rhs, through=min(lhs.order, rhs.order)) is None


exact_power_series = st.lists(small_coeff_polys, min_size=0, max_size=4).map(
    lambda cs: LaurentSeries(0, cs, order=INF))


@st.composite
def compose_inners(draw):
    """Series with zero constant term: valuation 1 or 2, truncated at or
    past their last drawn term or exact; an empty tail gives the zero series
    known through some z^n or exactly."""
    valuation = draw(st.integers(min_value=1, max_value=2))
    tail = draw(st.lists(small_coeff_polys, min_size=0, max_size=3))
    coeffs = [zero] * valuation + tail
    if draw(st.booleans()):
        return LaurentSeries(0, coeffs, order=INF)
    return LaurentSeries(0, coeffs, order=len(coeffs) - 1 + draw(st.integers(0, 3)))


class TestCompose:
    def test_square_outer(self):
        f = seed_series(4)
        got = ps_compose(LaurentSeries(0, [0, 0, 1], order=4), f)
        want = f * f
        assert series_agree(got, want, through=min(got.order, want.order)) is None

    def test_identity_outer(self):
        f = seed_series(4)
        got = ps_compose(z_series(), f)
        assert series_agree(got, f, through=4) is None

    def test_faber_one_at_reciprocal(self):
        # F_1(1/f(z)) = 1/f(z) + c1 = 1/z + (c1^2 - c2) z + ...
        f = seed_series(4)
        h = laurent_recip(f) + c1
        assert h.coefficient(-1) == one
        assert h.coefficient(0) == zero
        assert h.coefficient(1) == c1 * c1 - c2

    def test_nonzero_constant_rejected(self):
        with pytest.raises(SeriesError):
            ps_compose(seed_series(3), LaurentSeries(0, [1, 1], order=3))

    @pytest.mark.parametrize("outer, inner", [
        (seed_series(5), LaurentSeries(0, [0, 0, c1, c2], order=6)),  # valuation 2
        (LaurentSeries(0, [1, c1, c2], order=INF), seed_series(4)),  # exact outer
        (LaurentSeries(0, [1, c1, c2], order=INF), LaurentSeries(0, [0, 1, c3], order=INF)),
        (seed_series(5), zero_series(3)),  # zero inner known through z^3
        (LaurentSeries(0, [c2, c1], order=INF), zero_series(INF)),
        (seed_series(6), seed_series(3)),  # outer.order above inner.order
        (seed_series(2), seed_series(6)),  # outer.order below inner.order
        (seed_series(3), LaurentSeries(0, [0, 0, c1], order=INF)),
    ])
    def test_matches_horner_oracle(self, outer, inner):
        got = ps_compose(outer, inner)
        want = horner_compose(outer, inner)
        assert got.order == want.order
        assert got == want

    @given(st.one_of(power_series, exact_power_series), compose_inners())
    @settings(max_examples=80, deadline=None)
    def test_matches_horner_oracle_random(self, outer, inner):
        got = ps_compose(outer, inner)
        want = horner_compose(outer, inner)
        assert got.order == want.order
        assert got == want


class TestReversion:
    def test_identity(self):
        g = ps_reversion(LaurentSeries(0, [0, 1], order=4))
        assert series_agree(g, z_series(), through=4) is None

    def test_seed_order_three(self):
        g = ps_reversion(seed_series(3))
        assert g.coefficient(1) == one
        assert g.coefficient(2) == -c1
        assert g.coefficient(3) == c1 * c1 * 2 - c2

    def test_against_lagrange_oracle(self):
        got = ps_reversion(seed_series(8))
        want = lagrange_reversion(8)
        assert series_agree(got, want, through=8) is None

    def test_defining_identity(self):
        f = seed_series(6)
        g = ps_reversion(f)
        assert series_agree(ps_compose(f, g), z_series(), through=6) is None
        assert series_agree(ps_compose(g, f), z_series(), through=6) is None

    @pytest.mark.parametrize("m", [2, 7, 10])
    def test_corrupted_coefficient_fails_self_check(self, monkeypatch, m):
        # ps_reversion divides [w^(m-1)] (a/w)^(-m) by m without the exact
        # flag; unit_pow's own divisions on the seed set it.
        orig = series.poly_div_int

        def corrupt(a, n, exact=False):
            out = orig(a, n, exact)
            return out + c1 if n == m and not exact else out

        monkeypatch.setattr(series, "poly_div_int", corrupt)
        with pytest.raises(SeriesError, match="composition self-check"):
            ps_reversion(seed_series(10))

    def test_mono_mul_count_on_seed(self, monkeypatch):
        # The self-check g(f) = z takes each f^k as f^(k-1) * f, a product
        # with single monomials; checking f(g) = z by Horner's rule made
        # 266,171 monomial products here.
        calls = 0
        orig = polyring.mono_mul

        def counting(a, b):
            nonlocal calls
            calls += 1
            return orig(a, b)

        monkeypatch.setattr(polyring, "mono_mul", counting)
        ps_reversion(seed_series(16))
        assert 0 < calls <= 30_000

    def test_wrong_shape_rejected(self):
        with pytest.raises(SeriesError):
            ps_reversion(LaurentSeries(0, [0, c1 + 1], order=3))
        with pytest.raises(SeriesError):
            ps_reversion(LaurentSeries(0, [1, 1], order=3))

    def test_against_newton_oracle_on_seed(self):
        f = seed_series(9)
        assert ps_reversion(f) == newton_reversion(f)

    @given(reversible_series)
    @settings(max_examples=30, deadline=None)
    def test_against_newton_oracle(self, a):
        assert ps_reversion(a) == newton_reversion(a)

    @given(reversible_series)
    @settings(max_examples=20, deadline=None)
    def test_round_trip_random(self, a):
        g = ps_reversion(a)
        back = ps_compose(a, g)
        assert series_agree(back, z_series(), through=back.order) is None
        forth = ps_compose(g, a)
        assert series_agree(forth, z_series(), through=forth.order) is None


class TestReversionPowers:
    """The one Lagrange-Burmann loop against the reversion and products."""

    @given(reversible_series, st.integers(min_value=-3, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_against_reversion_and_laurent_pow(self, a, qmin):
        # g^q, q = qmin..qmin+8, through the highest power a allows for qmin.
        top = a.order + qmin - 1
        qs = range(qmin, qmin + 9)
        pows = reversion_powers(a, qs, top)
        g = ps_reversion(a)
        assert sorted(pows) == list(qs)
        for q in qs:
            assert pows[q].order == top, q
            assert pows[q] == laurent_pow(g, q).truncate(top), q
        if 1 in qs:
            assert pows[1] == g.truncate(top)

    @pytest.mark.parametrize("qs, top", [((-3, 2), 5), ((1,), 4), ((2, 5), 6), ((-1, 0), 0)])
    def test_seed_one_term_short_raises(self, qs, top):
        # g^q through z^top reads the seed through z^(top + 1 - q).
        need = top + 1 - min(q for q in qs if q)
        assert reversion_powers(seed_series(need), qs, top)[max(qs)].order == top
        with pytest.raises(OrderError):
            reversion_powers(seed_series(need - 1), qs, top)

    def test_wrong_shape_rejected(self):
        with pytest.raises(SeriesError, match="z \\+ higher order"):
            reversion_powers(LaurentSeries(0, [0, 2], order=3), (-1, 1), 2)
        with pytest.raises(SeriesError, match="infinite object"):
            reversion_powers(z_series(), (-1, 1), 2)


def _integral(s: LaurentSeries) -> bool:
    return all(type(q) is int for c in s.coeffs for q in c.terms.values())


class TestUnitPow:
    """Miller's recurrence against repeated products and reciprocals."""

    @given(unit_series, st.integers(min_value=-8, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_against_laurent_pow(self, h, alpha):
        assert unit_pow(h, alpha) == laurent_pow(h, alpha).truncate(h.order)

    @given(integral_unit_series, st.integers(min_value=-8, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_integral_inputs_give_integral_outputs(self, h, alpha):
        got = unit_pow(h, alpha)
        assert _integral(got)
        assert got == laurent_pow(h, alpha).truncate(h.order)

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=-8, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_seed_against_laurent_pow(self, order, alpha):
        h = seed_series(order + 1).shift(-1)  # f/z through z^order
        got = unit_pow(h, alpha)
        assert got.order == order
        assert _integral(got)
        assert got == laurent_pow(h, alpha).truncate(order)

    @given(unit_series, st.integers(min_value=-8, max_value=8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_resumes_in_place(self, h, alpha, data):
        # A run on a prefix of h leaves its terms in b, a run on h extends b
        # to the one-shot power, and a shorter read after it is its prefix.
        cut = data.draw(st.integers(min_value=0, max_value=h.order))
        b = []
        first = unit_pow(h.truncate(cut), alpha, b)
        assert first == unit_pow(h.truncate(cut), alpha)
        assert unit_pow(h, alpha, b) == unit_pow(h, alpha)
        assert len(b) == h.order + 1
        assert unit_pow(h.truncate(cut), alpha, b) == first

    def test_seed_literal(self):
        h = seed_series(3).shift(-1)
        got = unit_pow(h, -2)  # (1 + c1 z + c2 z^2)^-2
        assert got.coefficient(1) == c1 * -2
        assert got.coefficient(2) == c1 * c1 * 3 - c2 * 2

    def test_rejects_bad_input(self):
        with pytest.raises(SeriesError):
            unit_pow(LaurentSeries(0, [2, 1], order=3), -1)
        with pytest.raises(SeriesError):
            unit_pow(const_series(1), -1)
        with pytest.raises(TypeError):
            unit_pow(LaurentSeries(0, [1, 1], order=3), Fraction(1, 2))


class TestLaurent:
    def test_constructor_normalises_the_valuation(self):
        b = LaurentSeries(-2, [0, 0, 1])
        assert b.valuation == 0
        assert b == LaurentSeries(0, [1])

    def test_reciprocal_of_seed(self):
        # 1/f = 1/z - c1 + (c1^2 - c2) z + (2 c1 c2 - c1^3 - c3) z^2 + ...
        h = laurent_recip(seed_series(4))
        assert h.valuation == -1
        assert h.coefficient(-1) == one
        assert h.coefficient(0) == -c1
        assert h.coefficient(1) == c1 * c1 - c2
        assert h.coefficient(2) == c1 * c2 * 2 - CoeffPoly.var(1, 3) - c3

    def test_product_with_reciprocal(self):
        f = seed_series(5)
        p = f * laurent_recip(f)
        assert p.coefficient(0) == one
        assert all(not p.coefficient(k) for k in range(1, p.order + 1))

    def test_monomial_reciprocal_exact(self):
        inv = laurent_recip(z_series())
        assert inv.valuation == -1
        assert inv.order is INF

    def test_pow_negative(self):
        f = seed_series(5)
        m = laurent_pow(f, -2) * laurent_pow(f, 2)
        assert m.coefficient(0) == one
        assert all(not m.coefficient(k) for k in range(m.valuation, 0))

    def test_pow_zero(self):
        p = laurent_pow(seed_series(3), 0)
        assert p.coefficient(0) == one
        assert p.order is INF

    def test_coefficient_below_valuation_is_zero(self):
        f = seed_series(3)
        assert f.coefficient(-5) == zero

    def test_order_error_past_truncation(self):
        f = seed_series(3)
        with pytest.raises(OrderError):
            f.coefficient(4)

    def test_shift_and_integrate(self):
        f = seed_series(3)
        assert f.shift(-1).coefficient(0) == one
        back = f.derivative().integrate()
        assert series_agree(back, f, through=back.order) is None

    def test_integrate_rejects_log_term(self):
        with pytest.raises(SeriesError):
            z_series().shift(-2).integrate()  # 1/z has no series primitive


class TestTruncationStability:
    @given(power_series, power_series)
    @settings(max_examples=30)
    def test_mul(self, a, b):
        full = a * b
        if a.order < 1:
            return
        cut = a.truncate(a.order - 1) * b
        assert cut.order <= full.order
        assert series_agree(full.truncate(cut.order), cut, through=cut.order) is None

    @given(unit_series)
    @settings(max_examples=20)
    def test_log(self, a):
        if a.order < 2:
            return
        full = ps_log(a)
        cut = ps_log(a.truncate(a.order - 1))
        assert series_agree(full.truncate(cut.order), cut, through=cut.order) is None

    @given(power_series, unit_series)
    @settings(max_examples=20)
    def test_div(self, a, b):
        full = a / b
        if b.order < 1:
            return
        cut = a / b.truncate(b.order - 1)
        assert cut.order <= full.order
        assert series_agree(full.truncate(cut.order), cut, through=cut.order) is None

    @given(unit_series, reversible_series)
    @settings(max_examples=20)
    def test_compose(self, outer, inner):
        if inner.order < 2:
            return
        full = ps_compose(outer, inner)
        cut = ps_compose(outer, inner.truncate(inner.order - 1))
        assert cut.order <= full.order
        assert series_agree(full.truncate(cut.order), cut, through=cut.order) is None

    @given(reversible_series)
    @settings(max_examples=20, deadline=None)
    def test_reversion(self, a):
        if a.order < 2:
            return
        full = ps_reversion(a)
        cut = ps_reversion(a.truncate(a.order - 1))
        assert series_agree(full.truncate(cut.order), cut, through=cut.order) is None


class TestWPoly:
    def test_eval_at_reciprocal_marker(self):
        # T_1(w) = w + 3 c1 at w = 1/u.
        t1 = WPoly([c1 * 3, one])
        got = t1.reciprocal_substitute()
        assert got == LaurentWPoly({-1: one, 0: c1 * 3})

    def test_constant_substitution(self):
        p = WPoly([c2])
        assert p.reciprocal_substitute() == LaurentWPoly({0: c2})

    def test_degree_two_reciprocal(self):
        # F_2(w) = w^2 + 2 c1 w + (2 c2 - c1^2) at w = 1/u.
        f2 = WPoly([c2 * 2 - c1 * c1, c1 * 2, one])
        got = f2.reciprocal_substitute()
        assert got == LaurentWPoly({-2: one, -1: c1 * 2, 0: c2 * 2 - c1 * c1})

    def test_eval_at_laurent_series(self):
        f = seed_series(5)
        h = laurent_recip(f)
        p = WPoly([c1, one])  # w + c1
        got = p.eval_at(h)
        assert got.coefficient(-1) == one
        assert got.coefficient(0) == zero

    def test_wpoly_arithmetic(self):
        a = WPoly([one, c1])
        b = WPoly([c2, one])
        assert (a * b).coefficient(1) == c1 * c2 + one
        assert (a + b).coefficient(0) == one + c2
        assert a.deriv_w() == WPoly([c1])

    def test_render_descending(self):
        f2 = WPoly([c2 * 2 - c1 * c1, c1 * 2, one])
        assert f2.render() == "w^2 + 2*c1*w + (2*c2 - c1^2)"


class TestMarkerClasses:
    """WPoly is the LaurentWPoly with no negative exponent."""

    W = WPoly([c1, zero, c2])  # c2 w^2 + c1
    L = LaurentWPoly({-1: c3, 0: one})  # c3 u^-1 + 1

    def test_shared_operations_keep_the_class(self):
        for x in (self.W, self.L):
            for got in (x + x, x - x, -x, x + 1, 2 + x, x - c1, x.scale(c2),
                        x.map_coeffs(lambda q: q * 3)):
                assert type(got) is type(x), got
        for got in (self.W * self.W, self.W * c1, c1 * self.W, self.W.deriv_w()):
            assert type(got) is WPoly, got

    def test_scalar_is_the_constant_term(self):
        assert self.W + 1 == WPoly([c1 + 1, zero, c2])
        assert self.W - c1 == WPoly([zero, zero, c2])
        assert self.L - c1 == LaurentWPoly({-1: c3, 0: one - c1})
        assert 2 + self.L == LaurentWPoly({-1: c3, 0: 3})

    def test_mixing_gives_laurent(self):
        for got in (self.W + self.L, self.L + self.W, self.W - self.L, self.L - self.W):
            assert type(got) is LaurentWPoly, got
        assert self.W + self.L == LaurentWPoly({-1: c3, 0: c1 + 1, 2: c2})
        assert self.W - self.L == LaurentWPoly({-1: -c3, 0: c1 - 1, 2: c2})

    def test_classes_never_equal(self):
        assert WPoly([c1]) != LaurentWPoly({0: c1})
        assert LaurentWPoly({0: c1}) != WPoly([c1])
        assert WPoly([]) != LaurentWPoly({})
        assert self.W - self.W == WPoly([])
        assert WPoly([c2]).reciprocal_substitute() == LaurentWPoly({0: c2})

    def test_dense_view_and_variable(self):
        assert self.W.coeffs == (c1, zero, c2)
        assert self.W.degree == 2 and WPoly([]).degree == -1
        assert repr(self.W) == "<WPoly c2*w^2 + c1>"
        assert repr(self.L) == "<LaurentWPoly 1 + c3*u^-1>"


class TestLaurentWPoly:
    def test_eval_at_variable(self):
        lam = LaurentWPoly({-1: -one, 1: c1})
        s = lam.at_variable()
        assert s.coefficient(-1) == -one
        assert s.coefficient(1) == c1
        assert s.order is INF

    def test_eval_at_series_negative_powers(self):
        f = seed_series(6)
        lam = LaurentWPoly({-1: one})
        got = lam.eval_at(f)
        want = laurent_recip(f)
        assert series_agree(got, want, through=min(got.order, want.order)) is None

    def test_render(self):
        lam = LaurentWPoly({1: c1 * -2, 0: -one})
        assert lam.render() == "-2*c1*u - 1"


def truncated_bi(nu: int, nv: int, entries: dict) -> BiSeries:
    """The BiSeries through u^nu v^nv whose only nonzero entries are ``entries``."""
    rows = [[entries.get((i, j), zero) for j in range(nv + 1)] for i in range(nu + 1)]
    return BiSeries(rows, nu, nv)


class TestDividedDifference:
    # Q[i][j] reads P up to v^(j + 1 + i), so P through v^(nu + 2) determines
    # every Q entry with i <= nu, j <= 1.

    def test_linear(self):
        q = divided_difference(truncated_bi(1, 3, {(0, 1): one, (1, 0): -one}))
        assert (q.nu, q.nv) == (1, 1)
        assert q.coefficient(0, 0) == one
        assert all(not q.coefficient(i, j)
                   for i in range(2) for j in range(2) if (i, j) != (0, 0))

    def test_difference_of_squares(self):
        q = divided_difference(truncated_bi(2, 4, {(0, 2): one, (2, 0): -one}))
        assert q.coefficient(1, 0) == one
        assert q.coefficient(0, 1) == one
        assert not q.coefficient(1, 1)

    def test_telescoping_example(self):
        # P = v g(u) - u g(v) with g(z) = c1 z^2 gives Q = -c1 u v.
        q = divided_difference(truncated_bi(2, 4, {(2, 1): c1, (1, 2): -c1}))
        assert q.coefficient(1, 1) == -c1
        assert not q.coefficient(0, 0)

    def test_defining_relation_on_truncation(self):
        # (v - u) Q = P coefficientwise: Q[i][j-1] - Q[i-1][j] = P[i][j].
        r = laurent_recip(seed_series(8).shift(-1))
        nv = 7
        rows = [[zero] * (nv + 1) for _ in range(3)]
        for i in range(3):
            rows[i][1] = rows[i][1] + r.coefficient(i)
        for j in range(nv + 1):
            rows[1][j] = rows[1][j] - r.coefficient(j)
        p = BiSeries(rows, 2, nv)
        q = divided_difference(p)
        for i in range(q.nu + 1):
            for j in range(q.nv + 1):
                lhs = q.coefficient(i, j - 1) if j >= 1 else zero
                lhs = lhs - (q.coefficient(i - 1, j) if i >= 1 else zero)
                assert lhs == p.coefficient(i, j)

    def test_diagonal_violation_reported(self):
        p = truncated_bi(1, 3, {(0, 1): one, (1, 0): one})  # v + u
        with pytest.raises(DiagonalError) as exc:
            divided_difference(p)
        assert exc.value.degree == 1


@st.composite
def bi_series_with_head(draw, unit_head=False):
    """A small BiSeries whose u^0 row is 1 + h_1 v + ... with rational h_j."""
    nu = draw(st.integers(min_value=1, max_value=3))
    nv = draw(st.integers(min_value=0, max_value=3))
    if unit_head:
        head = [one] + [zero] * nv
    else:
        head = [one] + [CoeffPoly.const(q)
                        for q in draw(st.lists(rationals, min_size=nv, max_size=nv))]
    rows = [head] + [draw(st.lists(small_coeff_polys, min_size=nv + 1, max_size=nv + 1))
                     for _ in range(nu)]
    return BiSeries(rows, nu, nv)


def row_series(row, nv):
    return LaurentSeries(0, list(row), order=nv)


def clip(q: BiSeries, nu: int, nv: int) -> BiSeries:
    """The entries of q with u power <= nu and v power <= nv."""
    return BiSeries([row[:nv + 1] for row in q.rows[:nu + 1]], nu, nv)


class TestBiQuotient:
    @given(bi_series_with_head(),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_grows_in_place(self, q, shapes):
        # Solves on rectangles in any order, each extending the same rows,
        # agree with the one-shot solve on every entry they cover.
        t = q.derivative_u()
        want = bi_quotient(t, q)
        rows = []
        for nu, nv in shapes + [(t.nu, t.nv)]:
            nu, nv = min(nu, t.nu), min(nv, t.nv)
            assert bi_quotient(clip(t, nu, nv), clip(q, nu, nv), rows) is rows
            for i in range(nu + 1):
                assert rows[i][:nv + 1] == want[i][:nv + 1]
        assert rows == want


class TestBiLog:
    @given(bi_series_with_head())
    @settings(max_examples=60, deadline=None)
    def test_divides_by_the_head_row(self, q):
        # log(Q / Q(0, v)) equals the unit-row log of Q with every row
        # multiplied by 1/head, and its u^0 row is 0.
        recip = laurent_recip(row_series(q.rows[0], q.nv))
        scaled = [[(row_series(r, q.nv) * recip).coefficient(j) for j in range(q.nv + 1)]
                  for r in q.rows]
        got = bi_log_in_u(q)
        assert all(not x for x in got.rows[0])
        assert got == unit_row_bi_log(BiSeries(scaled, q.nu, q.nv))

    @given(bi_series_with_head(unit_head=True))
    @settings(max_examples=40, deadline=None)
    def test_unit_head_is_the_plain_log(self, q):
        assert bi_log_in_u(q) == unit_row_bi_log(q)

    def test_unit_head_on_the_dense_kernel(self):
        q = dense_log_kernel(4, 5)
        assert q.rows[0] == tuple([one] + [zero] * q.nv)
        assert bi_log_in_u(q) == unit_row_bi_log(q)

    def test_log_of_one_plus_u(self):
        # Q = (1 + c1 v)(1 + u): log(Q / Q(0, v)) = log(1 + u) = u - u^2/2 + u^3/3.
        rows = [[one, c1], [one, c1], [zero, zero], [zero, zero]]
        got = bi_log_in_u(BiSeries(rows, 3, 1))
        assert [got.coefficient(i, 0) for i in range(4)] == \
            [zero, one, CoeffPoly.const(Fraction(-1, 2)), CoeffPoly.const(Fraction(1, 3))]
        assert all(not got.coefficient(i, 1) for i in range(4))

    def test_head_constant_must_be_one(self):
        rows = [[CoeffPoly.const(2), zero], [one, zero]]
        with pytest.raises(SeriesError, match="constant term 1"):
            bi_log_in_u(BiSeries(rows, 1, 1))
        with pytest.raises(SeriesError, match="constant term 1"):
            bi_log_in_u(BiSeries([[c1, zero], [one, zero]], 1, 1))


class TestJsonAndRender:
    def test_series_json_round_trip(self):
        f = laurent_recip(seed_series(4))
        blob = f.to_json_obj()
        back = LaurentSeries.from_json_obj(blob)
        assert back == f

    def test_exact_series_json(self):
        s = z_series()
        blob = s.to_json_obj()
        assert blob["order"] is None
        assert LaurentSeries.from_json_obj(blob) == s

    def test_render(self):
        f = seed_series(3)
        assert f.render() == "z + c1*z^2 + c2*z^3"
        h = laurent_recip(seed_series(3))
        assert h.render().startswith("z^-1 - c1")

    def test_wpoly_json_round_trip(self):
        p = WPoly([c2 * 2 - c1 * c1, c1 * 2, one])
        assert WPoly.from_json_obj(p.to_json_obj()) == p

    def test_laurent_wpoly_json_round_trip(self):
        lam = LaurentWPoly({-1: -one, 0: c1 * -3, 1: c1 * c1 - c2 * 4})
        assert LaurentWPoly.from_json_obj(lam.to_json_obj()) == lam
