from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberfields import numeric_oracle

from faberfields.numeric_oracle import (
    contour_check,
    koebe_seed,
    numeric_identity_sweep,
    random_seed,
    zero_seed,
)
from faberfields.polyring import CoeffPoly, MissingVariableError, MonoPlan, c
from faberfields.reports import IdentityPair
from faberfields.series import seed_series
from faberfields import suites

from .oracles import per_p_quadrature, termwise_specialize
from .strategies import coeff_polys, rationals

sweep_polys = st.one_of(st.just(CoeffPoly.zero()), rationals.map(CoeffPoly.const),
                        coeff_polys)
values4 = st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                      allow_infinity=False),
                   min_size=4, max_size=4)
exact_values4 = st.lists(rationals, min_size=4, max_size=4)


def recorded_plans(monkeypatch) -> list:
    """The sides of each plan the sweep builds, in order, as a list filled
    while the test runs."""
    plans = []

    class Recorded(MonoPlan):
        __slots__ = ()

        def __init__(self, polys):
            polys = list(polys)
            plans.append(polys)
            super().__init__(polys)

    monkeypatch.setattr(numeric_oracle, "MonoPlan", Recorded)
    return plans


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


class TestSeeds:
    def test_zero_seed(self):
        s = zero_seed()
        assert s.coeff(5) == 0
        assert s.f(0.3) == 0.3
        assert s.fprime(0.3) == 1

    def test_koebe_exact_coefficients(self):
        s = koebe_seed(Fraction(1, 2))
        assert s.coeff(1) == Fraction(1)
        assert s.coeff(2) == Fraction(3, 4)
        assert s.coeff(3) == Fraction(1, 2)
        assert s.univalence_radius == 2.0

    def test_koebe_closed_form_matches_series(self):
        # Truncated specialized seed versus the closed form, bounded by the
        # first omitted term magnitude.
        rho = Fraction(1, 2)
        s = koebe_seed(rho)
        N = 12
        f = seed_series(N)
        x = 0.4
        values = s.coeff_map(N)
        approx = sum(complex(f.coefficient(k).specialize(values)) * x ** k
                     for k in range(N + 1))
        exact = s.f(x)
        first_omitted = abs((N + 1) * float(rho) ** N * x ** (N + 1))
        assert abs(approx - exact) <= 2 * first_omitted

    def test_random_seed_bounds(self):
        s = random_seed(7, bound=0.5, nmax=30)
        for n in range(1, 31):
            assert abs(s.coeff(n)) <= (n + 1) * 0.5 + 1e-12

    def test_random_seed_reproducible(self):
        assert random_seed(3).coeff(5) == random_seed(3).coeff(5)

    def test_random_seed_range_limit(self):
        with pytest.raises(IndexError):
            random_seed(1, nmax=4).coeff(5)


class TestContour:
    def test_zero_seed_p2_vanishes(self):
        [rep] = contour_check(zero_seed(), [2], 0.3, 0.6, 512)
        assert abs(rep.lhs) < 1e-12
        assert abs(rep.rhs) < 1e-12
        assert rep.ok

    def test_koebe_all_p(self):
        # z/(1 - rho z)^2 is univalent for |z| < 1/|rho| = 2, either sign.
        for rho in (Fraction(1, 2), Fraction(-1, 2)):
            seed = koebe_seed(rho)
            assert seed.univalence_radius == 2.0
            reports = contour_check(seed, range(5), 0.3, 0.6, 4096)
            assert [rep.p for rep in reports] == list(range(5))
            for rep in reports:
                assert rep.status == "ok"
                assert rep.gap <= 1e-9
                assert rep.self_gap <= 1e-11

    def test_p0_reproduces_weight_zero_field(self):
        # p = 0: the integral equals z f'(z) - f(z) at the seed.
        seed = koebe_seed(Fraction(1, 2))
        z = 0.3
        [rep] = contour_check(seed, [0], z, 0.6, 2048)
        want = z * seed.fprime(z) - seed.f(z)
        assert abs(rep.lhs - want) < 1e-10

    def test_complex_z(self):
        seed = koebe_seed(Fraction(1, 2))
        [rep] = contour_check(seed, [2], 0.2 + 0.1j, 0.6, 2048)
        assert rep.ok

    def test_contour_preconditions(self):
        seed = koebe_seed(Fraction(1, 2))
        with pytest.raises(ValueError):
            contour_check(seed, [1], 0.7, 0.6, 256)  # |z| >= r
        with pytest.raises(ValueError):
            contour_check(seed, [1], 0.3, 2.5, 256)  # r >= univalence radius
        with pytest.raises(ValueError):
            contour_check(random_seed(1), [1], 0.3, 0.6, 256)  # no evaluators
        # phi_p has a pole of order p - 1 at z = 0, so any p >= 2 refuses it.
        with pytest.raises(ValueError, match="z = 0 is a pole of phi_2"):
            contour_check(seed, range(4), 0, 0.6, 256)
        assert all(rep.ok for rep in contour_check(seed, [0, 1], 0, 0.6, 256))

    @pytest.mark.parametrize("M", [0, -1])
    def test_no_quadrature_node_raises(self, M):
        # With no node the trapezoid mean divides by zero (M = 0) or sums
        # nothing; either way there is no quadrature to compare.
        with pytest.raises(ValueError, match="M >= 1"):
            contour_check(koebe_seed(Fraction(1, 2)), [1], 0.3, 0.6, M)

    def test_json_shape(self):
        [rep] = contour_check(zero_seed(), [1], 0.3, 0.6, 256)
        obj = rep.to_json_obj()
        assert obj["check"] == "contour"
        assert obj["z"] == [0.3, 0.0]
        assert set(obj) >= {"p", "r", "M", "lhs", "rhs", "gap"}

    @pytest.mark.parametrize("M", [1, 3, 512])
    @pytest.mark.parametrize("seed, z", [
        (koebe_seed(Fraction(1, 2)), 0.3),
        (koebe_seed(Fraction(-1, 2)), -0.2 + 0.1j),
    ])
    def test_one_pass_equals_per_p_quadrature(self, seed, z, M):
        # The shared node pass gives each p the sums of separate M- and
        # 2M-node runs, bit for bit.
        ps = range(7)
        reports = contour_check(seed, ps, z, 0.6, M)
        assert [rep.p for rep in reports] == list(ps)
        for p, rep in zip(ps, reports):
            lhs = per_p_quadrature(seed, p, z, 0.6, M)
            lhs2 = per_p_quadrature(seed, p, z, 0.6, 2 * M)
            assert _bits(rep.lhs) == _bits(lhs)
            assert rep.self_gap.hex() == abs(lhs - lhs2).hex()
            assert rep.gap.hex() == abs(lhs - rep.rhs).hex()


class TestSweep:
    def test_grunsky_symmetry_sweep(self):
        from faberfields.faberkernel import grunsky_symmetry_pairs

        rep = numeric_identity_sweep(grunsky_symmetry_pairs(5), draws=5)
        assert rep.passed

    def test_thm42_sweep(self):
        from faberfields.kirillov import thm42_pairs

        rep = numeric_identity_sweep(thm42_pairs(3, 3), draws=5)
        assert rep.passed

    def test_detects_wrong_identity(self):
        bad = [IdentityPair("broken", (("i", 0),), c(1), c(2))]
        rep = numeric_identity_sweep(bad, draws=3)
        assert not rep.passed
        assert "broken" in rep.first_failure.detail

    def test_detail_names_the_first_failing_pairs_own_error(self):
        near = IdentityPair("demo", (("i", 0),), CoeffPoly.zero(),
                            CoeffPoly.const(Fraction(1, 10**9)))
        far = IdentityPair("demo", (("i", 1),), CoeffPoly.zero(),
                           CoeffPoly.const(Fraction(4, 5)))
        rep = numeric_identity_sweep([near, far], draws=1)
        assert not rep.passed
        assert rep.first_failure.detail == \
            "demo[i=0] off by relative 1.000e-09 at random(2024)"

    def test_no_pair_raises(self):
        # An empty stream would report PASS with no cell, as report_from_pairs
        # refuses for the exact checks.
        with pytest.raises(ValueError, match="no identity pair"):
            numeric_identity_sweep([])

    @pytest.mark.parametrize("draws", [0, -2])
    def test_no_draw_raises(self, draws):
        pairs = list(suites.suite_pairs("grunsky-symmetry", 2))
        with pytest.raises(ValueError, match="draws >= 1"):
            numeric_identity_sweep(pairs, draws=draws)

    def test_small_order_all_suites(self):
        pairs = suites.collect_pairs(order=3)
        rep = numeric_identity_sweep(pairs, draws=3)
        assert rep.passed

    @given(st.lists(sweep_polys, min_size=1, max_size=4), values4)
    @settings(max_examples=200, deadline=None)
    def test_table_matches_specialize_bit_for_bit(self, polys, values):
        # One plan over all polynomials, as the sweep builds it; zero,
        # constant-only, Fraction-coefficient and random ones.
        vals = dict(enumerate(values, 1))
        for poly, got in zip(polys, MonoPlan(polys).evaluate(vals)):
            got = _bits(complex(got))
            assert got == _bits(complex(poly.specialize(vals)))
            assert got == _bits(complex(termwise_specialize(poly, vals)))

    @given(st.lists(sweep_polys, min_size=1, max_size=4),
           st.one_of(values4, exact_values4),
           st.sets(st.integers(min_value=1, max_value=4)))
    @settings(max_examples=300, deadline=None)
    def test_plan_matches_termwise_specialize(self, polys, values, absent):
        # Exact values give the same exact value and type, complex ones the
        # same bits; a missing c_j names the first index termwise meets.
        vals = {j: v for j, v in enumerate(values, 1) if j not in absent}
        try:
            want = [termwise_specialize(poly, vals) for poly in polys]
        except MissingVariableError as exc:
            with pytest.raises(MissingVariableError) as got:
                MonoPlan(polys).evaluate(vals)
            assert got.value.index == exc.index
            return
        got = MonoPlan(polys).evaluate(vals)
        assert [type(v) for v in got] == [type(v) for v in want]
        if all(isinstance(v, complex) for v in values):
            assert [_bits(complex(v)) for v in got] == [_bits(complex(v)) for v in want]
        else:
            assert got == want

    def test_one_plan_per_sweep(self, monkeypatch):
        plans, fills = [], []

        class Counted(MonoPlan):
            __slots__ = ()

            def __init__(self, polys):
                polys = list(polys)
                plans.append(len(polys))
                super().__init__(polys)

            def evaluate(self, values):
                fills.append(len(values))
                return super().evaluate(values)

        monkeypatch.setattr(numeric_oracle, "MonoPlan", Counted)
        pairs = suites.collect_pairs(order=2)
        assert numeric_identity_sweep(pairs, draws=3).passed
        # No side of a pair whose sides are equal term for term, in the same
        # order; both sides of every other pair.
        same = sum(list(p.lhs.terms.items()) == list(p.rhs.terms.items()) for p in pairs)
        assert 0 < same < len(pairs)
        assert plans == [2 * (len(pairs) - same)]
        assert len(fills) == 3

    def test_equal_sides_in_another_order_are_both_summed(self, monkeypatch):
        plans = recorded_plans(monkeypatch)
        lhs = c(1) + c(2) * Fraction(1, 3)
        rhs = c(2) * Fraction(1, 3) + c(1)
        assert lhs == rhs and list(lhs.terms) != list(rhs.terms)
        pairs = [IdentityPair("demo", (("i", 0),), lhs, rhs),
                 IdentityPair("demo", (("i", 1),), lhs, lhs * 1)]
        assert numeric_identity_sweep(pairs, draws=2).passed
        # lhs and rhs of the first pair, and no side of the second.
        assert len(plans) == 1 and len(plans[0]) == 2
        assert plans[0][0] is lhs and plans[0][1] is rhs

    def test_same_term_pairs_alone_pass_with_an_empty_plan(self, monkeypatch):
        plans = recorded_plans(monkeypatch)
        p = c(1) * c(2) + c(3) * Fraction(2, 7)
        pairs = [IdentityPair("same", (("i", 0),), p, p),
                 IdentityPair("same", (("i", 1),), p, p * 1),
                 IdentityPair("same", (("i", 2),), CoeffPoly.zero(), CoeffPoly.zero())]
        rep = numeric_identity_sweep(pairs, draws=3)
        assert plans == [[]]
        assert [(cell.indices, cell.ok, cell.detail) for cell in rep.cells] == \
            [((("draw", d), ("suite", "same")), True, "") for d in range(3)]

    def test_corrupted_side_still_fails_its_cell(self):
        pairs = list(suites.collect_pairs(order=2))
        i = next(i for i, p in enumerate(pairs)
                 if not numeric_oracle._same_terms(p.lhs, p.rhs) and p.lhs.variables())
        bad = pairs[i]
        pairs[i] = IdentityPair(bad.suite, bad.indices, bad.lhs, bad.rhs + c(1))
        rep = numeric_identity_sweep(pairs, draws=3)
        failed = [cell for cell in rep.cells if not cell.ok]
        assert [cell.indices for cell in failed] == \
            [(("draw", d), ("suite", bad.suite)) for d in range(3)]
        assert all(cell.detail.startswith(f"{bad.label()} off by relative")
                   for cell in failed)

    def test_order5_plan_holds_only_pairs_that_can_fail(self, monkeypatch):
        plans = recorded_plans(monkeypatch)
        pairs = suites.collect_pairs(order=5)
        assert numeric_identity_sweep(pairs, draws=1).passed
        # Both sides of every pair would be 48,892 term slots.
        assert sum(len(side.terms) for side in plans[0]) <= 4616
