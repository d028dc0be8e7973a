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
from faberfields.polyring import CoeffPoly, c, mono_values
from faberfields.reports import IdentityPair
from faberfields.series import seed_series
from faberfields import suites

from .oracles import termwise_specialize
from .strategies import coeff_polys, rationals

sweep_polys = st.one_of(st.just(CoeffPoly.zero()), rationals.map(CoeffPoly.const),
                        coeff_polys)
values4 = st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                      allow_infinity=False),
                   min_size=4, max_size=4)


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
        rep = contour_check(zero_seed(), 2, 0.3, 0.6, 512)
        assert abs(rep.lhs) < 1e-12
        assert abs(rep.rhs) < 1e-12
        assert rep.ok

    def test_koebe_all_p(self):
        # z/(1 - rho z)^2 is univalent for |z| < 1/|rho| = 2, either sign.
        for rho in (Fraction(1, 2), Fraction(-1, 2)):
            seed = koebe_seed(rho)
            assert seed.univalence_radius == 2.0
            for p in range(5):
                rep = contour_check(seed, p, 0.3, 0.6, 4096)
                assert rep.status == "ok"
                assert rep.gap <= 1e-9
                assert rep.self_gap <= 1e-11

    def test_p0_reproduces_weight_zero_field(self):
        # p = 0: the integral equals z f'(z) - f(z) at the seed.
        seed = koebe_seed(Fraction(1, 2))
        z = 0.3
        rep = contour_check(seed, 0, z, 0.6, 2048)
        want = z * seed.fprime(z) - seed.f(z)
        assert abs(rep.lhs - want) < 1e-10

    def test_complex_z(self):
        seed = koebe_seed(Fraction(1, 2))
        rep = contour_check(seed, 2, 0.2 + 0.1j, 0.6, 2048)
        assert rep.ok

    def test_contour_preconditions(self):
        seed = koebe_seed(Fraction(1, 2))
        with pytest.raises(ValueError):
            contour_check(seed, 1, 0.7, 0.6, 256)  # |z| >= r
        with pytest.raises(ValueError):
            contour_check(seed, 1, 0.3, 2.5, 256)  # r >= univalence radius
        with pytest.raises(ValueError):
            contour_check(random_seed(1), 1, 0.3, 0.6, 256)  # no evaluators

    @pytest.mark.parametrize("M", [0, -1])
    def test_no_quadrature_node_raises(self, M):
        # With no node the trapezoid mean divides by zero (M = 0) or sums
        # nothing; either way there is no quadrature to compare.
        with pytest.raises(ValueError, match="M >= 1"):
            contour_check(koebe_seed(Fraction(1, 2)), 1, 0.3, 0.6, M)

    def test_json_shape(self):
        rep = contour_check(zero_seed(), 1, 0.3, 0.6, 256)
        obj = rep.to_json_obj()
        assert obj["check"] == "contour"
        assert obj["z"] == [0.3, 0.0]
        assert set(obj) >= {"p", "r", "M", "lhs", "rhs", "gap"}


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
        # One table over the monomials of all polynomials, as a sweep draw
        # fills it; zero, constant-only, Fraction-coefficient and random ones.
        vals = dict(enumerate(values, 1))
        table = mono_values({m: None for p in polys for m in p.terms}, vals)
        for poly in polys:
            got = _bits(complex(poly.evaluate(table)))
            assert got == _bits(complex(poly.specialize(vals)))
            assert got == _bits(complex(termwise_specialize(poly, vals)))

    def test_one_table_per_draw(self, monkeypatch):
        tables = []

        def counted(monos, values):
            tables.append(len(monos))
            return mono_values(monos, values)

        monkeypatch.setattr(numeric_oracle, "mono_values", counted)
        pairs = suites.collect_pairs(order=2)
        assert numeric_identity_sweep(pairs, draws=3).passed
        distinct = {m for p in pairs for side in (p.lhs, p.rhs) for m in side.terms}
        assert tables == [len(distinct)] * 3
