import hashlib
import sys
import weakref
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faberfields
from faberfields import faberkernel, inversion, kirillov, polyring, series
from faberfields.faberkernel import (
    EliminationError,
    _elimination_family,
    _f_power,
    _phi_generating_rows,
    _seed,
    a_field_direct,
    a_field_grunsky,
    diag_a,
    diag_a_grunsky,
    elimination_pairs,
    faber_derivative_pairs,
    faber_polys,
    gen_identity_pairs,
    grunsky_compose,
    grunsky_log,
    grunsky_symmetry_check,
    lambda_direct,
    lambda_from_t,
    phi_generating_pairs,
    phi_p,
    route_equivalence_pairs,
    t_from_faber,
    t_polys,
)
from faberfields.inversion import _reverse_powers, _reversion, reverse_table
from faberfields.kirillov import inverse_deriv_coeffs
from faberfields.polyring import CoeffPoly, c
from faberfields.series import (
    LaurentSeries,
    LaurentWPoly,
    WPoly,
    const_series,
    laurent_pow,
    laurent_recip,
    scaled_sum,
    seed_series,
)
from faberfields.suites import run_suite, suite_report

from .oracles import (
    dense_grunsky_log,
    horner_grunsky_compose,
    product_f_power,
    recip_inverse_deriv_coeffs,
    recip_r_series,
    scale_add_eval,
    seed_order_elimination_family,
    series_agree,
    squared_s_series,
)

c1, c2, c3 = c(1), c(2), c(3)
one = CoeffPoly.one()
zero = CoeffPoly.zero()

ZERO_VALUES = {n: 0 for n in range(1, 40)}


#: The product-based routes that no table builder may reach: the reciprocal
#: series, the repeated-product power and evaluation by walking powers.
PRODUCT_ROUTES = ((series, "laurent_recip"), (series, "laurent_pow"),
                  (series.WPoly, "eval_at"), (series.LaurentWPoly, "eval_at"))


def patch_everywhere(monkeypatch, targets, replacement):
    """Bind ``replacement`` to every name that binds an (owner, name) of
    ``targets`` in a ``faberfields`` module or class, so a module that
    imported it by value is covered too."""
    originals = [vars(owner)[name] for owner, name in targets]
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname.split(".")[0] != "faberfields":
            continue
        owners = [mod] + [obj for obj in vars(mod).values()
                          if isinstance(obj, type) and obj.__module__ == modname]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if any(value is orig for orig in originals):
                    monkeypatch.setattr(owner, key, replacement)


def refuse_everywhere(monkeypatch, targets, message):
    """Make each (owner, name) in ``targets`` raise under every name that binds it."""
    def refuse(*args, **kwargs):
        raise AssertionError(message)

    patch_everywhere(monkeypatch, targets, refuse)


def empty_caches(monkeypatch):
    """Bind an empty copy of every cached builder and empty streams for the
    test, so the builders it reaches, cached or not, run their own code and
    kernels under its patches; the warm caches and streams come back
    untouched afterwards, holding nothing built under them."""
    for mod in (faberkernel, inversion, kirillov):
        for name, fn in list(vars(mod).items()):
            if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__:
                patch_everywhere(monkeypatch, ((mod, name),),
                                 lru_cache(maxsize=None)(fn.__wrapped__))
        monkeypatch.setattr(mod, "_STREAMS", {})


@pytest.fixture
def cold_caches(monkeypatch):
    empty_caches(monkeypatch)


def specialized_entries(obj, values):
    if isinstance(obj, WPoly):
        return [p.specialize(values) for p in obj.coeffs]
    return {e: p.specialize(values) for e, p in obj.entries.items() if
            p.specialize(values)}


class TestFaberFamily:
    def test_printed_first_three(self):
        fam = faber_polys(3)
        assert fam.poly(1) == WPoly([c1, one])
        assert fam.poly(2) == WPoly([c2 * 2 - c1 * c1, c1 * 2, one])
        assert fam.poly(3) == WPoly(
            [CoeffPoly.var(1, 3) - c1 * c2 * 3 + c3 * 3, c2 * 3, c1 * 3, one])

    def test_monic_with_subleading(self):
        fam = faber_polys(6)
        for n in range(1, 7):
            p = fam.poly(n)
            assert p.degree == n
            assert p.coefficient(n) == one
            assert p.coefficient(n - 1) == c1 * n

    def test_zero_seed_gives_pure_powers(self):
        fam = faber_polys(4)
        for n in range(1, 5):
            vals = specialized_entries(fam.poly(n), ZERO_VALUES)
            assert vals[n] == 1
            assert all(not v for k, v in enumerate(vals) if k != n)

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            faber_polys(3).poly(4)

    def test_derivative_identity(self):
        assert suite_report("faber-derivative", faber_derivative_pairs(6)).passed


class TestTFamily:
    def test_printed_values(self):
        fam = t_polys(3)
        assert fam.poly(0) == WPoly([one])
        assert fam.poly(1) == WPoly([c1 * 3, one])
        assert fam.poly(2) == WPoly([c1 * c1 + c2 * 5, c1 * 4, one])
        assert fam.poly(3) == WPoly(
            [-CoeffPoly.var(1, 3) + c1 * c2 * 4 + c3 * 7,
             c1 * c1 * 4 + c2 * 6, c1 * 5, one])

    def test_zero_seed(self):
        fam = t_polys(3)
        vals = specialized_entries(fam.poly(3), ZERO_VALUES)
        assert vals[3] == 1 and not any(vals[:3])

    def test_routes_agree(self):
        assert t_polys(7).entries == t_from_faber(7).entries


class TestDiagonal:
    def test_first_entry(self):
        assert diag_a(1).poly(1) == c1 * 2

    def test_second_entry(self):
        # a_2^2 = 4 c2 - c1^2, from squaring z f'/f by hand.
        assert diag_a(2).poly(2) == c2 * 4 - c1 * c1

    def test_zero_seed(self):
        d = diag_a(4)
        assert all(d.poly(p).specialize(ZERO_VALUES) == 0 for p in range(1, 5))

    def test_weight_homogeneous(self):
        d = diag_a(7)
        for p in range(1, 8):
            assert d.poly(p).is_homogeneous(p)

    def test_routes_agree(self):
        assert diag_a(7).entries == diag_a_grunsky(7).entries


class TestGrunsky:
    def test_beta_11(self):
        assert grunsky_log(1, 1).beta(1, 1) == c1 * c1 - c2

    def test_beta_12(self):
        assert grunsky_log(1, 2).beta(1, 2) == c1 * c2 * 2 - CoeffPoly.var(1, 3) - c3

    def test_zero_seed(self):
        t = grunsky_log(3, 3)
        assert all(t.beta(n, k).specialize(ZERO_VALUES) == 0
                   for n in range(1, 4) for k in range(1, 4))

    def test_symmetry_small(self):
        assert grunsky_symmetry_check(5).passed

    def test_symmetry_derived_entry(self):
        t = grunsky_log(2, 2)
        assert t.beta(2, 1) == t.beta(1, 2) * 2

    def test_compose_row_matches_reciprocal_expansion(self):
        # F_1(1/f(z)) = 1/f(z) + c1 = 1/z + sum beta_{1,k} z^k.
        table = grunsky_compose(1, 4)
        h = laurent_recip(seed_series(7)) + c1
        for k in range(1, 5):
            assert table.beta(1, k) == h.coefficient(k)

    def test_routes_agree_small(self):
        a = grunsky_log(5, 5)
        b = grunsky_compose(5, 5)
        assert all(a.beta(n, k) == b.beta(n, k)
                   for n in range(1, 6) for k in range(1, 6))

    def test_weight_homogeneous(self):
        for t in (grunsky_log(4, 4), grunsky_log(8, 8), grunsky_compose(8, 8)):
            for n in range(1, t.n_max + 1):
                for k in range(1, t.k_max + 1):
                    assert t.beta(n, k).is_homogeneous(n + k), (t.provenance, n, k)

    @pytest.mark.parametrize("N, K", [(1, 1), (1, 8), (8, 1), (2, 5), (5, 2),
                                      (4, 4), (6, 6), (8, 8), (3, 9), (9, 3)])
    def test_matches_dense_oracle(self, N, K):
        assert grunsky_log(N, K).entries == dense_grunsky_log(N, K)

    @pytest.mark.parametrize("N, K", [(1, 1), (1, 8), (8, 1), (4, 4), (8, 8),
                                      (3, 9), (9, 3)])
    def test_compose_matches_horner_oracle(self, N, K):
        assert grunsky_compose(N, K).entries == horner_grunsky_compose(N, K)

    def test_compose_avoids_reciprocal_and_horner(self, monkeypatch, cold_caches):
        # The compose route reads F_n(1/f) off kernel powers f^-m; the
        # reciprocal series and evaluation by walking powers stay with the
        # oracle.
        refuse_everywhere(monkeypatch, PRODUCT_ROUTES,
                          "the compose route reached a reciprocal or Horner step")
        table = grunsky_compose.__wrapped__(3, 3)
        assert table.beta(1, 1) == c1 * c1 - c2

    def test_log_route_avoids_reciprocal_and_power_kernels(self, monkeypatch, cold_caches):
        # grunsky_compose and the power ladders stand on these; the log route
        # must not, or the two routes of the Grunsky check share code.
        refuse_everywhere(monkeypatch, PRODUCT_ROUTES + (
            (series, "unit_pow"), (faberkernel, "_r_series"), (faberkernel, "_f_power")),
            "the log route reached a reciprocal or power kernel")
        table = grunsky_log.__wrapped__(6, 6)
        assert table.beta(1, 1) == c1 * c1 - c2


class TestLambda:
    def test_printed_values(self):
        fam = lambda_direct(3)
        assert fam.poly(0) == LaurentWPoly({1: -one})
        assert fam.poly(1) == LaurentWPoly({0: -one, 1: c1 * -2})
        assert fam.poly(2) == LaurentWPoly(
            {-1: -one, 0: c1 * -3, 1: -(c2 * 4 - c1 * c1)})
        assert fam.poly(3) == LaurentWPoly(
            {-2: -one, -1: c1 * -4, 0: -(c1 * c1 + c2 * 5),
             1: -(c3 * 6 - c1 * c2 * 2)})

    def test_lambda_one_from_t_route(self):
        # Lambda_1 = -T_0(1/u) - a_1^1 u = -1 - 2 c1 u.
        fam = lambda_from_t(1)
        assert fam.poly(1) == LaurentWPoly({0: -one, 1: c1 * -2})

    def test_zero_seed_gives_negative_reciprocal_powers(self):
        fam = lambda_direct(4)
        for p in range(5):
            vals = specialized_entries(fam.poly(p), ZERO_VALUES)
            assert vals == {1 - p: -1}

    def test_routes_agree(self):
        assert lambda_direct(7).entries == lambda_from_t(7).entries

    def test_structural_form(self):
        fam = lambda_direct(8)
        for p in range(2, 9):
            lam = fam.poly(p)
            assert lam.min_exponent == 1 - p
            assert lam.max_exponent == 1
            assert lam.coefficient(1 - p) == -one
            assert lam.coefficient(2 - p) == c(1) * -(p + 1)
            # u^1 coefficient is -(2p c_p + gamma) with gamma free of c_j, j >= p.
            gamma = -(lam.coefficient(1)) - c(p) * (2 * p)
            assert all(j < p for j in gamma.variables())
            assert gamma.is_homogeneous(p)

    def test_coefficient_weights(self):
        fam = lambda_direct(6)
        for p in range(7):
            for e, poly in fam.poly(p).entries.items():
                n = e - 1 + p  # coefficient of u^(n+1-p) has weight n
                assert poly.is_homogeneous(n)


class TestPhi:
    def test_phi_zero_is_minus_seed(self):
        f = seed_series(6)
        assert series_agree(phi_p(0, 6), -f, through=6) is None

    def test_phi_one(self):
        f = seed_series(6)
        want = (f.scale(c1 * -2) - 1).truncate(6)
        assert series_agree(phi_p(1, 6), want, through=6) is None

    def test_phi_zero_seed_specializes_to_monomial(self):
        s = phi_p(3, 5)
        vals = {m: s.coefficient(m).specialize(ZERO_VALUES)
                for m in range(s.valuation, 6)}
        assert vals[-2] == -1
        assert all(not v for m, v in vals.items() if m != -2)

    def test_generating_form(self):
        assert suite_report("phi-generating", phi_generating_pairs(4, 7)).passed

    def test_phi_p_stands_apart_from_scaled_sum(self, monkeypatch, cold_caches):
        # phi-generating compares the scaled_sum rows with phi_p, which
        # evaluates Lambda_p at f by walking powers; that side must build
        # with the sum kernel refused.
        rows = _phi_generating_rows(6, 10)
        refuse_everywhere(monkeypatch, ((series, "scaled_sum"), (series, "add_scaled"),
                                        (series, "bucket_series")),
                          "phi_p reached the scaled-sum kernel")
        for p, row in enumerate(rows):
            assert phi_p(p, 10) == row, p


class TestAField:
    def test_row_zero(self):
        table = a_field_direct(2, 6)
        for k in range(1, 7):
            assert table.A(0, k) == c(k) * k

    def test_a11(self):
        assert a_field_direct(1, 1).A(1, 1) == c2 * 3 - c1 * c1 * 2

    def test_a0p_zero(self):
        table = a_field_direct(4, 4)
        assert all(table.A(p, 0) == zero for p in range(5))

    def test_b_row_one(self):
        table = a_field_direct(1, 5)
        for k in range(1, 6):
            assert table.B(1, k) == c(k + 1) * (k + 2)
        assert table.B(1, 0) == c1 * 2

    def test_grunsky_route_b11_and_a11(self):
        table = a_field_grunsky(1, 1)
        assert table.B(1, 1) == c2 * 3
        assert table.A(1, 1) == c2 * 3 - c1 * 2 * c1

    def test_zero_seed(self):
        table = a_field_direct(3, 5)
        assert all(table.A(p, n).specialize(ZERO_VALUES) == 0
                   for p in range(4) for n in range(6))

    def test_weight_homogeneous(self):
        table = a_field_direct(4, 5)
        for p in range(5):
            for n in range(1, 6):
                assert table.A(p, n).is_homogeneous(n + p)

    def test_routes_agree_small(self):
        a = a_field_direct(5, 5)
        b = a_field_grunsky(5, 5)
        assert all(a.A(p, n) == b.A(p, n) for p in range(6) for n in range(6))

    @pytest.mark.parametrize("route", [a_field_direct, a_field_grunsky])
    def test_b_is_a_plus_diagonal_times_c(self, route):
        # B_k^p = A_k^p + a_p^p c_k, with c_0 = 1, is formed on read.
        table = route(4, 6)
        diag = diag_a(4)
        for p in range(1, 5):
            assert table.B(p, 0) == diag.poly(p)
            for k in range(7):
                ck = c(k) if k else one
                assert table.B(p, k) == table.A(p, k) + diag.poly(p) * ck, (p, k)


class TestElimination:
    def test_small(self):
        assert suite_report("elimination", elimination_pairs(4)).passed

    def test_perturbation_breaks_elimination(self):
        # The elimination property pins Lambda_p uniquely: bumping any single
        # stored coefficient leaves a surviving low power.
        f = seed_series(14)
        lam = lambda_direct(2).poly(2)
        for e in lam.entries:
            bumped = lam + LaurentWPoly({e: one})
            e_ser = f.derivative().shift(-1) + bumped.eval_at(f)
            assert any(e_ser.coefficient(m)
                       for m in range(e_ser.valuation, 2)), f"exponent {e}"

    def test_series_helper_matches_table(self):
        table = a_field_direct(3, 4)
        e = _elimination_family(2, 6)[2]
        for n in range(1, 5):
            assert e.coefficient(n + 1) == table.A(2, n)


class TestSeedPowers:
    """The kernel's powers f^e against repeated products and reciprocals."""

    @given(st.integers(min_value=-8, max_value=16), st.integers(min_value=-8, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_against_laurent_pow(self, top, e):
        # f^e through z^top from the repeated products of the shortest seed
        # that knows it there; f^e with e > top is zero through z^top.
        f = _seed(max(top + 1 - e, 1))
        want = laurent_pow(f, e) if e else const_series(1)
        got = _f_power(e, top)
        assert got.order == top
        assert got == want.truncate(top)

    @pytest.mark.parametrize("P, top", [(0, 3), (2, 1), (2, 6), (5, 12), (8, 18)])
    def test_elimination_family_members(self, P, top):
        # Every member rebuilt with f^e = laurent_pow(f, e) for e < 0, each
        # from the shortest seed that knows it through z^top.
        f = _seed(top + P)
        lams = lambda_direct(P)
        pows = {0: const_series(1), 1: f}
        pows.update((e, laurent_pow(_seed(top + 1 - e), e)) for e in range(-1, -P, -1))
        for p, got in enumerate(_elimination_family(P, top)):
            want = f.derivative().shift(1 - p)
            for e, coeff in lams.poly(p).entries.items():
                want = want + pows[e].truncate(top).scale(coeff)
            assert got.order == top, p
            assert got == want.truncate(top), p


class _WeakSeries(LaurentSeries):
    """A LaurentSeries that a weak reference can follow."""


class TestEliminationFamily:
    """The family takes the seed powers one at a time, in the order in which
    each Lambda_p lists its entries."""

    def test_one_seed_power_alive_at_a_time(self, monkeypatch):
        P, top = 5, 12
        want = _elimination_family(P, top)
        built = []
        real = faberkernel._f_power

        def tracked(e, top):
            assert all(ref() is None for ref in built), f"f^{e} built while a power is held"
            power = real(e, top)
            held = object.__new__(_WeakSeries)
            held.valuation, held.order, held.coeffs = power.valuation, power.order, power.coeffs
            built.append(weakref.ref(held))
            return held

        monkeypatch.setattr(faberkernel, "_f_power", tracked)
        assert _elimination_family.__wrapped__(P, top) == want
        assert len(built) == P + 1
        assert all(ref() is None for ref in built)

    #: sha256 of the terms of every E_p coefficient, in order, as the builder
    #: that summed each E_p in one ``scaled_sum`` over all powers gave them.
    @pytest.mark.parametrize("P, top, digest", [
        (0, 0, "35240b4eed6e801f1185d9d28bc60bd7854f1dac8881efd99adb9bd9a95e2c56"),
        (0, 3, "9e201bc88f03e053dcdeacd53f99ba7800793e8c55f71692e5f39e4ded1beaf2"),
        (1, 1, "859acb1725dc3b276fa75421a3dc4fdc4509394c6bea83ef97ad69ffcd7fef58"),
        (2, -1, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        (2, 6, "d00c63f3bcd3819d3d82d6a65c9910cc866b459eb1f9c5bb9ad7886c0febc530"),
        (3, 1, "f969a1797581023f315438ea6c6225008d5aa2f0a32499119880d9ad41b0d070"),
        (5, 12, "f96c7e93cb40612d68707b5507946575a5811587620dca9cf3ddae74a1a40c49"),
        (5, 20, "2eaea49c5c35deaafc9ce4ec1ac575f20bdfe9b863f2f1e254a56235bd7c8ff1"),
        (8, 26, "f8b6548fa85ae6b70e1d9c0504613f14382f5178b838b6a10a81e3533bb67287"),
    ])
    def test_term_order_pinned(self, P, top, digest):
        family = _elimination_family(P, top)
        assert [e.order for e in family] == [top] * (P + 1)
        items = [(p, m, list(e.coefficient(m).terms.items()))
                 for p, e in enumerate(family) for m in range(e.valuation, top + 1)]
        assert hashlib.sha256(repr(items).encode()).hexdigest() == digest


class TestOneKernel:
    """Every table builder reaches powers of the seed only through unit_pow."""

    #: Arguments for every table builder of ``faberkernel``.
    BUILDER_ARGS = {
        "_seed": (6,), "_r_series": (6,), "_s_series": (6,), "faber_polys": (4,),
        "t_polys": (4,), "t_from_faber": (4,), "diag_a": (4,), "diag_a_grunsky": (4,),
        "grunsky_log": (3, 3), "grunsky_compose": (3, 3), "lambda_direct": (4,),
        "lambda_from_t": (4,), "_elimination_family": (4, 6),
        "a_field_direct": (3, 4), "a_field_grunsky": (3, 4),
    }
    #: The builders that no caller reads twice, so they keep no cache.
    UNCACHED = {"t_from_faber", "diag_a_grunsky", "lambda_from_t", "a_field_grunsky"}

    def build_all(self, skip=()):
        """Run each builder's own code, past its cache if it has one, and
        return what each built, by name."""
        built = {}
        for name, args in self.BUILDER_ARGS.items():
            if name not in skip:
                fn = getattr(faberkernel, name)
                built[name] = getattr(fn, "__wrapped__", fn)(*args)
        return built

    def test_builders_avoid_product_routes(self, monkeypatch, cold_caches):
        cached = {name for name, obj in vars(faberkernel).items()
                  if hasattr(obj, "cache_info")}
        assert cached == set(self.BUILDER_ARGS) - self.UNCACHED
        refuse_everywhere(monkeypatch, PRODUCT_ROUTES,
                          "a builder reached a reciprocal, product power or evaluator")
        self.build_all()
        inverse_deriv_coeffs(8)
        _reversion.__wrapped__(10)
        pows = _reverse_powers(range(-4, 5), 10)
        assert sorted(pows) == list(range(-4, 5))

    def test_builders_read_the_seed_only_through_seed(self, monkeypatch, cold_caches):
        # The one reader of c_k: with seed_series and CoeffPoly.var refused,
        # every table builder still builds from seeds handed out by _seed.
        seeds = {n: seed_series(n) for n in range(1, 40)}
        want = recip_inverse_deriv_coeffs(8)
        patch_everywhere(monkeypatch, ((faberkernel, "_seed"),), seeds.__getitem__)
        refuse_everywhere(monkeypatch, ((series, "seed_series"), (polyring.CoeffPoly, "var")),
                          "a builder read the seed past faberkernel._seed")
        self.build_all(skip=("_seed",))
        assert inverse_deriv_coeffs(8) == want
        _reversion.__wrapped__(10)
        table = reverse_table(-4, 4, 8)
        assert table.delta(1, 1) == -c1

    def test_grunsky_combinations_avoid_the_other_routes(self, monkeypatch, cold_caches):
        # routes-diag and routes-afield compare two sides that share no
        # builder: the Grunsky combinations stand on grunsky_log only, ...
        refuse_everywhere(monkeypatch, (
            (faberkernel, "_s_series"), (faberkernel, "_marker_family"),
            (faberkernel, "_elimination_family"), (series, "unit_pow")),
            "a Grunsky combination reached a power-kernel route")
        diag_a_grunsky(6)
        a_field_grunsky(5, 6)

    def test_direct_tables_avoid_the_log_kernel(self, monkeypatch, cold_caches):
        # ... and the direct tables never reach the log kernel.
        refuse_everywhere(monkeypatch, ((faberkernel, "grunsky_log"), (series, "bi_log_in_u")),
                          "a direct table reached the Grunsky log kernel")
        diag_a(6)
        a_field_direct(5, 6)

    def test_corrupted_marker_row_fails_the_routes_suite(self, monkeypatch, cold_caches):
        # F, T and Lambda all read _marker_family, so routes-t and
        # routes-lambda stand on it on both sides; the log route of the
        # Grunsky table must catch a wrong row ([z^3] front f^1 gains c1).
        real = faberkernel._marker_family

        def corrupted(name, front, N):
            rows = real(name, front, N)
            if N >= 3:
                rows[3][1] = rows[3][1] + c1
            return rows

        monkeypatch.setattr(faberkernel, "_marker_family", corrupted)
        try:
            report = run_suite("routes", order=5)
        except EliminationError:
            return
        assert not report.passed

    def test_seed_powers_come_only_through_f_power(self, monkeypatch):
        # With the power kernel refused and _f_power taken by repeated
        # products instead, every builder, its cached inputs rebuilt too,
        # builds what it built before: no builder takes a power past _f_power.
        want = self.build_all()
        empty_caches(monkeypatch)
        refuse_everywhere(monkeypatch, ((faberkernel, "unit_pow"),),
                          "a builder reached unit_pow past _f_power")
        patch_everywhere(monkeypatch, ((faberkernel, "_f_power"),), product_f_power)
        assert self.build_all() == want

    @pytest.mark.parametrize("order", range(13))
    def test_against_reciprocal_and_square(self, order):
        assert faberkernel._r_series(order) == recip_r_series(order)
        assert faberkernel._s_series(order) == squared_s_series(order)
        assert inverse_deriv_coeffs(order) == recip_inverse_deriv_coeffs(order)


class TestStreams:
    """Tables read off grown streams equal tables built on cold ones."""

    #: Cold builds by (builder, args), each made once on empty streams.
    COLD: dict = {}

    def cold(self, name, *args):
        key = (name, args)
        if key not in self.COLD:
            with pytest.MonkeyPatch.context() as mp:
                empty_caches(mp)
                self.COLD[key] = getattr(faberkernel, name)(*args)
        return self.COLD[key]

    @given(st.lists(st.tuples(st.sampled_from(["grunsky_log", "faber_polys", "t_polys",
                                               "lambda_direct"]),
                              st.integers(1, 6), st.integers(1, 6)),
                    min_size=2, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_grown_equals_cold(self, requests):
        # Requests in any order, growing and shrinking, on one set of
        # streams: each table equals its oracle or its cold build, and
        # keeps its own bounds however far the streams have grown.
        with pytest.MonkeyPatch.context() as mp:
            empty_caches(mp)
            for name, n, k in requests:
                if name == "grunsky_log":
                    table = faberkernel.grunsky_log(n, k)
                    assert table.entries == dense_grunsky_log(n, k)
                    for bad in ((n + 1, 1), (1, k + 1)):
                        with pytest.raises(IndexError):
                            table.beta(*bad)
                    continue
                family = getattr(faberkernel, name)(n)
                assert family.entries == self.cold(name, n).entries
                with pytest.raises(IndexError):
                    family.poly(n + 1)

    def test_grown_grunsky_makes_the_products_of_one_cold_build(self, monkeypatch):
        # A desk session n = 2..10 computes each entry of -D_u/D once, so it
        # makes exactly the term-pair products of one cold 10 x 10 table.
        pairs = [0]
        real = polyring.accumulate_product

        def counting(bucket, a, b):
            pairs[0] += len(a.terms) * len(b.terms)
            real(bucket, a, b)

        patch_everywhere(monkeypatch, ((polyring, "accumulate_product"),), counting)
        counts = []
        for sizes in (range(2, 11), [10]):
            with pytest.MonkeyPatch.context() as mp:
                empty_caches(mp)
                pairs[0] = 0
                for n in sizes:
                    faberkernel.grunsky_log(n, n)
                counts.append(pairs[0])
        assert counts[0] == counts[1] > 0

    def test_corruption_stays_inside_cold_caches(self):
        # A build under a corrupting patch writes into the test's own
        # streams, never into the warm ones the real builder reads after.
        want = faber_polys(5)
        with pytest.MonkeyPatch.context() as mp:
            empty_caches(mp)
            real = faberkernel._marker_family

            def corrupted(name, front, N):
                rows = real(name, front, N)
                rows[3][1] = rows[3][1] + c1
                return rows

            mp.setattr(faberkernel, "_marker_family", corrupted)
            assert faberkernel.faber_polys(5) != want
        assert faber_polys.__wrapped__(5) == want
        assert self.cold("faber_polys", 5) == want

    def test_a_front_that_reaches_n_builds_no_r(self, cold_caches):
        # The fronts z f'/f and z f'^2/f are streams: once they reach z^10,
        # a falling N reads them and builds no r = z/f.
        faber, t = faberkernel.faber_polys(10), faberkernel.t_polys(10)
        assert faberkernel._r_series.cache_info().currsize == 1
        for n in range(9, 1, -1):
            assert faberkernel.faber_polys(n).entries == faber.entries[:n]
            assert faberkernel.t_polys(n).entries == t.entries[:n + 1]
        assert faberkernel._r_series.cache_info().currsize == 1

    def test_clear_caches_empties_every_cache_and_stream(self, cold_caches):
        def build():
            return (faberkernel.faber_polys(5), faberkernel.grunsky_log(4, 3),
                    reverse_table(-2, 2, 6), kirillov.check_thm42(2, 3),
                    kirillov.lemma41_check(2, 5))

        want = build()
        assert set(kirillov._STREAMS) == {"L_k Lambda_q", "1/f'", "lemma41"}
        faberfields.clear_caches()
        for mod in (faberkernel, inversion, kirillov):
            assert mod._STREAMS == {}
            for fn in vars(mod).values():
                if hasattr(fn, "cache_info"):
                    assert fn.cache_info().currsize == 0, fn
        assert build() == want


def terms_of(poly, pows: dict) -> list:
    """The (f^e, poly[e]) terms of poly(f) over a table {e: f^e}."""
    return [(pows[e], coeff) for e, coeff in poly.entries.items()]


class TestEvalOnPowers:
    """Evaluation on a table of seed powers, one ``scaled_sum`` of its terms."""

    @pytest.mark.parametrize("N, K", [(1, 1), (3, 4), (5, 6)])
    def test_matches_scale_and_add(self, N, K):
        # The bucket sum against one scaled series and one series sum per term.
        pows = {-m: _f_power(-m, K) for m in range(N + 1)}
        for n in range(1, N + 1):
            poly = faber_polys(N).poly(n).reciprocal_substitute()
            want = scale_add_eval(poly, pows)
            assert want.order == K
            assert scaled_sum(terms_of(poly, pows), K) == want

    def test_base_joins_the_buckets(self):
        # z^(1-p) f' of E_p is one more term of the same sum.
        P, top = 3, 7
        f = _seed(top + P)
        pows = {e: _f_power(e, top) for e in range(1 - P, 2)}
        lam = lambda_direct(P).poly(P)
        base = f.derivative().shift(1 - P)
        want = (base + scale_add_eval(lam, pows)).truncate(top)
        assert scaled_sum(terms_of(lam, pows) + [(base, one)], top) == want

    def test_short_power_raises(self):
        with pytest.raises(series.OrderError):
            scaled_sum([(_f_power(-1, 2), one)], 3)

    def test_stops_at_top(self):
        got = scaled_sum([(_f_power(1, 9), c1)], 4)
        assert got.order == 4
        assert got == _f_power(1, 9).scale(c1).truncate(4)


class TestEliminationSeries:
    def test_matches_seed_order_family(self):
        # E_p read through z^(f_order - p), for p = 0..5 and f_order = 1..8,
        # is what the family keyed by seed order f_order gives; cells with
        # f_order <= p are the all-zero series known through z^(f_order - p).
        for p in range(6):
            for f_order in range(1, 9):
                got = _elimination_family(p, f_order - p)[p]
                assert got == seed_order_elimination_family(p, f_order)[p], (p, f_order)
                assert got.order == f_order - p, (p, f_order)
                if f_order <= p:
                    assert got.is_zero(), (p, f_order)

    def test_elimination_cells_start_at_one_minus_p(self):
        # E_0 read through z^1 is all zero; it adds only the cell m = 1.
        cells = [dict(pair.indices) for pair in elimination_pairs(3)]
        assert [(cell["p"], cell["m"]) for cell in cells] == \
            [(p, m) for p in range(4) for m in range(1 - p, 2)]


class TestGenIdentity:
    def test_small_rectangle(self):
        report = suite_report("gen-identity", gen_identity_pairs(3, 3))
        assert report.passed

    def test_first_cells(self):
        table = a_field_direct(1, 1)
        assert table.A(0, 1) == c1
        assert table.A(1, 1) == c2 * 3 - c1 * c1 * 2

    def test_zero_seed_rows_vanish(self):
        from faberfields.faberkernel import _gen_identity_rows

        rows = _gen_identity_rows(2, 3)
        for row in rows:
            for m in range(row.valuation, 4):
                assert row.coefficient(m).specialize(ZERO_VALUES) == 0


class TestRouteReport:
    def test_report_structure(self):
        report = suite_report("routes", route_equivalence_pairs(3, 2))
        assert report.passed
        assert report.suite == "routes"
        assert all(cell.ok for cell in report.cells)

    def test_insufficient_index_raises(self):
        with pytest.raises(IndexError):
            diag_a(2).poly(3)
        with pytest.raises(IndexError):
            grunsky_log(2, 2).beta(3, 1)
        with pytest.raises(IndexError):
            a_field_direct(2, 2).B(0, 1)
