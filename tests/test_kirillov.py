from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from faberfields import faberkernel, kirillov
from faberfields.faberkernel import (a_field_direct, a_field_grunsky, grunsky_log,
                                     lambda_direct)
from faberfields.kirillov import (
    check_negative_action,
    check_thm42,
    commutation_pairs,
    inverse_deriv_coeffs,
    lemma41_check,
    lemma41_pairs,
    make_L,
    negative_action_report,
    partial_derivation,
    recursion_pairs,
    sample_polynomials,
)
from faberfields.polyring import CoeffPoly, c
from faberfields.series import LaurentWPoly, WPoly, seed_series, z_series
from faberfields.suites import suite_report

from .oracles import partial_sum_apply, series_agree
from .strategies import coeff_polys
from .test_faberkernel import cold_caches, empty_caches  # noqa: F401 (fixture)
from .test_polyring import whole_fractions

c1, c2, c3 = c(1), c(2), c(3)
one = CoeffPoly.one()
zero = CoeffPoly.zero()


class TestEntries:
    def test_positive_entry_rule(self):
        L1 = make_L(1)
        assert L1.apply_poly(c2) == c1 * 2
        assert L1.apply_poly(c1) == one

    def test_zero_operator_scales_by_weight(self):
        L0 = make_L(0)
        assert L0.apply_poly(c3) == c3 * 3
        assert L0.apply_poly(c1 * c2) == c1 * c2 * 3

    def test_negative_entry_from_table(self):
        op = make_L(-1, a_field_direct(1, 3))
        assert op.apply_poly(c1) == c2 * 3 - c1 * c1 * 2

    def test_negative_requires_table(self):
        with pytest.raises(ValueError):
            make_L(-2)

    def test_insufficient_table_range(self):
        op = make_L(-1, a_field_direct(1, 2))
        with pytest.raises(IndexError):
            op.coefficient(5)
        with pytest.raises(IndexError):
            make_L(-3, a_field_direct(2, 4))


class TestApply:
    def test_positive_action_on_seed(self):
        f = seed_series(8)
        for k in range(1, 4):
            got = make_L(k).apply(f)
            want = f.derivative().shift(k + 1)
            assert series_agree(got, want,
                                through=min(got.order, want.order)) is None

    def test_zero_action_on_seed(self):
        f = seed_series(8)
        got = make_L(0).apply(f)
        want = z_series() * f.derivative() - f
        assert series_agree(got, want, through=min(got.order, want.order)) is None

    def test_constants_die(self):
        for op in (make_L(2), make_L(0), partial_derivation(1)):
            assert op.apply(CoeffPoly.const(Fraction(7, 3))) == zero
            assert op.apply(1) == zero

    def test_apply_to_marker_polys(self):
        L1 = make_L(1)
        assert L1.apply(WPoly([c2, one])) == WPoly([c1 * 2])
        assert L1.apply(LaurentWPoly({1: c2})) == LaurentWPoly({1: c1 * 2})

    @given(coeff_polys, coeff_polys)
    @settings(max_examples=40)
    def test_leibniz(self, a, b):
        for op in (make_L(2), make_L(0), partial_derivation(2)):
            lhs = op.apply_poly(a * b)
            rhs = op.apply_poly(a) * b + a * op.apply_poly(b)
            assert lhs == rhs

    def test_leibniz_negative(self):
        op = make_L(-2, a_field_direct(2, 8))
        a = c1 * c2 - c3
        b = c1 * c1 + c2 * Fraction(1, 2)
        assert op.apply_poly(a * b) == op.apply_poly(a) * b + a * op.apply_poly(b)


class TestWeightShift:
    def test_positive_lowers_weight(self):
        L2 = make_L(2)
        p = c1 * c3 + c2 * c2  # homogeneous of weight 4
        image = L2.apply_poly(p)
        assert image.is_homogeneous(2)

    def test_zero_multiplies_by_weight(self):
        L0 = make_L(0)
        p = c1 * c2 * c3  # weight 6
        assert L0.apply_poly(p) == p * 6

    def test_negative_raises_weight(self):
        op = make_L(-3, a_field_direct(3, 6))
        p = c2 * c1
        image = op.apply_poly(p)
        assert image.is_homogeneous(3 + 3)


class TestThm42:
    def test_hand_checks(self):
        lams = lambda_direct(3)
        L1, L2 = make_L(1), make_L(2)
        assert L1.apply(lams.poly(1)) == LaurentWPoly({1: -2})
        assert L1.apply(lams.poly(2)) == lams.poly(1).scale(3)
        assert L1.apply(lams.poly(3)) == lams.poly(2).scale(4)
        assert L2.apply(lams.poly(1)) == LaurentWPoly({})

    def test_full_matrix(self):
        # Exact over the whole (k, p) rectangle, k <= 5, p <= 8.
        assert check_thm42(5, 8).passed

    def test_failure_detail_naming(self):
        report = check_thm42(2, 2)
        assert report.passed
        keys = [dict(cell.indices) for cell in report.cells]
        assert {"k": 1, "n": 1} in keys


class TestRecursion:
    def test_first_steps(self):
        report = suite_report("recursion", recursion_pairs(2))
        assert report.passed

    def test_depth_eight(self):
        assert suite_report("recursion", recursion_pairs(8)).passed


class TestLemma41:
    def test_inverse_derivative_coefficients(self):
        bs = inverse_deriv_coeffs(2)
        assert bs[0] == one
        assert bs[1] == c1 * -2
        assert bs[2] == c1 * c1 * 4 - c2 * 3

    def test_inverse_derivative_weights(self):
        # B_n of 1/f' = 1 + sum B_n z^n has weight n.
        for n, b in enumerate(inverse_deriv_coeffs(6)):
            assert b.is_homogeneous(n), n

    def test_single_k(self):
        pairs = [pair for pair in lemma41_pairs(2, 8) if dict(pair.indices)["k"] == 2]
        assert suite_report("lemma41", pairs).passed

    def test_diagonal_case(self):
        # k = m: only the n = 0 term survives and gives 1.
        pairs = [pair for pair in lemma41_pairs(3, 3) if dict(pair.indices)["k"] == 3]
        report = suite_report("lemma41", pairs)
        assert report.passed

    def test_rectangle(self):
        # Operator identity on every generator c_m, m <= 12, k <= 4.
        assert lemma41_check(4, 12).passed

    def test_cancellation_at_m_equals_k_plus_one(self):
        bs = inverse_deriv_coeffs(1)
        L1, L2 = make_L(1), make_L(2)
        acc = bs[0] * L1.apply_poly(c2) + bs[1] * L2.apply_poly(c2)
        assert acc == zero


class TestCommutation:
    def test_corpus_size(self):
        assert len(sample_polynomials()) == 20

    def test_hand_check(self):
        # d1 L1 (c1 c2) = 4 c1 directly.
        L1 = make_L(1)
        assert L1.apply_poly(c1 * c2) == c2 + c1 * c1 * 2
        assert partial_derivation(1).apply_poly(L1.apply_poly(c1 * c2)) == c1 * 4

    def test_all_pairs(self):
        assert suite_report("commutation", commutation_pairs(4, 4)).passed

    def test_pairs_match_deriving_each_pair_afresh(self):
        samples = sample_polynomials()
        want = []
        for n in range(1, 5):
            for j in range(1, 5):
                dn, lj, dnj = partial_derivation(n), make_L(j), partial_derivation(n + j)
                for idx, s in enumerate(samples):
                    lhs = dn.apply_poly(lj.apply_poly(s))
                    rhs = lj.apply_poly(dn.apply_poly(s)) + dnj.apply_poly(s) * (n + 1)
                    want.append(((("n", n), ("j", j), ("sample", idx)),
                                 list(lhs.terms.items()), list(rhs.terms.items())))
        got = [(pair.indices, list(pair.lhs.terms.items()), list(pair.rhs.terms.items()))
               for pair in commutation_pairs(4, 4)]
        assert got == want

    def test_each_sample_image_derived_once(self, monkeypatch):
        samples = sample_polynomials()
        derived = Counter()
        real = kirillov.Derivation.apply_poly

        def counted(op, target):
            derived.update((op.descriptor, idx) for idx, s in enumerate(samples) if s is target)
            return real(op, target)

        monkeypatch.setattr(kirillov, "sample_polynomials", lambda: samples)
        monkeypatch.setattr(kirillov.Derivation, "apply_poly", counted)
        assert suite_report("commutation", commutation_pairs(4, 4)).passed
        assert len(derived) == 4 * 20 + 8 * 20
        assert set(derived.values()) == {1}

    def test_target_without_low_variables(self):
        pairs = [pair for pair in commutation_pairs(3, 4)
                 if dict(pair.indices)["n"] == 3 and dict(pair.indices)["j"] == 4]
        report = suite_report("commutation", pairs)
        assert report.passed


class TestNegativeAction:
    def test_single_index(self):
        assert check_negative_action(2, 12).passed

    @pytest.mark.parametrize("p, N, message", [(0, 4, "need p >= 1"),
                                               (1, 0, "need N >= 1")])
    def test_bad_size_raises_before_any_build(self, monkeypatch, p, N, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("a pair was built before the sizes were read")

        monkeypatch.setattr(kirillov, "negative_action_pairs", unreachable)
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_negative_action(p, N)

    def test_printed_displays(self):
        # L_{-1} f = f' - 1 - 2 c1 f and the p = 2, 3 lines, through z^8.
        f = seed_series(8)
        g = seed_series(11)
        lhs = make_L(-1, a_field_direct(1, 7)).apply(f)
        rhs = (g.derivative() - 1 - g.scale(c1 * 2)).truncate(8)
        assert series_agree(lhs, rhs, through=8) is None

        from faberfields.series import laurent_pow, laurent_recip

        lhs = make_L(-2, a_field_direct(2, 7)).apply(f)
        rhs = (g.derivative().shift(-1) - laurent_recip(g) - c1 * 3
               - g.scale(c2 * 4 - c1 * c1)).truncate(8)
        assert series_agree(lhs, rhs, through=8) is None

        lhs = make_L(-3, a_field_direct(3, 7)).apply(f)
        rhs = (g.derivative().shift(-2) - laurent_pow(g, -2)
               - laurent_recip(g).scale(c1 * 4) - (c1 * c1 + c2 * 5)
               - g.scale(c3 * 6 - c1 * c2 * 2)).truncate(8)
        assert series_agree(lhs, rhs, through=8) is None

    def test_invariant_range(self):
        # Stated module invariant: passes for p <= 8 at seed order >= 2p + 10.
        assert negative_action_report(8).passed


def _kernel_ops():
    """L_0..L_4, d/dc_1..d/dc_5 and L_{-1}..L_{-3} from one A table."""
    table = a_field_direct(3, 6)
    return ([make_L(k) for k in range(5)]
            + [partial_derivation(k) for k in range(1, 6)]
            + [make_L(-p, table) for p in range(1, 4)])


class TestDerivationKernel:
    @given(coeff_polys)
    @settings(max_examples=60)
    @example(CoeffPoly.zero())
    @example(c1 * Fraction(1, 2) + c2 * c3 * Fraction(-5, 3) + c3 * c3 * c1 * 4)
    def test_matches_partial_sum(self, target):
        for op in _kernel_ops():
            got = op.apply_poly(target)
            assert got == partial_sum_apply(op, target), op
            assert not whole_fractions(got), op

    def test_short_table_error_text(self):
        op = make_L(-1, a_field_direct(1, 2))
        target = c1 * c(5) + c2
        with pytest.raises(IndexError) as new:
            op.apply_poly(target)
        with pytest.raises(IndexError) as old:
            partial_sum_apply(op, target)
        assert str(new.value) == str(old.value)
        assert "c5 requested" in str(new.value)

    def test_linear_target_gives_the_entry(self):
        # L_{-p} c_n is the table's own A_n^p, and L_{-p} f holds them all.
        table = a_field_direct(3, 6)
        for p in range(1, 4):
            op = make_L(-p, table)
            image = op.apply(seed_series(7))
            for n in range(1, 7):
                assert op.apply_poly(c(n)) is table.A(p, n)
                assert image.coefficient(n + 1) is table.A(p, n)

    @pytest.mark.parametrize("q", [3, -1, Fraction(3, 2)])
    def test_scaled_linear_target(self, q):
        for op in _kernel_ops():
            for n in range(1, 7):
                target = c(n) * q
                got = op.apply_poly(target)
                assert got == partial_sum_apply(op, target), (op, n)
                assert not whole_fractions(got), (op, n)

    @pytest.mark.parametrize("q", [1, 3])
    def test_short_table_error_text_on_linear_target(self, q):
        op = make_L(-1, a_field_direct(1, 2))
        with pytest.raises(IndexError) as new:
            op.apply_poly(c(5) * q)
        with pytest.raises(IndexError) as old:
            partial_sum_apply(op, c(5) * q)
        assert str(new.value) == str(old.value)


class TestWholeValues:
    def test_tables(self):
        polys = list(grunsky_log(6, 6).entries.values())
        grunsky = a_field_grunsky(4, 6)
        polys += list(grunsky.a_entries.values())
        polys += [grunsky.B(p, k) for p in range(1, 5) for k in range(7)]
        for lam in lambda_direct(8).entries:
            polys += list(lam.entries.values())
        assert polys
        for p in polys:
            assert not whole_fractions(p), p


class TestLadderStreams:
    """The images L_k Lambda_q and the Lemma 4.1 resolutions are derived
    once per index and read by every later check."""

    def test_corrupted_lambda_fails_thm42_and_recursion(self):
        warm = dict(kirillov._STREAMS.get("L_k Lambda_q", {}))
        with pytest.MonkeyPatch.context() as mp:
            empty_caches(mp)
            real = faberkernel._marker_family

            def corrupted(name, front, N):
                rows = real(name, front, N)
                if name == "Lambda" and N >= 3:
                    rows[3] = rows[3][:1] + [rows[3][1] + c1] + rows[3][2:]
                return rows

            mp.setattr(faberkernel, "_marker_family", corrupted)
            assert not check_thm42(3, 4).passed
            assert not suite_report("recursion", recursion_pairs(4)).passed
        # No image of the corrupted Lambda_3 reached the warm stream.
        after = kirillov._STREAMS.get("L_k Lambda_q", {})
        assert after.keys() == warm.keys()
        assert all(after[key] is image for key, image in warm.items())
        assert check_thm42(3, 4).passed
        assert suite_report("recursion", recursion_pairs(4)).passed

    @pytest.fixture
    def apply_counts(self, monkeypatch):
        """Counts of Derivation.apply and apply_poly calls."""
        counts = Counter()
        for name in ("apply", "apply_poly"):
            def counted(op, target, orig=getattr(kirillov.Derivation, name), name=name):
                counts[name] += 1
                return orig(op, target)

            monkeypatch.setattr(kirillov.Derivation, name, counted)
        return counts

    @staticmethod
    def cold_counts(counts: Counter, run) -> dict:
        """The calls ``run`` makes from cold caches; its reports must pass."""
        counts.clear()
        with pytest.MonkeyPatch.context() as mp:
            empty_caches(mp)
            assert all(report.passed for report in run())
        return dict(counts)

    def test_images_built_once_per_index(self, apply_counts):
        session = self.cold_counts(
            apply_counts, lambda: [check_thm42(min(5, n), n) for n in range(2, 11)])
        assert session["apply"] > 0
        assert session == self.cold_counts(apply_counts, lambda: [check_thm42(5, 10)])

    def test_resolutions_built_once_per_index(self, apply_counts):
        session = self.cold_counts(
            apply_counts, lambda: [lemma41_check(4, n + 4) for n in range(2, 11)])
        assert session["apply_poly"] > 0
        assert session == self.cold_counts(apply_counts, lambda: [lemma41_check(4, 14)])
