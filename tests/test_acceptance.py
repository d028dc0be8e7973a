"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything symbolic is exact (zero tolerance); the numeric criteria use the
stated quadrature and specialization tolerances.  Stated runtime bounds are
asserted with a wall clock.  Run with plain ``pytest`` (the pass/fail lines
print even under capture) or ``pytest tests/test_acceptance.py -v``.
"""

import time
from fractions import Fraction

from faberfields import faberkernel as fk
from faberfields import inversion as inv
from faberfields import kirillov as kv
from faberfields import suites
from faberfields.kirillov import inverse_deriv_coeffs, make_L
from faberfields.numeric_oracle import (
    CONTOUR_SELF_TOLERANCE,
    CONTOUR_TOLERANCE,
    SWEEP_TOL,
    contour_check,
    koebe_seed,
    numeric_identity_sweep,
)
from faberfields.polyring import CoeffPoly, c
from faberfields.series import (
    LaurentWPoly,
    WPoly,
    laurent_pow,
    laurent_recip,
    seed_series,
)

from .oracles import series_agree

c1, c2, c3 = c(1), c(2), c(3)
one = CoeffPoly.one()


def _report(capsys, num, ok, desc, elapsed=None):
    with capsys.disabled():
        extra = f" [{elapsed:.1f}s]" if elapsed is not None else ""
        print(f"[acceptance] criterion {num:02d}: "
              f"{'PASS' if ok else 'FAIL'} - {desc}{extra}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_printed_objects(capsys):
    t0 = time.perf_counter()
    problems = []

    fab = fk.faber_polys(3)
    if fab.poly(1) != WPoly([c1, one]):
        problems.append("F1")
    if fab.poly(2) != WPoly([c2 * 2 - c1 * c1, c1 * 2, one]):
        problems.append("F2")
    if fab.poly(3) != WPoly([CoeffPoly.var(1, 3) - c1 * c2 * 3 + c3 * 3,
                             c2 * 3, c1 * 3, one]):
        problems.append("F3")

    tf = fk.t_polys(3)
    if tf.poly(0) != WPoly([one]):
        problems.append("T0")
    if tf.poly(1) != WPoly([c1 * 3, one]):
        problems.append("T1")
    if tf.poly(2) != WPoly([c1 * c1 + c2 * 5, c1 * 4, one]):
        problems.append("T2")
    if tf.poly(3) != WPoly([-CoeffPoly.var(1, 3) + c1 * c2 * 4 + c3 * 7,
                            c1 * c1 * 4 + c2 * 6, c1 * 5, one]):
        problems.append("T3")

    lams = fk.lambda_direct(3)
    if lams.poly(0) != LaurentWPoly({1: -one}):
        problems.append("Lambda0")
    if lams.poly(1) != LaurentWPoly({0: -one, 1: c1 * -2}):
        problems.append("Lambda1")
    if lams.poly(2) != LaurentWPoly({-1: -one, 0: c1 * -3,
                                     1: -(c2 * 4 - c1 * c1)}):
        problems.append("Lambda2")
    if lams.poly(3) != LaurentWPoly({-2: -one, -1: c1 * -4,
                                     0: -(c1 * c1 + c2 * 5),
                                     1: -(c3 * 6 - c1 * c2 * 2)}):
        problems.append("Lambda3")

    # h(z) = 1/f(1/z) expansion through the 1/z^3 term: the z^(1-m)
    # coefficient is the z^m coefficient of z/f.
    r = laurent_recip(seed_series(6).shift(-1))
    c4 = c(4)
    h_expected = [one, -c1, c1 * c1 - c2,
                  c1 * c2 * 2 - c3 - CoeffPoly.var(1, 3),
                  c1 * c3 * 2 - c4 + c2 * c2 - CoeffPoly.var(1, 2) * c2 * 3
                  + CoeffPoly.var(1, 4)]
    for m, want in enumerate(h_expected):
        if r.coefficient(m) != want:
            problems.append(f"h coefficient {m}")

    bs = inverse_deriv_coeffs(2)
    if bs[1] != c1 * -2:
        problems.append("B1")
    if bs[2] != c1 * c1 * 4 - c2 * 3:
        problems.append("B2")

    # Negative-field displays through z^8.
    f = seed_series(8)
    g = seed_series(12)
    lhs = make_L(-1, fk.a_field_direct(1, 7)).apply(f)
    rhs = (g.derivative() - 1 - g.scale(c1 * 2)).truncate(8)
    if series_agree(lhs, rhs, through=8) is not None:
        problems.append("L_-1 f display")
    lhs = make_L(-2, fk.a_field_direct(2, 7)).apply(f)
    rhs = (g.derivative().shift(-1) - laurent_recip(g) - c1 * 3
           - g.scale(c2 * 4 - c1 * c1)).truncate(8)
    if series_agree(lhs, rhs, through=8) is not None:
        problems.append("L_-2 f display")
    lhs = make_L(-3, fk.a_field_direct(3, 7)).apply(f)
    rhs = (g.derivative().shift(-2) - laurent_pow(g, -2)
           - laurent_recip(g).scale(c1 * 4) - (c1 * c1 + c2 * 5)
           - g.scale(c3 * 6 - c1 * c2 * 2)).truncate(8)
    if series_agree(lhs, rhs, through=8) is not None:
        problems.append("L_-3 f display")

    if fk.diag_a(1).poly(1) != c1 * 2:
        problems.append("a_1^1")

    table = fk.a_field_direct(1, 10)
    for k in range(1, 11):
        if table.A(0, k) != c(k) * k:
            problems.append(f"A_{k}^0")
            break
    for k in range(1, 11):
        if table.B(1, k) != c(k + 1) * (k + 2):
            problems.append(f"B_{k}^1")
            break

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 5.0
    desc = "printed-object reproduction, exact"
    if problems:
        desc += f" (failed: {', '.join(problems)})"
    if elapsed >= 5.0:
        desc += " (over 5 s budget)"
    _report(capsys, 1, ok, desc, elapsed)


def test_criterion_02_grunsky_symmetry(capsys):
    t0 = time.perf_counter()
    report = fk.grunsky_symmetry_check(12)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 60.0
    _report(capsys, 2, ok,
            "Grunsky symmetry k*beta[n,k] = n*beta[k,n], n,k <= 12, exact",
            elapsed)


def test_criterion_03_route_equivalence(capsys):
    t0 = time.perf_counter()
    report = suites.suite_report("routes", fk.route_equivalence_pairs(10, 8))
    elapsed = time.perf_counter() - t0
    _report(capsys, 3, report.passed,
            "route equivalence: grunsky/t/diag/lambda (<=10), afield (<=8), exact",
            elapsed)


def test_criterion_04_elimination(capsys):
    t0 = time.perf_counter()
    report = suites.suite_report("elimination", fk.elimination_pairs(8))
    elapsed = time.perf_counter() - t0
    _report(capsys, 4, report.passed,
            "elimination: no z^m, m <= 1, in z^(1-p) f' + Lambda_p(f), "
            "p <= 8, read through z^1", elapsed)


def test_criterion_05_ladder_action(capsys):
    t0 = time.perf_counter()
    matrix = kv.check_thm42(5, 8)
    recursion = suites.suite_report("recursion", kv.recursion_pairs(8))
    elapsed = time.perf_counter() - t0
    _report(capsys, 5, matrix.passed and recursion.passed,
            "ladder action on Lambda family, k <= 5, p <= 8, plus k = 1 "
            "recursion, exact", elapsed)


def test_criterion_06_partial_resolution_and_commutation(capsys):
    t0 = time.perf_counter()
    lemma = kv.lemma41_check(4, 12)
    comm = suites.suite_report("commutation", kv.commutation_pairs(4, 4))
    elapsed = time.perf_counter() - t0
    _report(capsys, 6, lemma.passed and comm.passed,
            "partial-derivative resolution (m <= 12, k <= 4) and commutation "
            "rule on 20 samples, exact", elapsed)


def test_criterion_07_generating_identities(capsys):
    t0 = time.perf_counter()
    gen = suites.suite_report("gen-identity", fk.gen_identity_pairs(8, 8))
    phi = suites.suite_report("phi-generating", fk.phi_generating_pairs(6, 10))
    elapsed = time.perf_counter() - t0
    _report(capsys, 7, gen.passed and phi.passed,
            "bivariate generating identities: A table on 8x8 with negative-"
            "power cancellation, phi family on (6, 10), exact", elapsed)


def test_criterion_08_reverse_series_identities(capsys):
    t0 = time.perf_counter()
    pos = inv.check_thm51_positive(5, 10)
    rest = inv.check_thm51_zero_and_negative(5, 10)
    uniq = all(inv.unique_elimination_check(p, 10).passed for p in (2, 3))
    elapsed = time.perf_counter() - t0
    _report(capsys, 8, pos.passed and rest.passed and uniq,
            "reverse-series ladder identities, k <= 5, p <= 5, order 10, "
            "plus uniqueness elimination for p in {2, 3}, exact", elapsed)


def test_criterion_09_contour_oracle(capsys):
    t0 = time.perf_counter()
    seed = koebe_seed(Fraction(1, 2))
    reports = contour_check(seed, range(5), 0.3, 0.6, 4096)
    elapsed = time.perf_counter() - t0
    ok = all(r.status == "ok" for r in reports) and elapsed < 10.0
    assert (CONTOUR_TOLERANCE, CONTOUR_SELF_TOLERANCE) == (1e-9, 1e-11)
    worst = max(r.gap for r in reports)
    _report(capsys, 9, ok,
            f"contour quadrature vs symbolic, koebe rho=1/2, p <= 4, "
            f"M = 4096 (worst gap {worst:.2e})", elapsed)


def test_criterion_10_numeric_sweep(capsys):
    t0 = time.perf_counter()
    pairs = suites.collect_pairs()
    report = numeric_identity_sweep(pairs, draws=25)
    elapsed = time.perf_counter() - t0
    assert SWEEP_TOL == 1e-12
    _report(capsys, 10, report.passed,
            f"numeric sweep: {len(pairs)} identity pairs at 25 random "
            f"coefficient vectors, relative 1e-12", elapsed)
