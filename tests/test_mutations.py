"""The mutation matrix: which suite catches which wrong builder.

Each row adds c1 to one coefficient that one builder hands out, on cold
caches, and runs ``faberfields check --suite all --order 6 --format json``.
The pinned table says, per exact suite, whether it passes, fails in some
cell, or raises: a builder's self-check raised inside the suite, which then
shows one failing cell with no indices whose detail names the exception.
A suite or route added later adds its column here; a change to the table is
a change to what the dual-route checks stand on.
"""

import json

import pytest

from faberfields import faberkernel, kirillov, suites
from faberfields.cli import main
from faberfields.polyring import c
from faberfields.series import INF, LaurentSeries

from .conftest import empty_caches, patch_everywhere

c1 = c(1)


def plus_c1_at(series: LaurentSeries, m: int) -> LaurentSeries:
    """``series`` with c1 added to its coefficient of z^m, if it reaches z^m."""
    return series + LaurentSeries(m, [c1], order=INF) if series.order >= m else series


def corrupt_marker_row(monkeypatch, family: str, entry: int):
    """Entry ``entry`` of row 3 of the marker family ``family`` gains c1."""
    real = faberkernel._marker_family

    def corrupted(name, front, N):
        rows = real(name, front, N)
        if name == family and N >= 3:
            rows[3] = rows[3][:entry] + [rows[3][entry] + c1] + rows[3][entry + 1:]
        return rows

    monkeypatch.setattr(faberkernel, "_marker_family", corrupted)


def corrupt_e3(monkeypatch):
    real = faberkernel._elimination_family

    def corrupted(P, top):
        family = real(P, top)
        if P < 3:
            return family
        return family[:3] + (plus_c1_at(family[3], 5),) + family[4:]

    patch_everywhere(monkeypatch, ((faberkernel, "_elimination_family"),), corrupted)


def corrupt_beta23(monkeypatch):
    real = faberkernel.grunsky_log

    def corrupted(N, K):
        table = real(N, K)
        if N < 2 or K < 3:
            return table
        entries = dict(table.entries)
        entries[(2, 3)] = entries[(2, 3)] + c1
        return faberkernel.GrunskyTable(N, K, entries, table.provenance)

    patch_everywhere(monkeypatch, ((faberkernel, "grunsky_log"),), corrupted)


def corrupt_reversion(monkeypatch):
    real = faberkernel._reversion
    patch_everywhere(monkeypatch, ((faberkernel, "_reversion"),),
                     lambda order: plus_c1_at(real(order), 4))


def corrupt_f_minus_2(monkeypatch):
    real = faberkernel._f_power

    def corrupted(e, top):
        power = real(e, top)
        return plus_c1_at(power, 4) if e == -2 else power

    patch_everywhere(monkeypatch, ((faberkernel, "_f_power"),), corrupted)


def corrupt_l2(monkeypatch):
    """The entry of L_2 at d/dc_3, which is 2 c1, gains c1."""
    real = kirillov.make_L

    def corrupted(k, afield=None):
        op = real(k, afield)
        if k != 2:
            return op
        return kirillov.Derivation(
            op.descriptor, lambda n: op.coefficient(n) + (c1 if n == 3 else 0))

    patch_everywhere(monkeypatch, ((kirillov, "make_L"),), corrupted)


def corrupt_b3(monkeypatch):
    real = kirillov.inverse_deriv_coeffs

    def corrupted(order):
        bs = real(order)
        if order >= 3:
            bs = bs[:3] + [bs[3] + c1] + bs[4:]
        return bs

    patch_everywhere(monkeypatch, ((kirillov, "inverse_deriv_coeffs"),), corrupted)


#: Each mutation: how it is applied, the suites that fail in some cell and
#: the suites that raise.  Every other suite passes.
MATRIX = {
    "none": (lambda mp: None, (), ()),
    "z^5 of E_3": (corrupt_e3,
                   ("routes", "gen-identity", "phi-generating", "thm51"), ()),
    "beta_(2,3)": (corrupt_beta23,
                   ("grunsky-symmetry", "routes", "gen-identity"), ()),
    "a Lambda row": (lambda mp: corrupt_marker_row(mp, "Lambda", 0),
                     ("elimination", "thm42", "recursion", "gen-identity",
                      "unique-elimination"),
                     ("routes", "thm51", "negative-action")),
    "an F row": (lambda mp: corrupt_marker_row(mp, "F", 1),
                 ("faber-derivative",), ("routes",)),
    "a T row": (lambda mp: corrupt_marker_row(mp, "T", 1), ("routes",), ()),
    "z^4 of the reversion": (corrupt_reversion, ("thm51", "unique-elimination"), ()),
    "z^4 of f^-2": (corrupt_f_minus_2,
                    ("elimination", "thm42", "recursion", "gen-identity",
                     "phi-generating", "thm51"),
                    ("routes", "negative-action")),
    "an entry of L_2": (corrupt_l2, ("thm42", "lemma41", "commutation", "thm51"), ()),
    "B_3 of 1/f'": (corrupt_b3, ("lemma41",), ()),
}

#: The contour check evaluates ``lambda_direct`` on the Koebe seed, so of
#: the mutations only the Lambda row reaches it, at p = 3.
CONTOUR_MISMATCHES = {"a Lambda row": [3]}


def outcome(cells: list) -> str:
    """"pass", "fail", or "raise" for one suite's JSON cells."""
    if all(cell["ok"] for cell in cells):
        return "pass"
    if len(cells) == 1 and set(cells[0]) == {"ok", "detail"}:
        exception = cells[0]["detail"].split(":")[0]
        assert exception.isidentifier() and exception.endswith("Error"), cells
        return "raise"
    return "fail"


def swept_suite(label: str) -> str:
    """The exact suite whose pairs a sweep cell's label names."""
    return next(name for name in suites.suite_names()
                if label == name or label.startswith(name + "-"))


@pytest.mark.parametrize("mutation", MATRIX)
def test_mutation_matrix(capsys, mutation):
    apply, failing, raising = MATRIX[mutation]
    with pytest.MonkeyPatch.context() as mp:
        empty_caches(mp)
        apply(mp)
        code = main(["check", "--suite", "all", "--order", "6", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    cells = {s["suite"]: s["cells"] for s in out["suites"]}
    sweep = cells.pop("numeric-sweep")
    assert list(cells) == suites.suite_names()
    got = {name: outcome(suite_cells) for name, suite_cells in cells.items()}
    want = {name: "fail" if name in failing else "raise" if name in raising else "pass"
            for name in suites.suite_names()}
    assert got == want
    # The sweep specializes the pairs of every suite that did not raise, and
    # fails on exactly the suites whose exact cells fail.
    swept_failing = {swept_suite(cell["suite"]) for cell in sweep if not cell["ok"]}
    assert swept_failing == set(failing)
    assert [c["p"] for c in out["contour"]] == list(range(5))
    assert [c["p"] for c in out["contour"] if c["status"] != "ok"] == \
        CONTOUR_MISMATCHES.get(mutation, [])
    assert code == (0 if mutation == "none" else 1)
    assert out["ok"] is (mutation == "none")
