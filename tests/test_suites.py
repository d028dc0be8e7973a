import dataclasses
import hashlib
import json
import os

import pytest

from faberfields import faberkernel, kirillov, suites
from faberfields.cli import main
from faberfields.polyring import CoeffPoly, c
from faberfields.reports import IdentityPair, report_from_pairs
from faberfields.series import INF, PowerSeries

DATA = os.path.join(os.path.dirname(__file__), "data")


def _cell_digests(report_json):
    out = {}
    for suite in report_json["suites"]:
        cells = sorted(json.dumps(cell, sort_keys=True) for cell in suite["cells"])
        out[suite["suite"]] = {
            "cells": len(cells),
            "sha256": hashlib.sha256(json.dumps(cells).encode()).hexdigest()}
    return out


def test_cell_sets_and_verdicts_pinned(capsys):
    # Per-suite digests of the sorted cells (indices and verdicts) of
    # `check --suite all --order 3 --format json`: a suite that loses, gains
    # or renames a cell, or changes a verdict, changes its digest.
    assert main(["check", "--suite", "all", "--order", "3", "--format", "json"]) == 0
    got = _cell_digests(json.loads(capsys.readouterr().out))
    with open(os.path.join(DATA, "check_all_order3.json")) as fh:
        assert got == json.load(fh)


def test_sweep_json_pinned(capsys):
    # The whole output of `check --suite sweep --order 3 --format json`, byte
    # for byte: every cell of every draw, with its verdict.
    assert main(["check", "--suite", "sweep", "--order", "3", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "07568d05b6916ab959d1c8c0dace653903d68f4c0bc4210781966c9239140e3a"


def test_corrupted_elimination_family_fails_the_independent_routes(monkeypatch):
    # One coefficient of the shared family is wrong: z^5 of E_3 gains c1.
    # routes (a_field_direct against a_field_grunsky), phi-generating
    # (E_p - z^(1-p) f' against Lambda_p(f) evaluated on its own),
    # gen-identity (rows E_p(v) / v against a_field_grunsky) and thm51
    # (L_(-3) from the A table against the reverse series) must see it.
    real = faberkernel._elimination_family

    def corrupted(P, top):
        family = real(P, top)
        if P < 3 or top < 5:
            return family
        bump = PowerSeries([0] * 5 + [c(1)], order=INF)
        return family[:3] + (family[3] + bump,) + family[4:]

    monkeypatch.setattr(faberkernel, "_elimination_family", corrupted)
    monkeypatch.setattr(kirillov, "_elimination_family", corrupted)
    faberkernel.a_field_direct.cache_clear()
    try:
        for name in ("routes", "phi-generating", "gen-identity", "thm51"):
            report = suites.run_suite(name, order=8)
            assert not report.passed, name
    finally:
        faberkernel.a_field_direct.cache_clear()


class TestReportFromPairs:
    def test_cells_in_first_seen_order(self):
        pairs = [IdentityPair("demo", (("p", p), ("m", m)), c(1), c(1))
                 for p in (2, 0) for m in range(3)]
        report = report_from_pairs("demo", pairs, ("p",))
        assert report.passed
        assert [cell.indices for cell in report.cells] == [(("p", 2),), (("p", 0),)]

    def test_wrong_pair_names_index_and_sides(self):
        pairs = [IdentityPair("demo", (("p", 1), ("m", 0)), c(1), c(1)),
                 IdentityPair("demo", (("p", 1), ("m", 1)), c(2) * 3, c(1) * c(1)),
                 IdentityPair("demo", (("p", 1), ("m", 2)), c(3), CoeffPoly.zero()),
                 IdentityPair("demo", (("p", 2), ("m", 0)), c(1), c(1))]
        report = report_from_pairs("demo", pairs, ("p",))
        assert not report.passed
        assert [cell.ok for cell in report.cells] == [False, True]
        detail = report.first_failure.detail
        assert "m=1" in detail and "3*c2" in detail and "c1^2" in detail
        assert "m=2" not in detail
        assert "FAIL [p=1]" in report.render_text()

    def test_no_pair_raises(self):
        with pytest.raises(ValueError, match="no identity pair"):
            report_from_pairs("demo", [], ("p",))

    def test_pair_outside_every_cell_raises(self):
        pairs = [IdentityPair("demo", (("q", 1),), c(1), c(1))]
        with pytest.raises(ValueError, match="none of the cell keys"):
            report_from_pairs("demo", pairs, ("p",))


def _suite_of(label):
    return next(name for name in suites.suite_names()
                if label == name or label.startswith(name + "-"))


@pytest.mark.parametrize("order, overrides", [(2, {"pmax": 1}), (3, {}),
                                              (2, {"kmax": 1, "pmax": 2})])
def test_sweep_checks_the_exact_cells(order, overrides):
    by_suite = {}
    for pair in suites.collect_pairs(order=order, **overrides):
        name = _suite_of(pair.suite)
        keys = suites._SUITES[name].cell_keys
        by_suite.setdefault(name, set()).add(
            tuple((n, v) for n, v in pair.indices if n in keys))
    for name in suites.suite_names():
        report = suites.run_suite(name, order=order, **overrides)
        assert by_suite[name] == {cell.indices for cell in report.cells}, name


def test_flags_change_what_the_sweep_checks():
    plain = {p.label() for p in suites.collect_pairs(order=2)}
    narrowed = {p.label() for p in suites.collect_pairs(order=2, pmax=1)}
    assert any(label.startswith("thm42[k=1 n=3") for label in plain)
    assert not any(label.startswith("thm42[k=1 n=3") for label in narrowed)


def test_type_error_in_a_suite_surfaces(monkeypatch):
    calls = []

    def broken(**sizes):
        calls.append(sizes)
        raise TypeError("broken generator")

    entry = suites._SUITES["thm42"]
    monkeypatch.setitem(suites._SUITES, "thm42", dataclasses.replace(entry, pairs=broken))
    with pytest.raises(TypeError, match="broken generator"):
        main(["check", "--suite", "thm42", "--kmax", "3"])
    assert calls == [{"kmax": 3, "pmax": 8}]


def test_unknown_override_rejected():
    with pytest.raises(TypeError, match="unknown size override"):
        suites.run_suite("thm42", kmx=3)
