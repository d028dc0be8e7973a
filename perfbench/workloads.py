"""The benchmark's workloads, each run once in a fresh interpreter.

gate     The CI verdict: ``faberfields check --suite all --order 5 --format
         json``, run through ``cli.main`` in the worker process.  The
         negative-power ladder ``_elimination_family`` is its largest
         builder (about two thirds of it), so the power-ladder kernel and
         lazy coefficients show up here.  The CLI flags fix the work; the
         workload seed does not affect it.
tables   A desk session at sizes n = 2..10 in one process: Faber and T
         families, both routes of a_p^p, the Grunsky table with its symmetry
         check, Theorem 4.2 and Lemma 4.1.  No negative-power ladder and no
         reversion: it is dominated by ``bi_log_in_u`` and its ``polyring``
         products, so it is the bypass workload for ladder changes (predicted
         no change), and the only workload that reuses caches across requests
         of different sizes, so a cache cap shows its cost and gain here.
reverse  The reverse-series table and its ladder identities at N = 9,
         dominated by ``ps_reversion`` and ``ps_compose``: the target of a
         Lagrange-Burmann inversion, absent from ``tables``.

The full sizes are one step smaller than order 6, n = 2..11 and N = 10, so
that every sample takes 3-4 s on a 2-core 2.0 GHz Xeon virtual machine and a
run holds enough samples for a median that is steady on a shared host; at
the larger sizes each workload is dominated by the same layers.

The seed permutes the call order within each size step of ``tables`` and the
call order of ``reverse``, which changes how caches are shared between calls.

Each run returns the objects it built (hashed after timing, against frozen
references) and the verdicts of the dual routes computed inside the workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

WORKLOADS = ("gate", "tables", "reverse")

SIZES = {
    "full": {"gate": 5, "tables": range(2, 11), "reverse": 9},
    "smoke": {"gate": 2, "tables": range(2, 5), "reverse": 5},
}


def run(ff, workload: str, size: str, seed: int):
    """Run one workload; returns ({key: built object}, {key: verdict})."""
    built: dict[str, object] = {}
    verdicts: dict[str, bool] = {}
    n = SIZES[size][workload]
    if workload == "gate":
        _gate(ff, n, built, verdicts)
    elif workload == "tables":
        _tables(ff, n, random.Random(seed), built, verdicts)
    else:
        _reverse(ff, n, random.Random(seed), built, verdicts)
    return built, verdicts


def _gate(ff, order, built, verdicts):
    from faberfields import cli
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check", "--suite", "all", "--order", str(order),
                         "--format", "json"])
    verdicts["exit_code_0"] = code == 0
    built["cli_json"] = out.getvalue()


def _tables(ff, sizes, rng, built, verdicts):
    for n in sizes:
        def faber(n=n):
            built[f"faber_polys({n})"] = ff.faber_polys(n)

        def tpolys(n=n):
            t = built[f"t_polys({n})"] = ff.t_polys(n)
            verdicts[f"t_polys({n})==t_from_faber({n})"] = \
                t.entries == ff.t_from_faber(n).entries

        def diag(n=n):
            d = built[f"diag_a({n})"] = ff.diag_a(n)
            verdicts[f"diag_a({n})==diag_a_grunsky({n})"] = \
                d.entries == ff.diag_a_grunsky(n).entries

        def grunsky(n=n):
            built[f"grunsky_log({n},{n})"] = ff.grunsky_log(n, n)
            _report(built, verdicts, f"grunsky_symmetry_check({n})",
                    ff.grunsky_symmetry_check(n))

        def thm42(n=n):
            k = min(5, n)
            _report(built, verdicts, f"check_thm42({k},{n})", ff.check_thm42(k, n))

        def lemma41(n=n):
            _report(built, verdicts, f"lemma41_check(4,{n + 4})",
                    ff.lemma41_check(4, n + 4))

        steps = [faber, tpolys, diag, grunsky, thm42, lemma41]
        rng.shuffle(steps)
        for step in steps:
            step()


def _reverse(ff, N, rng, built, verdicts):
    def table():
        built[f"reverse_table(-4,4,{N})"] = ff.reverse_table(-4, 4, N)

    def positive():
        _report(built, verdicts, f"check_thm51_positive(5,{N})",
                ff.check_thm51_positive(5, N))

    def zero_negative():
        _report(built, verdicts, f"check_thm51_zero_and_negative(5,{N})",
                ff.check_thm51_zero_and_negative(5, N))

    def unique(p):
        _report(built, verdicts, f"unique_elimination_check({p},{N})",
                ff.unique_elimination_check(p, N))

    steps = [table, positive, zero_negative, lambda: unique(2), lambda: unique(3)]
    rng.shuffle(steps)
    for step in steps:
        step()


def _report(built, verdicts, key, report):
    built[key] = report
    verdicts[key] = report.passed


# -- canonical exact form of what a workload built ------------------------------------


def canonical(obj):
    """Exact JSON-ready form built from the package's public accessors."""
    if hasattr(obj, "to_json_terms"):
        return obj.to_json_terms()
    if hasattr(obj, "to_json_obj"):
        return obj.to_json_obj()
    if dataclasses.is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.name != "provenance"}
    if isinstance(obj, dict):
        return sorted([canonical(k), canonical(v)] for k, v in obj.items())
    if isinstance(obj, (tuple, list)):
        return [canonical(x) for x in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def gate_digests(cli_json: str) -> dict[str, str]:
    """Per-suite cell index sets with verdicts, and the contour statuses.

    Float gaps are left out; cells are sorted so only the set counts.
    """
    obj = json.loads(cli_json)
    out = {"ok": _sha(obj["ok"])}
    for suite in obj["suites"]:
        cells = sorted(json.dumps(c, sort_keys=True) for c in suite["cells"])
        out[f"suite:{suite['suite']}"] = _sha(cells)
    out["contour"] = _sha([[c["p"], c["status"]] for c in obj["contour"]])
    return out


def digests(built: dict) -> dict[str, str]:
    if "cli_json" in built:
        return gate_digests(built["cli_json"])
    return {key: _sha(canonical(obj)) for key, obj in built.items()}


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
