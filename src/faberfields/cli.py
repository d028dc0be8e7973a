"""Command-line surface: emit families as tables, run check suites, specialize.

Verbs: faber | tpoly | grunsky | lambda | afield | diag | reverse | check | eval.
Exit status 0 on success or all-pass, 1 on check failure, 2 on usage errors.
Output ordering is deterministic everywhere so tables diff cleanly in CI.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import faberkernel, inversion, suites
from .numeric_oracle import contour_check, koebe_seed, numeric_identity_sweep, \
    random_seed, zero_seed
from .polyring import CoeffPoly
from .reports import CheckCell, CheckReport
from .series import SeriesError


class UsageError(Exception):
    pass


#: Largest index any verb accepts; tables beyond this are not desk scale
#: from the command line (the Python API has no such bound).
DESK_SCALE_BOUND = 32


def _check_bounds(**indices: int):
    for name, value in indices.items():
        if value is None:
            continue
        if (abs(value) if name == "q" else value) > DESK_SCALE_BOUND:  # --q is signed
            raise UsageError(
                f"--{name} {value} exceeds the desk-scale bound "
                f"({DESK_SCALE_BOUND}); build larger tables through the Python API")


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _parse(flag: str, text: str, kind):
    """The value of ``--flag``; a zero denominator is a usage error."""
    try:
        return kind(text)
    except ZeroDivisionError:
        raise UsageError(f"--{flag} {text} has a zero denominator") from None


def _numeric_seed(args):
    name = args.seed
    if name == "generic":
        return None
    if name == "zero":
        return zero_seed()
    if name == "koebe":
        return koebe_seed(_parse("rho", args.rho, Fraction))
    if name == "random":
        return random_seed(args.rand_seed, bound=args.bound)
    raise UsageError(f"unknown seed preset '{name}'")


def _complex_value(text: str) -> complex:
    """A point given as a complex literal (0.3, -0.2+0.1j) or a rational (-1/5)."""
    return complex(Fraction(text)) if "/" in text else complex(text)


def _seed_values(seed, polys):
    """The seed's value of every variable of ``polys``; None for the generic
    seed, which keeps the output symbolic."""
    if seed is None:
        return None
    return seed.coeff_map(max((p.max_variable() for p in polys), default=0))


def _coeff_out(poly: CoeffPoly, values, json_out: bool):
    """A coefficient as output: symbolic text or JSON terms, or its value under
    the seed (str round-trips int, Fraction and complex alike)."""
    if values is not None:
        return str(poly.specialize(values))
    return poly.to_json_terms() if json_out else poly.render()


def _terms(entry):
    """A table entry's marker variable and its nonzero (exponent, coefficient)
    terms: w for F_n and T_n, u for Lambda_p, none for a bare coefficient."""
    if isinstance(entry, CoeffPoly):
        return None, [(0, entry)]
    return entry.var, list(entry.entries.items())


def _power(var: str, e: int) -> str:
    return var if e == 1 else f"{var}^{e}"


def _value_sum(terms, values, write) -> str:
    """The nonzero values of (exponent, coefficient) terms under the seed, each
    written by ``write(exponent, text)``, joined by " + "; "0" if none is."""
    parts = [write(e, str(v)) for e, c in terms if (v := c.specialize(values))]
    return " + ".join(parts) or "0"


def _entry_out(entry, values, json_out: bool):
    """A table entry as output: a coefficient as :func:`_coeff_out` writes it,
    or a marker polynomial as JSON, as symbolic text, or as the sum of its
    nonzero values under the seed."""
    var, terms = _terms(entry)
    if var is None:
        return _coeff_out(entry, values, json_out)
    if json_out:
        return entry.to_json_obj(lambda c: _coeff_out(c, values, True))
    if values is None:
        return entry.render()

    def term(e, txt):
        if e == 0:
            return txt
        return _power(var, e) if txt == "1" else f"{txt}*{_power(var, e)}"

    return _value_sum(sorted(terms, key=lambda t: t[0], reverse=True), values, term)


def _emit_table(args, key: str, entries: dict, label: str, head=None):
    """Print ``entries``, which map an index tuple to a coefficient or a marker
    polynomial, under the seed: ``label`` formats an index for a text line and
    ``head`` is the title line and the JSON fields of a 2-D table."""
    values = _seed_values(_numeric_seed(args),
                          [c for e in entries.values() for _, c in _terms(e)[1]])
    title, fields = head or (None, {})
    if args.format == "json":
        obj = {**fields, key: {",".join(map(str, i)): _entry_out(e, values, True)
                               for i, e in entries.items()}}
        _emit(_json_text(obj), args.output)
        return
    lines = [title] if title else []
    lines += [f"{label.format(*i)} = {_entry_out(e, values, False)}"
              for i, e in entries.items()]
    _emit("\n".join(lines), args.output)


#: The one-index families, by verb: index flag, first index, JSON key, text
#: label and the entry getter of the family built up to an index.
FAMILIES = {
    "faber": ("n", 1, "F", "F_{}", lambda n: faberkernel.faber_polys(n).poly),
    "tpoly": ("n", 0, "T", "T_{}", lambda n: faberkernel.t_polys(n).poly),
    "lambda": ("p", 0, "Lambda", "Lambda_{}",
               lambda p: faberkernel.lambda_direct(p).poly),
    "diag": ("p", 1, "a", "a_{0}^{0}", lambda p: faberkernel.diag_a(p).poly),
}


def _cmd_family(args):
    flag, first, key, label, family = FAMILIES[args.verb]
    top = getattr(args, flag)
    _check_bounds(**{flag: top})
    entry = family(top)
    indices = range(first, top + 1) if args.all else [top]
    _emit_table(args, key, {(i,): entry(i) for i in indices}, label)
    return 0


#: The two-index tables, by verb: the row and column index flags with their
#: first index, the routes (the default first) with the builder each names,
#: the JSON key, which is also the built table's entry accessor, and the text
#: label and title.
TABLES = {
    "grunsky": (("n", 1), ("k", 1), {"log": "grunsky_log", "compose": "grunsky_compose"},
                "beta", "beta[{},{}]", "Grunsky table"),
    "afield": (("p", 0), ("n", 0), {"direct": "a_field_direct", "grunsky": "a_field_grunsky"},
               "A", "A[{1}]^{0}", "A-field table"),
}


def _cmd_table(args):
    (row, row0), (col, col0), routes, key, label, title = TABLES[args.verb]
    rows, cols = getattr(args, row), getattr(args, col)
    _check_bounds(**{row: rows, col: cols})
    table = getattr(faberkernel, routes[args.route])(rows, cols)
    entry = getattr(table, key)
    entries = {(i, j): entry(i, j)
               for i in range(row0, rows + 1) for j in range(col0, cols + 1)}
    _emit_table(args, key, entries, label,
                (f"# {title} ({table.provenance})",
                 {f"{row}_max": rows, f"{col}_max": cols, "route": table.provenance}))
    return 0


def _cmd_reverse(args):
    _check_bounds(q=args.q, order=args.order)
    ser = inversion.reverse_table(args.q, args.q, args.order).power(args.q)
    values = _seed_values(_numeric_seed(args), ser.coeffs)
    if args.format == "json":
        series = ser.to_json_obj(lambda c: _coeff_out(c, values, True))
        _emit(_json_text({"q": args.q, "series": series}), args.output)
        return 0
    body = ser.render() if values is None else _value_sum(
        enumerate(ser.coeffs, ser.valuation), values,
        lambda k, txt: f"{txt}*{_power('z', k)}")
    _emit(f"(f^-1)^{args.q} = {body}", args.output)
    return 0


def _cmd_eval(args):
    _check_bounds(index=args.index)
    seed = _numeric_seed(args)
    if seed is None:
        raise UsageError("eval needs a numeric seed preset (zero, koebe or random)")
    *_, label, family = FAMILIES[args.family]
    entry = family(args.index)(args.index)
    var, terms = _terms(entry)
    values = _seed_values(seed, [c for _, c in terms])
    json_out = args.format == "json"
    if args.at is None:
        out = _entry_out(entry, values, json_out)
        _emit(_json_text({args.family: out}) if json_out else out, args.output)
        return 0
    name = label.format(args.index)
    if var is None:
        raise UsageError(f"--at needs a marker variable, and {name} has none")
    at = _parse("at", args.at, _complex_value)
    try:
        total = sum((complex(c.specialize(values)) * at ** e for e, c in terms), 0j)
    except ZeroDivisionError:
        raise UsageError(f"--at {args.at} is a pole of {name}") from None
    except OverflowError:
        raise UsageError(
            f"{name} overflows a complex float at --at {args.at}") from None
    if json_out:
        _emit(_json_text({args.family: {"at": [at.real, at.imag],
                                        "value": [total.real, total.imag]}}),
              args.output)
    else:
        _emit(str(total), args.output)
    return 0


#: Smallest value of each ``check`` size flag; below it a check has no cells
#: (or, for ``--M``, no quadrature nodes) and would pass vacuously.
CHECK_MINIMA = {"order": 1, "kmax": 1, "pmax": 0, "draws": 1, "M": 1}


def _cmd_check(args):
    _check_bounds(order=args.order, kmax=args.kmax, pmax=args.pmax)
    for name, low in CHECK_MINIMA.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise UsageError(f"--{name} {value} is below {low}: nothing to check")
    exact = suites.suite_names()
    if args.suite not in exact + ["contour", "sweep", "all"]:
        raise UsageError(
            f"unknown suite '{args.suite}' "
            f"(have: {', '.join(exact + ['contour', 'sweep', 'all'])})")
    include_contour = args.suite in ("all", "contour")
    include_sweep = args.suite in ("all", "sweep")
    contour_reports = []
    if include_contour:
        seed = koebe_seed(_parse("rho", args.rho, Fraction))
        z = _parse("z", args.z, _complex_value)
        ps = range(0, (args.pmax if args.pmax is not None else 4) + 1)
        contour_reports = contour_check(seed, ps, z, args.r, args.M)
    overrides = {flag: getattr(args, flag) for flag in suites.FLAGS
                 if getattr(args, flag) is not None}
    # Each suite's pairs are built once: its exact report checks them, and
    # the sweep specializes the same objects, in registry order.  A builder
    # whose self-check raises fails the suite in one cell, with no pairs.
    reports, swept = [], []
    for name in exact:
        checked = args.suite in (name, "all")
        if checked or include_sweep:
            try:
                pairs = list(suites.suite_pairs(name, args.order, **overrides))
            except (faberkernel.EliminationError, SeriesError) as exc:
                detail = f"{type(exc).__name__}: {exc}"
                reports.append(CheckReport(name, (CheckCell((), False, detail),)))
                continue
            if not pairs:
                raise UsageError(f"suite {name}: no identity pair at these sizes, "
                                 f"so nothing to check")
            if checked:
                reports.append(suites.suite_report(name, pairs))
            swept += pairs
    if include_sweep:
        reports.append(numeric_identity_sweep(swept, draws=args.draws))
    ok = all(r.passed for r in reports) and all(c.ok for c in contour_reports)
    if args.format == "json":
        obj = {"ok": ok,
               "suites": [r.to_json_obj() for r in reports],
               "contour": [c.to_json_obj() for c in contour_reports]}
        _emit(_json_text(obj), args.output)
    else:
        lines = [r.render_text() for r in reports]
        for c in contour_reports:
            lines.append(
                f"contour p={c.p}: {c.status} gap={c.gap:.3e} self={c.self_gap:.3e}")
        lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
        _emit("\n".join(lines), args.output)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faberfields",
        description="Exact tables and identity checks for Faber polynomials, "
                    "Grunsky coefficients and coefficient-manifold vector fields.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_output(p):
        # --rho scales the Koebe seed: of --seed koebe, and of check's contour.
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--rho", type=str, default="1/2",
                       help="koebe seed scale (exact rational, e.g. 1/2 or 0.5)")

    def add_common(p):
        add_output(p)
        p.add_argument("--seed", default="generic",
                       choices=["generic", "zero", "koebe", "random"])
        p.add_argument("--rand-seed", type=int, default=0)
        p.add_argument("--bound", type=float, default=0.5)

    for verb, text in (("faber", "Faber polynomials F_n"),
                       ("tpoly", "companion polynomials T_n"),
                       ("lambda", "eliminator Laurent polynomials Lambda_p"),
                       ("diag", "diagonal coefficients a_p^p")):
        flag, first = FAMILIES[verb][:2]
        p = sub.add_parser(verb, help=text)
        p.add_argument(f"--{flag}", type=int, required=True)
        p.add_argument("--all", action="store_true",
                       help=f"emit indices {first}..{flag}")
        add_common(p)
        p.set_defaults(func=_cmd_family)

    for verb, text in (("grunsky", "Grunsky coefficient table"),
                       ("afield", "vector-field coefficient table A_n^p")):
        (row, _), (col, _), routes = TABLES[verb][:3]
        p = sub.add_parser(verb, help=text)
        p.add_argument(f"--{row}", type=int, required=True)
        p.add_argument(f"--{col}", type=int, required=True)
        p.add_argument("--route", choices=list(routes), default=next(iter(routes)))
        add_common(p)
        p.set_defaults(func=_cmd_table)

    p = sub.add_parser("reverse", help="powers of the reverse series")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--order", type=int, default=8)
    add_common(p)
    p.set_defaults(func=_cmd_reverse)

    p = sub.add_parser("check", help="run identity check suites")
    p.add_argument("--suite", required=True,
                   help=f"one of {', '.join(suites.suite_names())}; "
                        "'contour', 'sweep' or 'all'")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--pmax", type=int, default=None)
    p.add_argument("--draws", type=int, default=10)
    p.add_argument("--z", type=str, default="0.3",
                   help="contour check point (complex, e.g. 0.3 or -0.2+0.1j, "
                        "or rational, e.g. -1/5)")
    p.add_argument("--r", type=float, default=0.6)
    p.add_argument("--M", type=int, default=4096)
    add_output(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", help="specialize a family entry numerically")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--at", type=str, default=None,
                   help="also evaluate the marker variable at this point "
                        "(complex, e.g. 0.3 or -0.2+0.1j, or rational, e.g. -1/5)")
    add_common(p)
    p.set_defaults(func=_cmd_eval)

    return parser


#: Options that take a number which may be negative: ``--rho`` (a rational
#: such as -1/2), ``--at`` and ``--z`` (complex, such as -0.2+0.1j).
SIGNED_VALUE_OPTIONS = ("--rho", "--at", "--z")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Write ``--rho -1/2`` as ``--rho=-1/2``.

    argparse reads a token that starts with "-" as an option unless it is a
    plain decimal such as -1 or -0.5, so a negative fraction or complex
    number given after a space would be missing its value.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in SIGNED_VALUE_OPTIONS and re.match(r"-[\d.]", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_signed_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
