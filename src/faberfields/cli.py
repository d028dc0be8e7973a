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
from .series import WPoly


class UsageError(Exception):
    pass


#: Largest index any verb accepts; tables beyond this are not desk scale
#: from the command line (the Python API has no such bound).
DESK_SCALE_BOUND = 32


def _check_bounds(**indices: int):
    for name, value in indices.items():
        if value is None:
            continue
        if value > DESK_SCALE_BOUND:
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


def _numeric_seed(args):
    name = args.seed
    if name == "generic":
        return None
    if name == "zero":
        return zero_seed()
    if name == "koebe":
        return koebe_seed(Fraction(str(args.rho)))
    if name == "random":
        return random_seed(args.rand_seed, bound=args.bound)
    raise UsageError(f"unknown seed preset '{name}'")


def _complex_value(text: str) -> complex:
    """A point given as a complex literal (0.3, -0.2+0.1j) or a rational (-1/5)."""
    return complex(Fraction(text)) if "/" in text else complex(text)


def _format_value(v) -> str:
    # str() round-trips exactly for int, Fraction and complex alike.
    return str(v)


def _specialized_marker_text(entry, values, var) -> str:
    if isinstance(entry, WPoly):
        exponents = range(entry.degree, -1, -1)
        get = entry.coefficient
    else:
        exponents = sorted(entry.entries, reverse=True)
        get = entry.coefficient
    parts = []
    for e in exponents:
        val = get(e).specialize(values)
        if not val:
            continue
        power = "" if e == 0 else (var if e == 1 else f"{var}^{e}")
        txt = _format_value(val)
        if power and txt == "1":
            parts.append(power)
        elif power:
            parts.append(f"{txt}*{power}")
        else:
            parts.append(txt)
    return " + ".join(parts) if parts else "0"


def _marker_json(entry, values):
    if values is None:
        return entry.to_json_obj()
    if isinstance(entry, WPoly):
        return {"degree": entry.degree,
                "coeffs": [_format_value(c.specialize(values)) for c in entry.coeffs]}
    return {"exponents": {str(e): _format_value(entry.entries[e].specialize(values))
                          for e in sorted(entry.entries)}}


def _family_values(entries, seed):
    if seed is None:
        return None
    nmax = 0
    for entry in entries:
        if isinstance(entry, CoeffPoly):
            nmax = max(nmax, entry.max_variable())
        elif isinstance(entry, WPoly):
            nmax = max(nmax, max((c.max_variable() for c in entry.coeffs), default=0))
        else:
            nmax = max(nmax, max((c.max_variable() for c in entry.entries.values()),
                                 default=0))
    return seed.coeff_map(nmax)


def _emit_marker_family(args, label, var, entries_by_index):
    seed = _numeric_seed(args)
    entries = list(entries_by_index.values())
    values = _family_values(entries, seed)
    if args.format == "json":
        obj = {label: {str(i): _marker_json(e, values)
                       for i, e in entries_by_index.items()}}
        _emit(_json_text(obj), args.output)
        return
    lines = []
    for i, e in entries_by_index.items():
        if values is None:
            lines.append(f"{label}_{i} = {e.render(var)}")
        else:
            lines.append(f"{label}_{i} = {_specialized_marker_text(e, values, var)}")
    _emit("\n".join(lines), args.output)


def _cmd_faber(args):
    _check_bounds(n=args.n)
    fam = faberkernel.faber_polys(args.n)
    indices = range(1, args.n + 1) if args.all else [args.n]
    _emit_marker_family(args, "F", "w", {i: fam.poly(i) for i in indices})
    return 0


def _cmd_tpoly(args):
    _check_bounds(n=args.n)
    fam = faberkernel.t_polys(args.n)
    indices = range(0, args.n + 1) if args.all else [args.n]
    _emit_marker_family(args, "T", "w", {i: fam.poly(i) for i in indices})
    return 0


def _cmd_lambda(args):
    _check_bounds(p=args.p)
    fam = faberkernel.lambda_direct(args.p)
    indices = range(0, args.p + 1) if args.all else [args.p]
    _emit_marker_family(args, "Lambda", "u", {i: fam.poly(i) for i in indices})
    return 0


def _cmd_diag(args):
    _check_bounds(p=args.p)
    diag = faberkernel.diag_a(args.p)
    indices = range(1, args.p + 1) if args.all else [args.p]
    seed = _numeric_seed(args)
    values = _family_values([diag.a(i) for i in indices], seed)
    if args.format == "json":
        obj = {"a": {str(i): (diag.a(i).to_json_terms() if values is None
                              else _format_value(diag.a(i).specialize(values)))
                     for i in indices}}
        _emit(_json_text(obj), args.output)
        return 0
    lines = []
    for i in indices:
        body = diag.a(i).render() if values is None \
            else _format_value(diag.a(i).specialize(values))
        lines.append(f"a_{i}^{i} = {body}")
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_grunsky(args):
    _check_bounds(n=args.n, k=args.k)
    builder = faberkernel.grunsky_compose if args.route == "compose" \
        else faberkernel.grunsky_log
    table = builder(args.n, args.k)
    seed = _numeric_seed(args)
    entries = {(n, k): table.beta(n, k)
               for n in range(1, args.n + 1) for k in range(1, args.k + 1)}
    values = _family_values(list(entries.values()), seed)
    if args.format == "json":
        obj = {"n_max": args.n, "k_max": args.k, "route": table.provenance,
               "beta": {f"{n},{k}": (p.to_json_terms() if values is None
                                     else _format_value(p.specialize(values)))
                        for (n, k), p in entries.items()}}
        _emit(_json_text(obj), args.output)
        return 0
    lines = [f"# Grunsky table ({table.provenance})"]
    for (n, k), p in sorted(entries.items()):
        body = p.render() if values is None else _format_value(p.specialize(values))
        lines.append(f"beta[{n},{k}] = {body}")
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_afield(args):
    _check_bounds(p=args.p, n=args.n)
    builder = faberkernel.a_field_grunsky if args.route == "grunsky" \
        else faberkernel.a_field_direct
    table = builder(args.p, args.n)
    seed = _numeric_seed(args)
    entries = {(p, n): table.A(p, n)
               for p in range(0, args.p + 1) for n in range(0, args.n + 1)}
    values = _family_values(list(entries.values()), seed)
    if args.format == "json":
        obj = {"p_max": args.p, "n_max": args.n, "route": table.provenance,
               "A": {f"{p},{n}": (poly.to_json_terms() if values is None
                                  else _format_value(poly.specialize(values)))
                     for (p, n), poly in entries.items()}}
        _emit(_json_text(obj), args.output)
        return 0
    lines = [f"# A-field table ({table.provenance})"]
    for (p, n), poly in sorted(entries.items()):
        body = poly.render() if values is None \
            else _format_value(poly.specialize(values))
        lines.append(f"A[{n}]^{p} = {body}")
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_reverse(args):
    _check_bounds(q=abs(args.q), order=args.order)
    table = inversion.reverse_table(args.q, args.q, args.order)
    ser = table.power(args.q)
    seed = _numeric_seed(args)
    if args.format == "json":
        if seed is None:
            obj = {"q": args.q, "series": ser.to_json_obj()}
        else:
            values = seed.coeff_map(max((c.max_variable() for c in ser.coeffs),
                                        default=0))
            obj = {"q": args.q,
                   "series": {"valuation": ser.valuation, "order": args.order,
                              "coeffs": [_format_value(c.specialize(values))
                                         for c in ser.coeffs]}}
        _emit(_json_text(obj), args.output)
        return 0
    if seed is None:
        _emit(f"(f^-1)^{args.q} = {ser.render()}", args.output)
    else:
        values = seed.coeff_map(max((c.max_variable() for c in ser.coeffs), default=0))
        parts = []
        for i, c in enumerate(ser.coeffs):
            val = c.specialize(values)
            if val:
                k = ser.valuation + i
                power = "z" if k == 1 else f"z^{k}"
                parts.append(f"{_format_value(val)}*{power}")
        _emit(f"(f^-1)^{args.q} = " + (" + ".join(parts) if parts else "0"),
              args.output)
    return 0


def _cmd_eval(args):
    _check_bounds(index=args.index)
    seed = _numeric_seed(args)
    if seed is None:
        raise UsageError("eval needs a numeric seed preset (zero, koebe or random)")
    family = args.family
    if family == "faber":
        entry = faberkernel.faber_polys(args.index).poly(args.index)
        var = "w"
    elif family == "tpoly":
        entry = faberkernel.t_polys(args.index).poly(args.index)
        var = "w"
    elif family == "lambda":
        entry = faberkernel.lambda_direct(args.index).poly(args.index)
        var = "u"
    elif family == "diag":
        poly = faberkernel.diag_a(args.index).a(args.index)
        values = seed.coeff_map(poly.max_variable())
        _emit(_format_value(poly.specialize(values)), args.output)
        return 0
    else:
        raise UsageError(f"unknown family '{family}'")
    values = _family_values([entry], seed)
    if args.at is None:
        if args.format == "json":
            _emit(_json_text({family: _marker_json(entry, values)}), args.output)
        else:
            _emit(_specialized_marker_text(entry, values, var), args.output)
        return 0
    at = _complex_value(args.at)
    total = 0j
    items = enumerate(entry.coeffs) if isinstance(entry, WPoly) \
        else entry.entries.items()
    for e, c in items:
        total += complex(c.specialize(values)) * at ** e
    if args.format == "json":
        _emit(_json_text({family: {"at": [at.real, at.imag],
                                   "value": [total.real, total.imag]}}),
              args.output)
    else:
        _emit(_format_value(total), args.output)
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
    reports = []
    names = suites.suite_names() if args.suite == "all" else [args.suite]
    include_contour = args.suite in ("all", "contour")
    include_sweep = args.suite in ("all", "sweep")
    exact_names = [n for n in names if n in suites.suite_names()]
    if args.suite not in ("all", "contour", "sweep") and not exact_names:
        raise UsageError(
            f"unknown suite '{args.suite}' "
            f"(have: {', '.join(suites.suite_names() + ['contour', 'sweep', 'all'])})")
    overrides = {flag: getattr(args, flag) for flag in suites.FLAGS
                 if getattr(args, flag) is not None}
    for name in exact_names:
        reports.append(suites.run_suite(name, order=args.order, **overrides))
    contour_reports = []
    if include_contour:
        seed = koebe_seed(Fraction(str(args.rho)))
        for p in range(0, (args.pmax if args.pmax is not None else 4) + 1):
            contour_reports.append(
                contour_check(seed, p, _complex_value(args.z), args.r, args.M))
    if include_sweep:
        pairs = suites.collect_pairs(order=args.order, **overrides)
        reports.append(numeric_identity_sweep(pairs, draws=args.draws))
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

    def add_common(p):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--seed", default="generic",
                       choices=["generic", "zero", "koebe", "random"])
        p.add_argument("--rho", type=str, default="1/2",
                       help="koebe seed scale (exact rational, e.g. 1/2 or 0.5)")
        p.add_argument("--rand-seed", type=int, default=0)
        p.add_argument("--bound", type=float, default=0.5)

    p = sub.add_parser("faber", help="Faber polynomials F_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all", action="store_true", help="emit indices 1..n")
    add_common(p)
    p.set_defaults(func=_cmd_faber)

    p = sub.add_parser("tpoly", help="companion polynomials T_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_tpoly)

    p = sub.add_parser("lambda", help="eliminator Laurent polynomials Lambda_p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--all", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("diag", help="diagonal coefficients a_p^p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--all", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("grunsky", help="Grunsky coefficient table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--route", choices=["log", "compose"], default="log")
    add_common(p)
    p.set_defaults(func=_cmd_grunsky)

    p = sub.add_parser("afield", help="vector-field coefficient table A_n^p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--route", choices=["direct", "grunsky"], default="direct")
    add_common(p)
    p.set_defaults(func=_cmd_afield)

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
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", help="specialize a family entry numerically")
    p.add_argument("--family", required=True,
                   choices=["faber", "tpoly", "lambda", "diag"])
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
