"""Outside-in per-layer trace of the faberfields package.

Wrappers are installed from the benchmark's own files around the public
functions of each module; the package itself is not modified.  Every wrapper
records a span: its calls, its inclusive time (outermost activation only, so
recursion is not counted twice) and its self time (duration minus the time
of directly nested spans).

A function that another module imported by value lives under several names.
``install`` makes exactly one wrapper per function object and rebinds every
name in every ``faberfields`` namespace (modules and classes) that refers to
it, so a call is neither missed nor wrapped twice.
"""

from __future__ import annotations

import sys
from time import perf_counter


class Span:
    __slots__ = ("calls", "incl_s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.term_pairs = 0
        self.cells = 0
        self.cells_failed = 0
        self._stack: list[float] = []  # child time of each open span
        self._wrapped: dict[int, object] = {}

    def span(self, name: str) -> Span:
        sp = self.spans.get(name)
        if sp is None:
            sp = self.spans[name] = Span()
        return sp

    def wrap(self, fn, name, before=None, after=None):
        """One wrapper around ``fn``, recording span ``name`` (a string, or a
        function of the call's arguments).  ``before(span, args)`` runs
        before the span opens; ``after(args, result)`` runs inside it."""
        if getattr(fn, "_perfbench_span", None) is not None:
            raise RuntimeError(f"{name}: function is already wrapped")
        if id(fn) in self._wrapped:
            raise RuntimeError(f"{name}: second wrapper requested")
        stack = self._stack
        sp = self.span(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            s = sp if sp is not None else self.span(name(args, kwargs))
            if before is not None:
                before(s, args)
            stack.append(0.0)
            s.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                dt = perf_counter() - t0
                s.active -= 1
                s.calls += 1
                s.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if not s.active:
                    s.incl_s += dt

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper._perfbench_span = name
        self._wrapped[id(fn)] = wrapper
        return wrapper

    def self_total(self) -> float:
        return sum(sp.self_s for sp in self.spans.values())


def _namespaces(package: str):
    """(label, owner) for every module and class of the package."""
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        yield modname, mod
        for obj in list(vars(mod).values()):
            if isinstance(obj, type) and obj.__module__ == modname:
                yield f"{modname}.{obj.__name__}", obj


def rebind(orig, wrapper, package: str = "faberfields") -> list[str]:
    """Point every name bound to ``orig`` in the package at ``wrapper``."""
    bound = []
    for label, owner in _namespaces(package):
        for key, value in list(vars(owner).items()):
            if value is orig:
                setattr(owner, key, wrapper)
                bound.append(f"{label}.{key}")
    return bound


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer."""
    from faberfields import (cli, faberkernel, inversion, kirillov,
                             numeric_oracle, polyring, series, suites)

    def count_pairs(span, args):
        # Count each product once: a CoeffPoly product that delegates to
        # accumulate_product is already inside the product span.
        if span.active:
            return
        a, b = args[-2], args[-1]
        if isinstance(b, polyring.CoeffPoly):
            tracer.term_pairs += len(a.terms) * len(b.terms)

    def count_cells(args, report):
        tracer.cells += len(report.cells)
        tracer.cells_failed += sum(1 for c in report.cells if not c.ok)

    targets = [
        (polyring, "accumulate_product", "polyring.product", count_pairs, None),
        (polyring.CoeffPoly, "__mul__", "polyring.product", count_pairs, None),
        (polyring.CoeffPoly, "partial", "polyring.partial", None, None),
        (polyring.CoeffPoly, "specialize", "polyring.specialize", None, None),
        (series.LaurentSeries, "__mul__", "series.mul", None, None),
        (series, "laurent_recip", "series.recip", None, None),
        (series, "laurent_pow", "series.pow", None, None),
        (series.WPoly, "eval_at", "series.eval_at", None, None),
        (series.LaurentWPoly, "eval_at", "series.eval_at", None, None),
        (series, "ps_reversion", "series.reversion", None, None),
        (series, "ps_compose", "series.compose", None, None),
        (series, "bi_log_in_u", "series.bi_log", None, None),
        (series, "divided_difference", "series.divided_difference", None, None),
        (kirillov.Derivation, "apply", "kirillov.apply", None, None),
        (kirillov, "check_negative_action", "kirillov.negative_action", None, None),
        (kirillov, "negative_action_report", "kirillov.negative_action", None, None),
        (inversion, "reverse_table", "inversion.reverse_table", None, None),
        (inversion, "check_thm51_positive", "inversion.thm51", None, None),
        (inversion, "check_thm51_zero_and_negative", "inversion.thm51", None, None),
        (numeric_oracle, "numeric_identity_sweep", "numeric_oracle.sweep", None, None),
        (numeric_oracle, "contour_check", "numeric_oracle.contour", None, None),
        (suites, "run_suite", lambda a, kw: f"suites.{a[0]}", None, count_cells),
        (suites, "collect_pairs", "suites.collect_pairs", None, None),
        (cli, "_emit", "cli.emit", None, None),
    ]
    targets += [(faberkernel, b, f"faberkernel.{b}", None, None) for b in BUILDERS]

    for owner, attr, name, before, after in targets:
        orig = vars(owner)[attr]
        if not rebind(orig, tracer.wrap(orig, name, before, after)):
            raise RuntimeError(f"{owner.__name__}.{attr}: no binding found")


BUILDERS = ("faber_polys", "t_polys", "diag_a", "grunsky_log", "grunsky_compose",
            "lambda_direct", "a_field_direct", "_elimination_family")

EXACT_SUITES = ("grunsky-symmetry", "routes", "elimination", "thm42", "recursion",
                "lemma41", "commutation", "faber-derivative", "gen-identity",
                "phi-generating", "thm51", "unique-elimination", "negative-action")


class CacheProbe:
    """Sizes of the package's caches, read before and after a workload.

    The caches are read directly, so a renamed or replaced cache fails the
    traced sample instead of reading as an empty one."""

    def __init__(self):
        from faberfields import faberkernel, inversion, polyring
        self.polyring, self.faberkernel, self.inversion = polyring, faberkernel, inversion
        self.lru = {b: getattr(faberkernel, b) for b in BUILDERS}
        self.mono_start = self.mono_entries()

    def mono_entries(self) -> int:
        return len(self.polyring._MONO_MUL_CACHE)

    def read(self) -> dict:
        fk = self.faberkernel
        out = {
            "polyring.mono_cache_entries": self.mono_entries(),
            "polyring.interned_monomials": len(self.polyring._MONO_INTERN),
            "faberkernel.seed_orders": fk._seed.cache_info().currsize,
            "faberkernel.r_orders": fk._r_series.cache_info().currsize,
            "faberkernel.s_orders": fk._s_series.cache_info().currsize,
            "inversion.reversion_orders": self.inversion._reversion.cache_info().currsize,
        }
        for b, fn in self.lru.items():
            info = fn.cache_info()
            out[f"faberkernel.{b}.hits"] = info.hits
            out[f"faberkernel.{b}.misses"] = info.misses
        return out


def layer_metrics(tracer: Tracer, probe: CacheProbe) -> dict:
    """The per-layer metrics of one traced workload run, all numbers.

    A ``_s`` or ``.s`` time is inclusive: it covers the layers the function
    calls, so nested layers overlap (``ps_compose`` runs inside
    ``ps_reversion``).  ``series.mul_self_s`` is the one self time.
    ``polyring.mono_hit_ratio`` is 1 - (new ``_MONO_MUL_CACHE`` entries) /
    ``polyring.term_pairs``.
    """
    sp = tracer.spans

    def incl(name):
        return sp[name].incl_s if name in sp else 0.0

    def calls(name):
        return sp[name].calls if name in sp else 0

    caches = probe.read()
    new_entries = caches["polyring.mono_cache_entries"] - probe.mono_start
    pairs = tracer.term_pairs
    m = {
        "polyring.term_pairs": pairs,
        "polyring.product_s": incl("polyring.product"),
        "polyring.mono_cache_entries": caches["polyring.mono_cache_entries"],
        "polyring.interned_monomials": caches["polyring.interned_monomials"],
        "polyring.mono_hit_ratio": 1 - new_entries / pairs if pairs else 0.0,
        "polyring.partial_calls": calls("polyring.partial"),
        "polyring.partial_s": incl("polyring.partial"),
        "polyring.specialize_calls": calls("polyring.specialize"),
        "polyring.specialize_s": incl("polyring.specialize"),
        "series.mul_calls": calls("series.mul"),
        "series.mul_self_s": sp["series.mul"].self_s if "series.mul" in sp else 0.0,
        "series.recip_calls": calls("series.recip"),
        "series.recip_s": incl("series.recip"),
        "series.pow_s": incl("series.pow"),
        "series.eval_at_s": incl("series.eval_at"),
        "series.reversion_s": incl("series.reversion"),
        "series.compose_calls": calls("series.compose"),
        "series.compose_s": incl("series.compose"),
        "series.bi_log_s": incl("series.bi_log"),
        "series.divided_difference_s": incl("series.divided_difference"),
    }
    for b in BUILDERS:
        m[f"faberkernel.{b}.s"] = incl(f"faberkernel.{b}")
        m[f"faberkernel.{b}.hits"] = caches[f"faberkernel.{b}.hits"]
        m[f"faberkernel.{b}.misses"] = caches[f"faberkernel.{b}.misses"]
    for key in ("faberkernel.seed_orders", "faberkernel.r_orders", "faberkernel.s_orders"):
        m[key] = caches[key]
    m.update({
        "kirillov.apply_calls": calls("kirillov.apply"),
        "kirillov.apply_s": incl("kirillov.apply"),
        "kirillov.negative_action_s": incl("kirillov.negative_action"),
        "inversion.reverse_table_s": incl("inversion.reverse_table"),
        "inversion.thm51_s": incl("inversion.thm51"),
        "inversion.reversion_orders": caches["inversion.reversion_orders"],
        "numeric_oracle.sweep_s": incl("numeric_oracle.sweep"),
        "numeric_oracle.contour_s": incl("numeric_oracle.contour"),
    })
    for s in EXACT_SUITES:
        m[f"suites.{s}.s"] = incl(f"suites.{s}")
    m.update({
        "suites.collect_pairs_s": incl("suites.collect_pairs"),
        "suites.cells": tracer.cells,
        "suites.cells_failed": tracer.cells_failed,
        "cli.emit_s": incl("cli.emit"),
    })
    return m
