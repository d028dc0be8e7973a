"""The suite registry: every exact check suite, defined once.

Each entry names the pair generator of its identity, the indices that key a
report cell, its default sizes (the package's acceptance targets), how
``--order N`` rescales them, and which of the CLI's ``--kmax``/``--pmax``
flags it honours.  :func:`suite_pairs` builds one suite's pairs at those
sizes and :func:`suite_report` turns them into the exact report;
``faberfields check`` builds each suite's pairs once and hands the same
objects to the numeric sweep.  :func:`run_suite` does both steps for one
suite, and :func:`collect_pairs` gathers the pairs of every suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import faberkernel, inversion, kirillov
from .reports import CheckReport, IdentityPair, report_from_pairs

#: The size flags of ``faberfields check``; each suite honours a subset.
FLAGS = ("kmax", "pmax")


@dataclass(frozen=True)
class Suite:
    pairs: Callable[..., Iterable[IdentityPair]]
    cell_keys: tuple[str, ...]
    defaults: dict
    order_map: Callable[[int], dict]
    flags: tuple[str, ...] = ()


_SUITES: dict[str, Suite] = {
    "grunsky-symmetry": Suite(faberkernel.grunsky_symmetry_pairs, ("n", "k"),
                              {"N": 12}, lambda o: {"N": o}),
    # Every index a route pair carries, so each pair is a cell of its own.
    "routes": Suite(faberkernel.route_equivalence_pairs, ("n", "k", "m", "p", "e"),
                    {"n": 10, "afield": 8},
                    lambda o: {"n": o, "afield": max(min(o, 8), 1)}),
    "elimination": Suite(faberkernel.elimination_pairs, ("p", "m"), {"pmax": 8},
                         lambda o: {"pmax": o}, ("pmax",)),
    "thm42": Suite(kirillov.thm42_pairs, ("k", "n"), {"kmax": 5, "pmax": 8},
                   lambda o: {"kmax": min(5, o), "pmax": o}, ("kmax", "pmax")),
    "recursion": Suite(kirillov.recursion_pairs, ("p",), {"pmax": 8},
                       lambda o: {"pmax": o}, ("pmax",)),
    "lemma41": Suite(kirillov.lemma41_pairs, ("k", "m"), {"kmax": 4, "mmax": 12},
                     lambda o: {"kmax": 4, "mmax": o + 4}, ("kmax",)),
    "commutation": Suite(kirillov.commutation_pairs, ("n", "j", "sample"),
                         {"nmax": 4, "jmax": 4},
                         lambda o: {"nmax": min(4, o), "jmax": min(4, o)}),
    "faber-derivative": Suite(faberkernel.faber_derivative_pairs, ("n",), {"N": 8},
                              lambda o: {"N": o}),
    "gen-identity": Suite(faberkernel.gen_identity_pairs, ("p", "k"),
                          {"pmax": 8, "kmax": 8}, lambda o: {"pmax": o, "kmax": o},
                          ("pmax", "kmax")),
    "phi-generating": Suite(faberkernel.phi_generating_pairs, ("p",),
                            {"xi_max": 6, "z_max": 10},
                            lambda o: {"xi_max": min(6, o), "z_max": o + 2}),
    "thm51": Suite(inversion.thm51_pairs, ("group", "k", "p"),
                   {"kmax": 5, "pmax": 5, "N": 10},
                   lambda o: {"kmax": min(5, o), "pmax": min(5, o), "N": o + 2},
                   ("kmax", "pmax")),
    "unique-elimination": Suite(inversion.unique_elimination_pairs, ("p", "m"),
                                {"ps": (2, 3)}, lambda o: {}),
    "negative-action": Suite(kirillov.negative_action_pairs, ("p", "N"), {"pmax": 8},
                             lambda o: {"pmax": o}, ("pmax",)),
}


def suite_names() -> list[str]:
    return list(_SUITES)


def _lookup(name: str) -> Suite:
    if name not in _SUITES:
        raise KeyError(f"unknown suite '{name}' (have {', '.join(_SUITES)})")
    return _SUITES[name]


def _sizes(suite: Suite, order: int | None, overrides: dict) -> dict:
    """Default sizes, rescaled by ``order``; the flags the suite honours win."""
    unknown = set(overrides) - set(FLAGS)
    if unknown:
        raise TypeError(f"unknown size override {', '.join(sorted(unknown))} "
                        f"(have {', '.join(FLAGS)})")
    sizes = dict(suite.defaults)
    if order is not None:
        sizes.update(suite.order_map(order))
    sizes.update((k, v) for k, v in overrides.items() if k in suite.flags)
    return sizes


def suite_pairs(name: str, order: int | None = None,
                **overrides) -> Iterable[IdentityPair]:
    """The identity pairs of one exact suite; ``order`` rescales its sizes and
    ``kmax``/``pmax`` overrides win where the suite honours them."""
    suite = _lookup(name)
    return suite.pairs(**_sizes(suite, order, overrides))


def suite_report(name: str, pairs: Iterable[IdentityPair]) -> CheckReport:
    """The exact report of one suite's pairs, a cell per value of its cell keys."""
    return report_from_pairs(name, pairs, _lookup(name).cell_keys)


def run_suite(name: str, order: int | None = None, **overrides) -> CheckReport:
    """Run one exact suite at the sizes of :func:`suite_pairs`."""
    return suite_report(name, suite_pairs(name, order, **overrides))


def collect_pairs(order: int | None = None, **overrides) -> list[IdentityPair]:
    """Identity pairs of every exact suite, in registry order, for the numeric
    sweep, at exactly the sizes :func:`run_suite` checks for the same arguments."""
    return [pair for name in _SUITES for pair in suite_pairs(name, order, **overrides)]
