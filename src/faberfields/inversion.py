"""Reverse series of the seed and the ladder identities it satisfies.

With g = f^{-1} (the compositional inverse of the seed), the integer powers
g^q = z^q (1 + sum delta_n^q z^n) are tabulated with their coefficient
polynomials delta_n^q, and the derivations of :mod:`faberfields.kirillov`
act on them coefficientwise.  The identities checked here:

    L_k  g      = -g^{k+1}                       (k >= 1)
    L_0  g      = -g + z g'
    L_{-1} g    = -1 + (1 + 2 c1 z) g'
    L_{-p} g    = -g^{1-p} - Lambda_p(z) g'      (p >= 2)
    L_k  g^{-k} = k                              (k >= 1)
    L_{-p} g^p  = -p - Lambda_p(z) (g^p)'        (p >= 1)

where Lambda_p(z) is the eliminator Laurent polynomial read at the series
variable.

Every power g^q comes from :func:`~faberfields.series.reversion_powers`,
the one Lagrange-Burmann loop, which reads it off the powers (f/w)^(-m) of
the seed, each taken by Miller's recurrence (``series.unit_pow``), so no
power of g costs a product of two dense series.  g itself is the q = 1 entry
as :func:`~faberfields.series.ps_reversion` returns it, checked by composing
back to z as g(f(z)) = z, a sum of g_m f^m in which each f^m is a product
with the seed; ``unique_elimination_pairs`` keeps ``laurent_pow`` as an
independent route.

Every power is asked for exact through the highest power of z read, and a
product with Lambda_p(z), which reaches down to z^(1-p), reads its other
factor p - 1 powers further; the series layer raises OrderError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import faberkernel, kirillov, polyring
from .faberkernel import _seed, a_field_direct, lambda_direct
from .kirillov import make_L
from .polyring import CoeffPoly
from .reports import CheckReport, IdentityPair, report_from_pairs, series_pairs
from .series import (
    LaurentSeries,
    laurent_pow,
    ps_reversion,
    reversion_powers,
    z_series,
    zero_series,
)


@dataclass(frozen=True)
class ReverseSeriesTable:
    qmin: int
    qmax: int
    order: int
    series: dict

    def power(self, q: int) -> LaurentSeries:
        if not self.qmin <= q <= self.qmax:
            raise IndexError(
                f"power {q} not tabulated (have {self.qmin}..{self.qmax})")
        return self.series[q]

    def delta(self, n: int, q: int) -> CoeffPoly:
        """delta_n^q, the z^{q+n} coefficient of g^q divided by the leading z^q."""
        if n < 0:
            raise IndexError("need n >= 0")
        if n == 0:
            return CoeffPoly.one()
        return self.power(q).coefficient(q + n)


#: The highest reversion built so far, under "g": grow-only, as
#: ``faberkernel._STREAMS`` is.
_STREAMS: dict = {}


@lru_cache(maxsize=None)
def _reversion(order: int) -> LaurentSeries:
    """g = f^{-1} through z^order.  Only an order above every earlier one
    runs ``ps_reversion``; a lower one is the truncation of the highest
    build.  That build passed its composition check g(f(z)) = z through a
    higher power of z, and [z^k] g(f(z)) reads only g_m with m <= k, so the
    truncation passes the same check through z^order.
    """
    g = _STREAMS.get("g")
    if g is None or g.order < order:
        g = _STREAMS["g"] = ps_reversion(_seed(order))
    return g.truncate(order)


def clear_caches() -> None:
    """Empty every ``lru_cache`` builder and every stream of ``faberkernel``,
    ``kirillov`` and this module, so the next request builds from the seed
    again, and the product rows of ``polyring._MONO_MUL_CACHE``.  The
    interned monomials stay: they keep the ids that key the rows stable, and
    every polynomial still held refers to them."""
    for fn in vars(faberkernel).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    faberkernel._STREAMS.clear()
    kirillov._STREAMS.clear()
    _reversion.cache_clear()
    _STREAMS.clear()
    polyring._MONO_MUL_CACHE.clear()


def _reverse_powers(qs, top: int) -> dict:
    """{q: g^q} for each q in ``qs``, where g = f^{-1}, each exact through z^top.

    Every other power is read off the seed by ``series.reversion_powers``;
    g itself (q = 1) is the reversion, which passed its composition check,
    and is not built again.
    """
    others = set(qs) - {1}
    pows = reversion_powers(_seed(max(top + 1 - min(others, default=1), 1)), others, top)
    if 1 in qs:
        pows[1] = _reversion(top)
    return pows


def reverse_table(qmin: int, qmax: int, N: int) -> ReverseSeriesTable:
    """Tabulate g^q for q in [qmin, qmax], each exact through z^N."""
    if qmin > qmax:
        raise ValueError("need qmin <= qmax")
    if N < 1:
        raise ValueError("need N >= 1")
    return ReverseSeriesTable(qmin, qmax, N, _reverse_powers(range(qmin, qmax + 1), N))


def _thm51_pairs(group: str, indices: tuple, lhs, rhs, N: int):
    """Pairs of one identity group, labelled ``thm51-<group>``, through z^N."""
    return series_pairs(f"thm51-{group}", (("group", group),) + indices, lhs, rhs, N)


def thm51_positive_pairs(kmax: int, N: int):
    """L_k g = -g^{k+1} and L_k g^{-k} = k, exact through z^N."""
    pows = _reverse_powers(range(-kmax, kmax + 2), N)
    for k in range(1, kmax + 1):
        op = make_L(k)
        yield from _thm51_pairs("power", (("k", k),), op.apply(pows[1]), -pows[k + 1], N)
        yield from _thm51_pairs("inverse-power", (("k", k),),
                                op.apply(pows[-k]), zero_series(N) + k, N)


def check_thm51_positive(kmax: int, N: int) -> CheckReport:
    return report_from_pairs("thm51-positive", thm51_positive_pairs(kmax, N),
                             ("group", "k"))


def thm51_zero_negative_pairs(pmax: int, N: int):
    """The L_0, L_{-1}, L_{-p} and L_{-p} g^p identity groups, exact through z^N."""
    P = max(pmax, 1)
    pows = _reverse_powers(range(1 - pmax, P + 1), N)
    # Lambda_p(z) reaches down to z^(1-p), so its products read g^p through z^(N + P).
    dpows = {p: s.derivative() for p, s in _reverse_powers(range(1, P + 1), N + P).items()}
    g, gprime = pows[1], dpows[1]
    lams = lambda_direct(P)

    lhs = make_L(0).apply(g)
    yield from _thm51_pairs("L0", (("p", 0),), lhs, (-g) + z_series() * gprime, N)

    afield = a_field_direct(P, max(N - 1, 1))  # g through z^N holds c_1..c_(N-1)
    lhs = make_L(-1, afield).apply(g)
    two_c1_z = z_series().scale(_seed(2).coefficient(2) * 2)
    rhs = (zero_series(N) - 1) + (two_c1_z + 1) * gprime
    yield from _thm51_pairs("Lminus1", (("p", 1),), lhs, rhs, N)

    for p in range(2, pmax + 1):
        lhs = make_L(-p, afield).apply(g)
        rhs = -pows[1 - p] - lams.poly(p).at_variable() * gprime
        yield from _thm51_pairs("negative", (("p", p),), lhs, rhs, N)

    for p in range(1, pmax + 1):
        lhs = make_L(-p, afield).apply(pows[p])
        rhs = (zero_series(N) - p) - lams.poly(p).at_variable() * dpows[p]
        yield from _thm51_pairs("power-negative", (("p", p),), lhs, rhs, N)


def check_thm51_zero_and_negative(pmax: int, N: int) -> CheckReport:
    return report_from_pairs("thm51-zero-negative", thm51_zero_negative_pairs(pmax, N),
                             ("group", "p"))


def thm51_pairs(kmax: int, pmax: int, N: int):
    """Both halves of Theorem 5.1: the positive and the zero/negative groups."""
    yield from thm51_positive_pairs(kmax, N)
    yield from thm51_zero_negative_pairs(pmax, N)


def unique_elimination_pairs(ps):
    """g^{1-p} + Lambda_p(z) g' has no power z^m with m <= 1, for p in ps.

    This is the uniqueness-style statement that pins the eliminator at the
    reverse series side.  It reads z^1 at most, so g is taken exact through
    z^(p + 1), as the z^(1-p) principal part of Lambda_p(z) needs.
    """
    for p in ps:
        if p < 2:
            raise ValueError("need p >= 2")
        g = _reversion(p + 1)
        lam_z = lambda_direct(p).poly(p).at_variable()
        e = laurent_pow(g, 1 - p) + lam_z * g.derivative()
        for m in range(min(e.valuation, 1 - p), 2):
            yield IdentityPair("unique-elimination", (("p", p), ("m", m)),
                               e.coefficient(m), CoeffPoly.zero())


def unique_elimination_check(p: int, N: int) -> CheckReport:
    """unique_elimination_pairs for the single index p.  N reaches no cell; it
    stays because the benchmark calls this function with two arguments."""
    return report_from_pairs("unique-elimination", unique_elimination_pairs((p,)),
                             ("p", "m"))
