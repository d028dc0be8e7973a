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

Laurent products that mix a z^{1-p} principal part with power series are
carried with enough internal margin that conclusions at the requested order
are exact; the series layer errors out otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _reversion(order: int) -> LaurentSeries:
    return ps_reversion(_seed(order))


def _reverse_powers(g: LaurentSeries, qmin: int, qmax: int) -> dict:
    """{q: g^q} for q in [qmin, qmax], where g = f^{-1} is known through z^o.

    Every other power is read off the seed by ``series.reversion_powers``,
    so g^q is known through z^(o - 1 + q); g itself (q = 1) is the
    reversion, which passed its composition check, and is not built again.
    """
    qs = range(qmin, qmax + 1)
    pows = reversion_powers(_seed(g.order), [q for q in qs if q != 1])
    if 1 in qs:
        pows[1] = g
    return pows


def reverse_table(qmin: int, qmax: int, N: int) -> ReverseSeriesTable:
    """Tabulate g^q for q in [qmin, qmax], each exact through z^N."""
    if qmin > qmax:
        raise ValueError("need qmin <= qmax")
    if N < 1:
        raise ValueError("need N >= 1")
    margin = max(0, -qmin) + 1
    g = _reversion(N + margin)
    pows = _reverse_powers(g, qmin, qmax)
    return ReverseSeriesTable(qmin, qmax, N,
                              {q: s.truncate(N) for q, s in pows.items()})


def _thm51_pairs(group: str, indices: tuple, lhs, rhs, N: int):
    """Pairs of one identity group, labelled ``thm51-<group>``, through z^N."""
    return series_pairs(f"thm51-{group}", (("group", group),) + indices, lhs, rhs, N)


def thm51_positive_pairs(kmax: int, N: int):
    """L_k g = -g^{k+1} and L_k g^{-k} = k, exact through z^N."""
    g = _reversion(N + kmax + 1)
    pows = _reverse_powers(g, -kmax, kmax + 1)
    for k in range(1, kmax + 1):
        op = make_L(k)
        yield from _thm51_pairs("power", (("k", k),), op.apply(g.truncate(N)),
                                (-pows[k + 1]).truncate(N), N)
        yield from _thm51_pairs("inverse-power", (("k", k),),
                                op.apply(pows[-k].truncate(N)), zero_series(N) + k, N)


def check_thm51_positive(kmax: int, N: int) -> CheckReport:
    return report_from_pairs("thm51-positive", thm51_positive_pairs(kmax, N),
                             ("group", "k"))


def thm51_zero_negative_pairs(pmax: int, N: int):
    """The L_0, L_{-1}, L_{-p} and L_{-p} g^p identity groups, exact through z^N."""
    g = _reversion(N + pmax + 1)  # margin for Laurent products with Lambda_p(z)
    pows = _reverse_powers(g, min(1 - pmax, -1), max(pmax, 1))
    gprime = g.derivative()
    lams = lambda_direct(max(pmax, 1))

    lhs = make_L(0).apply(g.truncate(N))
    rhs = ((-g) + z_series() * gprime).truncate(N)
    yield from _thm51_pairs("L0", (("p", 0),), lhs, rhs, N)

    afield = a_field_direct(max(pmax, 1), N)
    lhs = make_L(-1, afield).apply(g.truncate(N))
    two_c1_z = z_series().scale(_seed(2).coefficient(2) * 2)
    rhs = ((zero_series(N) - 1) + (two_c1_z + 1) * gprime).truncate(N)
    yield from _thm51_pairs("Lminus1", (("p", 1),), lhs, rhs, N)

    for p in range(2, pmax + 1):
        lhs = make_L(-p, afield).apply(g.truncate(N))
        lam_z = lams.poly(p).at_variable()
        rhs = (-pows[1 - p] - lam_z * gprime).truncate(N)
        yield from _thm51_pairs("negative", (("p", p),), lhs, rhs, N)

    for p in range(1, pmax + 1):
        gp = pows[p]
        lhs = make_L(-p, afield).apply(gp.truncate(N))
        lam_z = lams.poly(p).at_variable()
        rhs = ((zero_series(N) - p) - lam_z * gp.derivative()).truncate(N)
        yield from _thm51_pairs("power-negative", (("p", p),), lhs, rhs, N)


def check_thm51_zero_and_negative(pmax: int, N: int) -> CheckReport:
    return report_from_pairs("thm51-zero-negative", thm51_zero_negative_pairs(pmax, N),
                             ("group", "p"))


def thm51_pairs(kmax: int, pmax: int, N: int):
    """Both halves of Theorem 5.1: the positive and the zero/negative groups."""
    yield from thm51_positive_pairs(kmax, N)
    yield from thm51_zero_negative_pairs(pmax, N)


def unique_elimination_pairs(ps, N: int):
    """g^{1-p} + Lambda_p(z) g' has no power z^m with m <= 1, for p in ps.

    This is the uniqueness-style statement that pins the eliminator at the
    reverse series side; g is taken exact through z^(N + p + 1).
    """
    for p in ps:
        if p < 2:
            raise ValueError("need p >= 2")
        g = _reversion(N + p + 1)
        lam_z = lambda_direct(p).poly(p).at_variable()
        e = laurent_pow(g, 1 - p) + lam_z * g.derivative()
        for m in range(min(e.valuation, 1 - p), 2):
            yield IdentityPair("unique-elimination", (("p", p), ("m", m)),
                               e.coefficient(m), CoeffPoly.zero())


def unique_elimination_check(p: int, N: int) -> CheckReport:
    return report_from_pairs("unique-elimination", unique_elimination_pairs((p,), N),
                             ("p", "m"))
