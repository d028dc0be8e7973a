"""Families attached to the generic univalent seed f(z) = z(1 + sum c_n z^n).

Everything here is built from generating functions over the exact
coefficient ring:

* Faber polynomials ``F_n(w)`` of the reflected function 1/f(1/z), from
  z f'(z) / (f(z) - w f(z)^2) = 1 + sum F_n(w) z^n;
* the companion family ``T_n(w)`` from z f'(z)^2 / (f(z) - w f(z)^2);
* diagonal coefficients ``a_p^p`` from z^2 f'(z)^2 / f(z)^2;
* Grunsky coefficients ``beta_{n,k}``, by the bivariate logarithm kernel and
  independently by expanding F_n(1/f(z)) = sum_m F_n[m] f(z)^-m;
* the eliminator Laurent polynomials ``Lambda_p(u)`` (exponents 1-p .. 1)
  that cancel every power z^m, m <= 1, of z^(1-p) f'(z) when u = f(z);
* the vector-field coefficient tables ``A_n^p`` (and intermediates
  ``B_k^p``), again by two independent routes.

F_n, T_n and Lambda_p are the rows of one marker family (``_marker_family``),
the coefficients [z^n] front(z) f(z)^m of front(z) / (1 - w f(z)), with the
fronts z f'/f, z f'^2/f and S = z^2 f'^2/f^2.  The second routes of T_n,
a_p^p and the B and A tables are each one convolution with f'
(``_fprime_times``): T = f' F, B_k^p = [z^(p+k)] f' - [z^(p-1)] f' beta_(.,k+1)
and a_p^p = B_0^p.  Every table builder, here and in ``kirillov`` and
``inversion``, reads the seed coefficients c_k only through ``_seed``.

Every power of the seed, of either sign, comes from one kernel, Miller's
recurrence on f/z (``series.unit_pow``): each f^e through ``_f_power``, and
r = z/f = (f/z)^-1 and S = f'^2 (f/z)^-2, so no builder here takes a
reciprocal or a product power of a series.  Lambda_p(f) + z^(1-p) f' and
F_n(1/f) are each one ``series.scaled_sum`` of those powers, accumulated
coefficient by coefficient only through the highest power of z that is read.
Every seed power (``_f_power(e, top)``) and the elimination series E_p are
keyed by that power, not by a seed order: every caller builds exactly what
it reads, and the series layer raises OrderError on any overreach, so
silently truncated tables cannot occur.
Where two formulas exist for the same object, both are implemented and their
exact equality is a checked property; the README names the code each side
of a route check stands on.  All tables are immutable once built; a
builder is cached when a caller reads it twice or the benchmark reads its
cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

from .polyring import CoeffPoly
from .reports import CheckReport, IdentityPair, report_from_pairs, series_pairs
from .series import (
    BiSeries,
    LaurentSeries,
    LaurentWPoly,
    PowerSeries,
    WPoly,
    bi_log_in_u,
    divided_difference,
    scaled_sum,
    seed_series,
    unit_pow,
)


class EliminationError(ValueError):
    """A low-order power survived where the eliminator must cancel it."""

    def __init__(self, p: int, power: int, value: CoeffPoly):
        super().__init__(
            f"elimination failed for p={p}: coefficient of z^{power} is "
            f"{value.render()}, expected 0"
        )
        self.p = p
        self.power = power


# -- shared seed-derived series ------------------------------------------------


@lru_cache(maxsize=None)
def _seed(order: int) -> PowerSeries:
    return seed_series(order)


@lru_cache(maxsize=None)
def _r_series(order: int) -> PowerSeries:
    """r(z) = z / f(z) = (f/z)^-1 from the power kernel, through z^order."""
    return unit_pow(_seed(order + 1).shift(-1), -1)


@lru_cache(maxsize=None)
def _s_series(order: int) -> PowerSeries:
    """S(z) = z^2 f'(z)^2 / f(z)^2 = f'(z) f'(z) (f/z)^-2, through z^order."""
    f = _seed(order + 1)
    fprime = f.derivative()
    return fprime * fprime * unit_pow(f.shift(-1), -2)


def _f_power(e: int, top: int) -> LaurentSeries:
    """f^e = z^e (f/z)^e for any integer e, exact through z^top.

    The unit power is one run of the ``unit_pow`` kernel on f/z from the
    seed through z^(top + 1 - e), so no term past z^top, each denser than
    the last, is formed; f^e with e > top is zero through z^top.
    """
    return unit_pow(_seed(max(top + 1 - e, 1)).shift(-1), e).shift(e).truncate(top)


# -- family containers ------------------------------------------------------------


@dataclass(frozen=True)
class _IndexFamily:
    """Entries ``first``..``max_index`` of a family with one index; ``name``
    formats an entry's name for the IndexError of an index out of range."""
    max_index: int
    entries: tuple
    provenance: str = "generating-function"
    first: ClassVar[int] = 1
    name: ClassVar[str]

    def poly(self, i: int):
        if not self.first <= i <= self.max_index:
            raise IndexError(f"{self.name.format(i)} not in family "
                             f"(have {self.first}..{self.max_index})")
        return self.entries[i - self.first]


class FaberFamily(_IndexFamily):
    """F_1 .. F_max_index, WPoly entries."""
    name = "F_{}"


class TFamily(_IndexFamily):
    """T_0 .. T_max_index, WPoly entries."""
    first, name = 0, "T_{}"


class LambdaFamily(_IndexFamily):
    """Lambda_0 .. Lambda_max_index, LaurentWPoly entries."""
    first, name = 0, "Lambda_{}"


class DiagonalCoeffs(_IndexFamily):
    """a_1^1 .. a_P^P, CoeffPoly entries."""
    name = "a_{0}^{0}"
    a = _IndexFamily.poly


@dataclass(frozen=True)
class GrunskyTable:
    n_max: int
    k_max: int
    entries: dict
    provenance: str = "log-kernel"

    def beta(self, n: int, k: int) -> CoeffPoly:
        if not (1 <= n <= self.n_max and 1 <= k <= self.k_max):
            raise IndexError(
                f"beta_{n},{k} not in table (have n<={self.n_max}, k<={self.k_max})"
            )
        return self.entries[(n, k)]


@dataclass(frozen=True)
class AFieldTable:
    p_max: int
    n_max: int
    a_entries: dict
    b_entries: dict
    provenance: str = "elimination"

    def A(self, p: int, n: int) -> CoeffPoly:
        if not (0 <= p <= self.p_max and 0 <= n <= self.n_max):
            raise IndexError(
                f"A_{n}^{p} not in table (have p<={self.p_max}, n<={self.n_max})"
            )
        return self.a_entries[(p, n)]

    def B(self, p: int, k: int) -> CoeffPoly:
        if not (1 <= p <= self.p_max and 0 <= k <= self.n_max):
            raise IndexError(
                f"B_{k}^{p} not in table (have 1<=p<={self.p_max}, k<={self.n_max})"
            )
        return self.b_entries[(p, k)]


# -- Faber and T families -----------------------------------------------------------


def _marker_family(front: PowerSeries, N: int) -> list[list[CoeffPoly]]:
    """Rows n = 0..N of [z^n] front(z) f(z)^m, m = 0..n: the coefficients of
    z^n in front(z) / (1 - w f(z)), by powers of w.  ``front`` must be known
    through z^N; f^m has valuation m, so no m > n reaches z^n.
    """
    gs = [front * _f_power(m, N) for m in range(N + 1)]
    return [[gs[m].coefficient(n) for m in range(n + 1)] for n in range(N + 1)]


def _fprime_times(xs: list):
    """[z^n] f'(z) X(z) = sum_i (i+1) c_i X_(n-i), with c_0 = 1, for the
    coefficients xs = [X_0, ..., X_n] of a series X over the coefficient ring
    or over marker polynomials."""
    n = len(xs) - 1
    fprime = _seed(n + 1).derivative()
    return sum((xs[n - i] * fprime.coefficient(i) for i in range(1, n + 1)), xs[n])


@lru_cache(maxsize=None)
def faber_polys(N: int) -> FaberFamily:
    """Faber polynomials F_1..F_N of 1/f(1/z), read off the generating series."""
    if N < 1:
        raise ValueError("need N >= 1")
    front = _seed(N + 1).derivative() * _r_series(N)  # z f'/f
    return FaberFamily(N, tuple(WPoly(row) for row in _marker_family(front, N)[1:]))


@lru_cache(maxsize=None)
def t_polys(N: int) -> TFamily:
    """T_0..T_N from the squared-derivative generating series."""
    if N < 0:
        raise ValueError("need N >= 0")
    fprime = _seed(N + 1).derivative()
    front = fprime * fprime * _r_series(N)  # z f'^2 / f
    return TFamily(N, tuple(WPoly(row) for row in _marker_family(front, N)))


def t_from_faber(N: int) -> TFamily:
    """Second route: T_n = [z^n] f'(z) F(z) with F_0 = 1, that is
    T_n = F_n + 2 c1 F_{n-1} + ... + n c_{n-1} F_1 + (n+1) c_n."""
    if N < 0:
        raise ValueError("need N >= 0")
    fab = [WPoly([1])] + (list(faber_polys(N).entries) if N else [])
    return TFamily(N, tuple(_fprime_times(fab[:n + 1]) for n in range(N + 1)),
                   provenance="faber-combination")


# -- diagonal coefficients ------------------------------------------------------------


@lru_cache(maxsize=None)
def diag_a(P: int) -> DiagonalCoeffs:
    """a_p^p read off z^2 f'(z)^2 / f(z)^2 = 1 + sum a_p^p z^p."""
    if P < 1:
        raise ValueError("need P >= 1")
    s = _s_series(P)
    return DiagonalCoeffs(P, tuple(s.coefficient(p) for p in range(1, P + 1)))


def _grunsky_b(table: GrunskyTable | None, p: int, k: int) -> CoeffPoly:
    """B_k^p = [z^(p+k)] f'(z) - [z^(p-1)] f'(z) beta_(., k+1)(z), where
    beta_(., k+1)(z) = sum_(j>=1) beta_{j,k+1} z^j; ``table`` must hold
    beta_{j,k+1} for j < p (None when p = 1)."""
    column = [CoeffPoly.zero()] + [table.beta(j, k + 1) for j in range(1, p)]
    fprime = _seed(p + k + 1).derivative()
    return fprime.coefficient(p + k) - _fprime_times(column)


def diag_a_grunsky(P: int) -> DiagonalCoeffs:
    """Second route: a_p^p = B_0^p (``_grunsky_b``), that is
    a_p^p = (p+1) c_p - [beta_{p-1,1} + 2 c1 beta_{p-2,1} + ... + (p-1) c_{p-2} beta_{1,1}].
    """
    if P < 1:
        raise ValueError("need P >= 1")
    table = grunsky_log(P - 1, 1) if P >= 2 else None
    return DiagonalCoeffs(P, tuple(_grunsky_b(table, p, 0) for p in range(1, P + 1)),
                          provenance="grunsky-combination")


# -- Grunsky coefficients ------------------------------------------------------------


@lru_cache(maxsize=None)
def grunsky_log(N: int, K: int) -> GrunskyTable:
    """Grunsky table from the logarithm kernel

        log[ (1/f(u) - 1/f(v)) / (1/u - 1/v) ] = - sum (1/n) beta_{n,k} u^n v^k.

    With h = f/z the kernel factors exactly as D(u, v) / (h(u) h(v)), where
    D = (f(u) - f(v)) / (u - v).  Since log h(u) is free of v and log h(v)
    free of u, neither reaches a coefficient u^n v^k with n, k >= 1, so
    beta_{n,k} = -n [u^n v^k] log D.  D is formed from P = f(v) - f(u) by the
    divided-difference operation, whose diagonal vanishing is checked; its
    entries D[i][j] = c_{i+j} (c_0 = 1) are single monomials, so the log's
    triangular solve multiplies dense coefficients only by monomials.
    """
    if N < 1 or K < 1:
        raise ValueError("need N, K >= 1")
    nv = N + K + 1
    f = _seed(nv)
    zero = CoeffPoly.zero()
    rows = [[zero] * (nv + 1) for _ in range(N + 1)]
    for j in range(1, nv + 1):
        rows[0][j] = f.coefficient(j)  # f(v)
    for i in range(1, N + 1):
        rows[i][0] = -f.coefficient(i)  # - f(u)
    P = BiSeries(rows, N, nv)
    D = divided_difference(P)  # rectangle (N, K)
    L = bi_log_in_u(D)  # log(D / h(v)); the u^0 and v^0 lines are not read
    entries = {}
    for n in range(1, N + 1):
        for k in range(1, K + 1):
            entries[(n, k)] = L.coefficient(n, k) * (-n)
    return GrunskyTable(N, K, entries, provenance="log-kernel")


@lru_cache(maxsize=None)
def grunsky_compose(N: int, K: int) -> GrunskyTable:
    """Second route: beta_{n,k} is the z^k coefficient of F_n(1/f(z)).

    F_n(1/f) = sum_m F_n[m] f^-m is one ``scaled_sum`` over a table of kernel
    powers f^-m, m = 0..N, each known exactly through the z^K read here.  The expansion
    structure F_n(1/f(z)) = z^-n + sum_{k>=1} beta_{n,k} z^k is verified
    while reading the table off.
    """
    if N < 1 or K < 1:
        raise ValueError("need N, K >= 1")
    fab = faber_polys(N)
    pows = [_f_power(-m, K) for m in range(N + 1)]  # f^-m
    entries = {}
    for n in range(1, N + 1):
        expansion = scaled_sum([(pows[m], cm) for m, cm in fab.poly(n).entries.items()], K)
        if expansion.coefficient(-n) != CoeffPoly.one():
            raise EliminationError(n, -n, expansion.coefficient(-n) - 1)
        for m in range(-n + 1, 1):
            if expansion.coefficient(m):
                raise EliminationError(n, m, expansion.coefficient(m))
        for k in range(1, K + 1):
            entries[(n, k)] = expansion.coefficient(k)
    return GrunskyTable(N, K, entries, provenance="faber-composition")


# -- eliminator Laurent polynomials ---------------------------------------------------


@lru_cache(maxsize=None)
def lambda_direct(P: int) -> LambdaFamily:
    """Lambda_0..Lambda_P from

        xi^2 f'(xi)^2 / f(xi)^2 * u^2 / (f(xi) - u) = sum_p Lambda_p(u) xi^p,

    expanding 1/(f(xi) - u) = - sum_m f(xi)^m / u^{m+1}: with S the front of
    the marker family, Lambda_p = - sum_m [xi^p] S f^m u^(1-m), m <= p.
    """
    if P < 0:
        raise ValueError("need P >= 0")
    rows = _marker_family(_s_series(P), P)
    return LambdaFamily(P, tuple(LaurentWPoly({1 - m: -cm for m, cm in enumerate(row)})
                                 for row in rows))


def lambda_from_t(P: int) -> LambdaFamily:
    """Second route: Lambda_p(u) = -T_{p-1}(1/u) - a_p^p u for p >= 1."""
    if P < 0:
        raise ValueError("need P >= 0")
    entries = [LaurentWPoly({1: -1})]  # Lambda_0 = -u
    if P >= 1:
        tfam = t_polys(P - 1)
        diag = diag_a(P)
        for p in range(1, P + 1):
            lam = -tfam.poly(p - 1).reciprocal_substitute()
            lam = lam + LaurentWPoly({1: -diag.a(p)})
            entries.append(lam)
    return LambdaFamily(P, tuple(entries), provenance="t-combination")


def phi_p(p: int, N: int) -> LaurentSeries:
    """phi_p(z) = Lambda_p(f(z)), a Laurent series with valuation 1-p, through z^N."""
    if p < 0:
        raise ValueError("need p >= 0")
    lam = lambda_direct(p).poly(p)
    f = _seed(N + p) if N + p >= 1 else _seed(1)
    return lam.eval_at(f).truncate(N)


# -- vector-field coefficient tables ----------------------------------------------------


@lru_cache(maxsize=None)
def _elimination_family(P: int, top: int) -> tuple:
    """E_p = z^(1-p) f'(z) + Lambda_p(f(z)) for p = 0..P, each exact through z^top.

    The key is the highest power of z the caller reads, and every E_p has
    ``.order == top``.  Each power f^e, e = 1-P..1, is ``_f_power(e, top)``,
    known exactly through z^top and no further, and no power costs a dense
    product of two series.  Each E_p is one ``scaled_sum`` over that shared
    table, with z^(1-p) f'(z) as one more term.
    """
    fprime = _seed(max(top + P, 1)).derivative()
    lams = lambda_direct(P)
    pows = {e: _f_power(e, top) for e in range(1 - P, 2)}
    return tuple(scaled_sum([(pows[e], ce) for e, ce in lams.poly(p).entries.items()]
                            + [(fprime.shift(1 - p), CoeffPoly.one())], top)
                 for p in range(P + 1))


def elimination_series(p: int, f_order: int) -> LaurentSeries:
    """z^(1-p) f'(z) + Lambda_p(f(z)) with f through z^f_order, so determined
    through z^(f_order - p); it is all zero when f_order <= p."""
    if f_order < 1:
        raise ValueError("seed order must be >= 1")
    return _elimination_family(p, f_order - p)[p]


@lru_cache(maxsize=None)
def a_field_direct(P: int, N: int) -> AFieldTable:
    """A_n^p read off z^(1-p) f'(z) + Lambda_p(f(z)) = sum_{n>=1} A_n^p z^{n+1}.

    Every surviving power z^m with m <= 1 is a hard error: the eliminator
    must cancel the principal part, the constant and the linear term.
    """
    if P < 0 or N < 1:
        raise ValueError("need P >= 0 and N >= 1")
    family = _elimination_family(P, N + 1)
    a_entries = {}
    for p in range(P + 1):
        e = family[p]
        for m in range(e.valuation, 2):
            value = e.coefficient(m)
            if value:
                raise EliminationError(p, m, value)
        a_entries[(p, 0)] = CoeffPoly.zero()
        for n in range(1, N + 1):
            a_entries[(p, n)] = e.coefficient(n + 1)
    diag = diag_a(P) if P >= 1 else None
    f = _seed(N + 1)
    # B_k^p = A_k^p + a_p^p c_k, with c_0 = 1, so B_0^p = a_p^p.
    b_entries = {(p, k): a_entries[(p, k)] + diag.a(p) * f.coefficient(k + 1)
                 for p in range(1, P + 1) for k in range(N + 1)}
    return AFieldTable(P, N, a_entries, b_entries, provenance="elimination")


def a_field_grunsky(P: int, N: int) -> AFieldTable:
    """Second route, via Grunsky coefficients (``_grunsky_b``):

        B_k^p = (p+k+1) c_{p+k} - [beta_{p-1,k+1} + 2 c1 beta_{p-2,k+1} + ...]
        A_k^p = B_k^p - a_p^p c_k,

    with c_0 = 1, so B_0^p = a_p^p and A_0^p = 0, and A_k^0 = k c_k.
    """
    if P < 0 or N < 1:
        raise ValueError("need P >= 0 and N >= 1")
    table = grunsky_log(P - 1, N + 1) if P >= 2 else None
    f = _seed(N + 1)
    a_entries = {(0, n): f.coefficient(n + 1) * n for n in range(N + 1)}
    b_entries = {}
    for p in range(1, P + 1):
        for k in range(N + 1):
            b_entries[(p, k)] = _grunsky_b(table, p, k)
            a_entries[(p, k)] = b_entries[(p, k)] - b_entries[(p, 0)] * f.coefficient(k + 1)
    return AFieldTable(P, N, a_entries, b_entries, provenance="grunsky-combination")


# -- identity checks ----------------------------------------------------------------
#
# Each identity is one generator of IdentityPair instances; its check is the
# report of those pairs, and the numeric sweep specializes the same pairs.


def faber_derivative_pairs(N: int):
    """f(z)/(1 - w f(z)) = sum_n F'_n(w) z^n / n, one pair per w^m of each z^n."""
    fab = faber_polys(N)
    fpow = [_f_power(m + 1, N) for m in range(N)]  # f^{m+1}
    for n in range(1, N + 1):
        lhs = WPoly([fpow[m].coefficient(n) * n for m in range(n)])
        rhs = fab.poly(n).deriv_w()
        for m in range(max(lhs.degree, rhs.degree) + 1):
            yield IdentityPair("faber-derivative", (("n", n), ("m", m)),
                               lhs.coefficient(m), rhs.coefficient(m))


def grunsky_symmetry_pairs(N: int):
    """k beta_{n,k} = n beta_{k,n} for 1 <= n, k <= N."""
    table = grunsky_log(N, N)
    for n in range(1, N + 1):
        for k in range(1, N + 1):
            yield IdentityPair("grunsky-symmetry", (("n", n), ("k", k)),
                               table.beta(n, k) * k, table.beta(k, n) * n)


def grunsky_symmetry_check(N: int) -> CheckReport:
    """k beta_{n,k} = n beta_{k,n} for 1 <= n, k <= N, exactly."""
    return report_from_pairs("grunsky-symmetry", grunsky_symmetry_pairs(N), ("n", "k"))


def route_equivalence_pairs(n: int, afield: int):
    """Both routes of the Grunsky table, T_n, a_p^p and Lambda_p at size n,
    and of the A and B tables on the square p, n <= afield."""
    g1 = grunsky_log(n, n)
    g2 = grunsky_compose(n, n)
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            yield IdentityPair("routes-grunsky", (("n", i), ("k", k)),
                               g1.beta(i, k), g2.beta(i, k))
    t1 = t_polys(n)
    t2 = t_from_faber(n)
    for i in range(n + 1):
        for m in range(i + 1):
            yield IdentityPair("routes-t", (("n", i), ("m", m)),
                               t1.poly(i).coefficient(m), t2.poly(i).coefficient(m))
    d1 = diag_a(n)
    d2 = diag_a_grunsky(n)
    for p in range(1, n + 1):
        yield IdentityPair("routes-diag", (("p", p),), d1.a(p), d2.a(p))
    l1 = lambda_direct(n)
    l2 = lambda_from_t(n)
    for p in range(n + 1):
        for e in range(1 - p, 2):
            yield IdentityPair("routes-lambda", (("p", p), ("e", e)),
                               l1.poly(p).coefficient(e), l2.poly(p).coefficient(e))
    a1 = a_field_direct(afield, afield)
    a2 = a_field_grunsky(afield, afield)
    for p in range(afield + 1):
        for i in range(afield + 1):
            yield IdentityPair("routes-afield", (("p", p), ("n", i)),
                               a1.A(p, i), a2.A(p, i))
    for p in range(1, afield + 1):
        for k in range(afield + 1):
            yield IdentityPair("routes-bfield", (("p", p), ("k", k)),
                               a1.B(p, k), a2.B(p, k))


def elimination_pairs(pmax: int):
    """For each p, z^(1-p) f'(z) + Lambda_p(f(z)) has no power z^m with m <= 1.

    Every E_p comes from one family built only through z^1, where a correct
    E_p is all zero; counting from its effective valuation (not the 0 an
    all-zero series reports) keeps its cells at z^(1-p) .. z^1.
    """
    for p, e in enumerate(_elimination_family(pmax, 1)):
        for m in range(min(e.effective_valuation(), 1 - p), 2):
            yield IdentityPair("elimination", (("p", p), ("m", m)),
                               e.coefficient(m), CoeffPoly.zero())


def _gen_identity_rows(P: int, K: int):
    """Rows of the generating function for A_k^p, expanded for |u| < |v|.

    Row p is the u^p coefficient, a Laurent series in v, of
    S(u) f(v)^2 / (v (f(u) - f(v))) + v f'(v)/(v - u).  Expanding
    1/(f(u) - f(v)) in powers of f(u) / f(v) makes it
    (Lambda_p(f(v)) + v^(1-p) f'(v)) / v = E_p(v) / v.
    """
    return [e.shift(-1) for e in _elimination_family(P, K + 1)]


def gen_identity_pairs(pmax: int, kmax: int):
    """Bivariate generating identity for the A table:

        sum_{k>=1, p>=0} A_k^p u^p v^k
            = u^2 f'(u)^2 / f(u)^2 * f(v)^2 / (v [f(u) - f(v)]) + v f'(v)/(v - u),

    expanded with |u| < |v|.  All negative v powers (and the v^0 term) must
    cancel; the nonnegative part must match the A table on the rectangle.
    One pair per u^p v^k with -pmax <= k <= kmax; the table is the Grunsky
    route's, so it shares no builder with the rows.
    """
    rows = _gen_identity_rows(pmax, kmax)
    table = a_field_grunsky(pmax, kmax)
    for p, row in enumerate(rows):
        for j in range(-pmax, kmax + 1):
            want = table.A(p, j) if j >= 1 else CoeffPoly.zero()
            yield IdentityPair("gen-identity", (("p", p), ("k", j)),
                               row.coefficient(j), want)


def _phi_generating_rows(xi_max: int, z_max: int):
    """xi^p coefficients of S(xi) f(z)^2 / (f(xi) - f(z)), Laurent in z.

    Row p is Lambda_p(f(z)) = E_p(z) - z^(1-p) f'(z).
    """
    fprime = _seed(z_max + xi_max).derivative()
    return [e - fprime.shift(1 - p)
            for p, e in enumerate(_elimination_family(xi_max, z_max))]


def phi_generating_pairs(xi_max: int, z_max: int):
    """Generating form of the phi family:

        sum_p phi_p(z) xi^p = xi^2 f'(xi)^2 / f(xi)^2 * f(z)^2 / (f(xi) - f(z)),

    one pair per power z^m of each xi^p.
    """
    for p, row in enumerate(_phi_generating_rows(xi_max, z_max)):
        yield from series_pairs("phi-generating", (("p", p),), row,
                                phi_p(p, z_max), z_max)
