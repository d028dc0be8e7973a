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
recurrence on f/z (``series.unit_pow``), called only by ``_f_power``: each
f^e, and r = z/f = z f^-1 and S = f'^2 z^2 f^-2, so no builder here takes a
reciprocal or a product power of a series.  F_n(1/f) is one
``series.scaled_sum`` of those powers, and the series E_p = Lambda_p(f) +
z^(1-p) f' are summed into their buckets one power at a time
(``_elimination_family``), so no two powers are held together; each sum is
accumulated coefficient by coefficient only through the highest power of z
that is read.
Every seed power (``_f_power(e, top)``) and the elimination series E_p are
keyed by that power, not by a seed order: every caller builds exactly what
it reads, and the series layer raises OrderError on any overreach, so
silently truncated tables cannot occur.
Where two formulas exist for the same object, both are implemented and their
exact equality is a checked property; the README names the code each side
of a route check stands on.

A coefficient of z^n, or of u^n v^k, is fixed once computed, so a table at
size n is a prefix of the table at size n + 1.  The powers (f/z)^m,
m >= 0, the fronts z f'/f, z f'^2/f and S, the marker rows and the Grunsky
rows of -D_u/D are therefore grow-only streams (``_STREAMS``): the kernels
behind them (``unit_pow``, ``bi_quotient``) are resumable, a request past a
stream's end computes only the new entries, and every table handed out
holds the stream's own coefficient objects, so none is stored twice.  All
tables are immutable once built.  The ``lru_cache`` fronts of the builders
hold references only; they are kept because a caller reads the builder
twice or the benchmark reads its cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

from .polyring import CoeffPoly, accumulate_product, poly_from_bucket
from .reports import CheckReport, IdentityPair, report_from_pairs, series_pairs
from .series import (
    BiSeries,
    LaurentSeries,
    LaurentWPoly,
    WPoly,
    add_scaled,
    bi_quotient,
    bucket_series,
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

#: The grow-only streams behind the builders, by name: coefficient lists
#: (or lists of rows) whose entry n, once computed, is fixed.  A request
#: past a stream's end computes only the new entries, and every table
#: handed out holds the stream's own coefficient objects.
_STREAMS: dict = {}


@lru_cache(maxsize=None)
def _seed(order: int) -> LaurentSeries:
    return seed_series(order)


@lru_cache(maxsize=None)
def _r_series(order: int) -> LaurentSeries:
    """r(z) = z / f(z) = z f^-1, through z^order; f^-1 is ``_f_power``'s,
    so the seed is read through z^(order + 1)."""
    return _f_power(-1, order - 1).shift(1)


@lru_cache(maxsize=None)
def _s_series(order: int) -> LaurentSeries:
    """S(z) = z^2 f'(z)^2 / f(z)^2 = f'(z) f'(z) z^2 f^-2, through z^order;
    f^-2 is ``_f_power``'s, so the seed is read through z^(order + 1)."""
    def factors():
        fprime = _seed(order + 1).derivative()
        return fprime * fprime, _f_power(-2, order - 2).shift(2)

    return _front("S", order, factors)


def _f_power(e: int, top: int) -> LaurentSeries:
    """f^e = z^e (f/z)^e for any integer e, exact through z^top.

    The unit power is one run of the ``unit_pow`` kernel on f/z from the
    seed through z^(top + 1 - e), so no term past z^top, each denser than
    the last, is formed; f^e with e > top is zero through z^top.  For
    e >= 0, the powers of the marker rows, the run resumes the stream of
    (f/z)^e.  A negative power is read through z^top far past the marker
    rows by the elimination family and ``grunsky_compose``, whose cached
    tables hold what they need, so it is built afresh and not kept.
    """
    stream = _STREAMS.setdefault(f"(f/z)^{e}", []) if e >= 0 else None
    return unit_pow(_seed(max(top + 1 - e, 1)).shift(-1), e, stream).shift(e).truncate(top)


def _product_coefficient(a: LaurentSeries, b: LaurentSeries, n: int) -> CoeffPoly:
    """[z^n] a(z) b(z) for power series a and b known through z^n, summed in
    one accumulator."""
    bucket: dict = {}
    for i in range(n + 1):
        ai, bi = a.coefficient(i), b.coefficient(n - i)
        if ai and bi:
            accumulate_product(bucket, ai, bi)
    return poly_from_bucket(bucket)


def _front(name: str, order: int, factors) -> LaurentSeries:
    """a(z) x(z) through z^order, read off the stream ``name`` of its
    coefficients, grown in place.  ``factors()`` gives the power series a
    and x, known through z^order; it is called only when the stream is
    short of z^order, so a stream that already reaches it builds neither."""
    xs = _STREAMS.setdefault(name, [])
    if len(xs) <= order:
        a, x = factors()
        for n in range(len(xs), order + 1):
            xs.append(_product_coefficient(a, x, n))
    return LaurentSeries(0, xs[:order + 1], order)


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
    """A_n^p for p <= p_max, n <= n_max, and the diagonal a_1^1 .. a_P^P.

    The intermediates B_k^p = A_k^p + a_p^p c_k, with c_0 = 1, so
    B_0^p = a_p^p, are formed on read (``B``), for both routes, so the
    relation is written once and no table holds them.
    """
    p_max: int
    n_max: int
    a_entries: dict
    diag: tuple
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
        return self.A(p, k) + self.diag[p - 1] * _seed(self.n_max + 1).coefficient(k + 1)


# -- Faber and T families -----------------------------------------------------------


def _marker_family(name: str, front: LaurentSeries, N: int) -> list[list[CoeffPoly]]:
    """Rows n = 0..N of [z^n] front(z) f(z)^m, m = 0..n: the coefficients of
    z^n in front(z) / (1 - w f(z)), by powers of w.  ``front`` must be known
    through z^N; f^m has valuation m, so no m > n reaches z^n.

    The rows are the stream ``name``: a row, once computed, is fixed, so a
    larger N computes only the rows past the stream's end, each coefficient
    one sum of the products front_i [z^(n-i)] f^m.
    """
    rows = _STREAMS.setdefault(name, [])
    if len(rows) <= N:
        pows = [_f_power(m, N) for m in range(N + 1)]
        for n in range(len(rows), N + 1):
            rows.append([_product_coefficient(front, pows[m], n) for m in range(n + 1)])
    return rows[:N + 1]


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
    front = _front("z f'/f", N, lambda: (_seed(N + 1).derivative(), _r_series(N)))
    return FaberFamily(N, tuple(WPoly(row) for row in _marker_family("F", front, N)[1:]))


@lru_cache(maxsize=None)
def t_polys(N: int) -> TFamily:
    """T_0..T_N from the squared-derivative generating series."""
    if N < 0:
        raise ValueError("need N >= 0")
    def factors():
        fprime = _seed(N + 1).derivative()
        return fprime * fprime, _r_series(N)

    front = _front("z f'^2/f", N, factors)
    return TFamily(N, tuple(WPoly(row) for row in _marker_family("T", front, N)))


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
    beta_{n,k} = -n [u^n v^k] log D.  Row n of log D is W[n-1] / n, with
    W = D_u / D, so the two scalings cancel: beta_{n,k} = -W[n-1][k], and
    the table is a view of the rows of -W (``_beta_rows``).
    """
    if N < 1 or K < 1:
        raise ValueError("need N, K >= 1")
    rows = _beta_rows(N, K)
    entries = {(n, k): rows[n - 1][k] for n in range(1, N + 1) for k in range(1, K + 1)}
    return GrunskyTable(N, K, entries, provenance="log-kernel")


def _beta_rows(N: int, K: int) -> list[list[CoeffPoly]]:
    """The stream of rows of -W = -D_u / D, with row n-1 holding beta_{n,k}
    at column k (column 0 too), grown in place to cover n <= N, k <= K.

    D is formed from P = f(v) - f(u) at the requested size by the
    divided-difference operation, whose diagonal vanishing is checked; its
    entries D[i][j] = c_{i+j} (c_0 = 1) are single monomials, so the
    resumable quotient ``series.bi_quotient`` multiplies dense coefficients
    only by monomials, and computes only the entries the stream lacks.
    """
    rows = _STREAMS.setdefault("-D_u/D", [])
    if len(rows) < N or len(rows[N - 1]) <= K:
        nv = N + K + 1
        f = _seed(nv)
        zero = CoeffPoly.zero()
        prows = [[zero] * (nv + 1) for _ in range(N + 1)]
        for j in range(1, nv + 1):
            prows[0][j] = f.coefficient(j)  # f(v)
        for i in range(1, N + 1):
            prows[i][0] = -f.coefficient(i)  # - f(u)
        D = divided_difference(BiSeries(prows, N, nv))  # rectangle (N, K)
        bi_quotient(D.derivative_u(-1), D, rows)
    return rows


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

    expanding 1/(f(xi) - u) = - sum_m f(xi)^m / u^{m+1}: with -S the front
    of the marker family, Lambda_p = sum_m [xi^p] (-S) f^m u^(1-m), m <= p.
    """
    if P < 0:
        raise ValueError("need P >= 0")
    rows = _marker_family("Lambda", -_s_series(P), P)
    return LambdaFamily(P, tuple(LaurentWPoly({1 - m: cm for m, cm in enumerate(row)})
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
            lam = lam + LaurentWPoly({1: -diag.poly(p)})
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
    ``.order == top``.  Each power f^e is ``_f_power(e, top)``, known exactly
    through z^top and no further, and no power costs a dense product of two
    series.  The powers are taken one at a time, e = 1, 0, .., 1-P, the
    order in which each Lambda_p lists its entries: f^e is added into the
    z^m buckets (``series.add_scaled``) of every E_p whose Lambda_p holds
    u^e, and dropped before the next power is built.  Lambda_p holds no power
    below u^(1-p), so after f^(1-p) z^(1-p) f'(z) goes into the buckets of
    E_p last, and each bucket is popped as it becomes its coefficient.
    """
    fprime = _seed(max(top + P, 1)).derivative()
    lams = lambda_direct(P).entries
    buckets = [{} for _ in range(P + 1)]
    family = []
    for e in range(1, -P, -1):
        power = _f_power(e, top)
        for p in range(1 - e, P + 1):
            coeff = lams[p].entries.get(e)
            if coeff:
                add_scaled(buckets[p], power, coeff, top)
        del power  # so that no two powers are alive together
        add_scaled(buckets[1 - e], fprime.shift(e), CoeffPoly.one(), top)
        family.append(bucket_series(buckets[1 - e], top))
    return tuple(family)


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
    diag = diag_a(P).entries if P >= 1 else ()
    return AFieldTable(P, N, a_entries, diag, provenance="elimination")


def a_field_grunsky(P: int, N: int) -> AFieldTable:
    """Second route, via Grunsky coefficients (``_grunsky_b``):

        B_k^p = (p+k+1) c_{p+k} - [beta_{p-1,k+1} + 2 c1 beta_{p-2,k+1} + ...]
        A_k^p = B_k^p - a_p^p c_k,

    with c_0 = 1, so B_0^p = a_p^p and A_0^p = 0, and A_k^0 = k c_k.
    """
    if P < 0 or N < 1:
        raise ValueError("need P >= 0 and N >= 1")
    table = grunsky_log(P - 1, N + 1) if P >= 2 else None
    diag = diag_a_grunsky(P).entries if P >= 1 else ()
    f = _seed(N + 1)
    a_entries = {(0, n): f.coefficient(n + 1) * n for n in range(N + 1)}
    for p in range(1, P + 1):
        for k in range(N + 1):
            a_entries[(p, k)] = _grunsky_b(table, p, k) - diag[p - 1] * f.coefficient(k + 1)
    return AFieldTable(P, N, a_entries, diag, provenance="grunsky-combination")


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
        yield IdentityPair("routes-diag", (("p", p),), d1.poly(p), d2.poly(p))
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
