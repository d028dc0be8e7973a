"""Naive reference algorithms, kept outside the package to cross-check its kernels."""

import cmath
import math
from fractions import Fraction

from faberfields.faberkernel import EliminationError, _f_power, faber_polys, lambda_direct
from faberfields.polyring import CoeffPoly, MissingVariableError
from faberfields.series import (
    INF,
    BiSeries,
    LaurentSeries,
    SeriesError,
    divided_difference,
    laurent_pow,
    laurent_recip,
    seed_series,
    z_series,
    zero_series,
)


def series_agree(a: LaurentSeries, b: LaurentSeries, through, start=None) -> int | None:
    """First exponent in [start, through] where a and b differ, else None.

    Raises OrderError if either side is undetermined somewhere in the range.
    """
    if start is None:
        start = min(a.valuation, b.valuation)
    for k in range(start, through + 1):
        if a.coefficient(k) != b.coefficient(k):
            return k
    return None


def horner(coeffs, x: LaurentSeries) -> LaurentSeries:
    """sum_k coeffs[k] x^k by Horner's rule, acc <- acc * x + coeffs[k], so
    every step is a full product of two series."""
    acc: LaurentSeries = zero_series(INF)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def horner_compose(outer: LaurentSeries, inner: LaurentSeries) -> LaurentSeries:
    """outer(inner) by Horner's rule, cut at the order ``ps_compose`` states."""
    if outer.valuation < 0:
        raise SeriesError("composition target must have no principal part")
    if inner.valuation < 0 or inner.coefficient(0):
        raise SeriesError("inner series must have zero constant term")
    q = inner.effective_valuation()
    if q is INF:
        target = INF if outer.order is INF else inner.order
    else:
        target = min(inner.order, (outer.order + 1) * q - 1)
    top = outer.valuation + len(outer.coeffs) - 1 if outer.coeffs else 0
    return horner([outer.coefficient(k) for k in range(top + 1)], inner).truncate(target)


def newton_reversion(a: LaurentSeries) -> LaurentSeries:
    """Compositional inverse of a = z + ... through z^(a.order), by Newton
    iteration g <- g - (a(g) - z) / a'(g) on truncated series; each step
    doubles the number of correct terms.
    """
    n = a.order
    ident = z_series()
    g = ident
    da = a.derivative()
    for _ in range(max(1, math.ceil(math.log2(n)) + 1)):
        err = horner_compose(a, g.truncate(n)) - ident
        if err.is_zero():
            break
        g = g - err / horner_compose(da, g.truncate(n))
    return g.truncate(n)


def unit_row_bi_log(Q: BiSeries) -> BiSeries:
    """log Q for a bivariate series whose u^0 row is exactly 1.

    Solves W = Q_u / Q row by row in u with dense row products, and
    integrates back; the u^0 row of the result is 0.
    """
    one_row = tuple([CoeffPoly.one()] + [CoeffPoly.zero()] * Q.nv)
    if Q.rows[0] != one_row:
        raise SeriesError("bivariate log requires the u^0 row to be exactly 1")
    nv = Q.nv

    def row_mul(r1, r2):
        out = [CoeffPoly.zero()] * (nv + 1)
        for a, ca in enumerate(r1):
            for b in range(nv + 1 - a):
                out[a + b] = out[a + b] + ca * r2[b]
        return out

    W: list[list[CoeffPoly]] = []
    for i in range(Q.nu):
        target = [c * (i + 1) for c in Q.rows[i + 1]]
        for s in range(i):
            prod = row_mul(W[s], Q.rows[i - s])
            target = [t - p for t, p in zip(target, prod)]
        W.append(target)
    rows = [[CoeffPoly.zero()] * (nv + 1)]
    for i in range(1, Q.nu + 1):
        rows.append([c * Fraction(1, i) for c in W[i - 1]])
    return BiSeries(rows, Q.nu, Q.nv)


def dense_log_kernel(N: int, K: int) -> BiSeries:
    """The kernel (1/f(u) - 1/f(v)) / (1/u - 1/v) through u^N v^K.

    Formed as (v r(u) - u r(v)) / (v - u) with r = z/f = 1/(f/z) by a
    reciprocal series; its u^0 row is exactly 1 and every entry -r_{i+j}
    is a dense polynomial.
    """
    nv = N + K + 1
    r = laurent_recip(seed_series(nv + 1).shift(-1))
    zero = CoeffPoly.zero()
    rows = [[zero] * (nv + 1) for _ in range(N + 1)]
    for i in range(N + 1):
        rows[i][1] = rows[i][1] + r.coefficient(i)  # v * r(u)
    for j in range(nv + 1):
        rows[1][j] = rows[1][j] - r.coefficient(j)  # - u * r(v)
    return divided_difference(BiSeries(rows, N, nv))


def dense_grunsky_log(N: int, K: int) -> dict:
    """Grunsky entries {(n, k): beta_{n,k}} from the log of the dense kernel,
    where every row product is dense x dense.
    """
    L = unit_row_bi_log(dense_log_kernel(N, K))
    return {(n, k): L.coefficient(n, k) * (-n)
            for n in range(1, N + 1) for k in range(1, K + 1)}


def horner_grunsky_compose(N: int, K: int) -> dict:
    """Grunsky entries {(n, k): beta_{n,k}} as the z^k coefficients of
    F_n(1/f(z)), each F_n evaluated by Horner's rule on the reciprocal
    series 1/f, so every step is a dense series product.
    """
    fab = faber_polys(N)
    h = laurent_recip(seed_series(K + N + 2))  # 1/f(z), valuation -1
    entries = {}
    for n in range(1, N + 1):
        expansion = horner(fab.poly(n).coeffs, h)
        if expansion.coefficient(-n) != CoeffPoly.one():
            raise EliminationError(n, -n, expansion.coefficient(-n) - 1)
        for m in range(-n + 1, 1):
            if expansion.coefficient(m):
                raise EliminationError(n, m, expansion.coefficient(m))
        for k in range(1, K + 1):
            entries[(n, k)] = expansion.coefficient(k)
    return entries


def scale_add_eval(poly, pows: dict) -> LaurentSeries:
    """poly(f) = sum_e poly[e] f^e over a table {e: f^e}, one scaled series
    and one series sum per term, known as far as every power is."""
    out = zero_series()
    for e, coeff in poly.entries.items():
        out = out + pows[e].scale(coeff)
    return out


def product_f_power(e: int, top: int) -> LaurentSeries:
    """f^e through z^top by repeated products, through the reciprocal series
    for e < 0, from the shortest seed that knows it there."""
    return laurent_pow(seed_series(max(top + 1 - e, 1)), e).truncate(top)


def seed_order_elimination_family(P: int, f_order: int) -> tuple:
    """E_p = z^(1-p) f'(z) + Lambda_p(f(z)) for p = 0..P with f through
    z^f_order, each power f^e taken at that seed order and summed by
    ``scale_add_eval``; E_p is then known through z^(f_order - p)."""
    fprime = seed_series(f_order).derivative()
    lams = lambda_direct(P)
    pows = {e: _f_power(e, f_order - 1 + e) for e in range(1 - P, 2)}
    return tuple(fprime.shift(1 - p) + scale_add_eval(lams.poly(p), pows)
                 for p in range(P + 1))


def termwise_specialize(poly: CoeffPoly, values):
    """poly at c_j = values[j], each term's factors multiplied as it is
    summed, with no table of monomial values."""
    total = None
    for m, q in poly.terms.items():
        term = None
        for j, e in m:
            if j not in values:
                raise MissingVariableError(j)
            p = values[j] ** e
            term = p if term is None else term * p
        contrib = q if term is None else q * term
        total = contrib if total is None else total + contrib
    return Fraction(0) if total is None else total


def per_p_quadrature(seed, p: int, z: complex, r: float, M: int) -> complex:
    """The contour integral's trapezoid rule on |xi| = r for one p and M
    nodes, evaluating f, f' and s(xi) afresh at each node."""
    fz = seed.f(z)
    total = 0j
    for j in range(M):
        xi = r * cmath.exp(2j * cmath.pi * j / M)
        fxi = seed.f(xi)
        s = (xi * seed.fprime(xi) / fxi) ** 2
        total += s / ((fxi - fz) * xi ** p)
    return fz * fz * total / M


def partial_sum_apply(D, target: CoeffPoly) -> CoeffPoly:
    """sum_j v_j d(target)/dc_j for a derivation D, one partial polynomial
    and one product per variable, summed one variable at a time."""
    out = CoeffPoly.zero()
    for j in target.variables():
        dj = target.partial(j)
        if dj:
            out = out + D.coefficient(j) * dj
    return out


def recip_r_series(order: int) -> LaurentSeries:
    """r(z) = z / f(z) through z^order, as the reciprocal series of f/z."""
    return laurent_recip(seed_series(order + 1).shift(-1))


def squared_s_series(order: int) -> LaurentSeries:
    """S(z) = (f'(z) r(z))^2 through z^order, a dense x dense square."""
    fprime = seed_series(order + 1).derivative()
    return laurent_pow(fprime * recip_r_series(order), 2)


def recip_inverse_deriv_coeffs(order: int) -> list:
    """[B_0 .. B_order] of 1/f'(z) = 1 + sum B_n z^n, by the reciprocal series."""
    inv = laurent_recip(seed_series(order + 2).derivative())
    return [inv.coefficient(n) for n in range(order + 1)]
