"""First-order derivations on the coefficient ring and their identities.

The operators act on polynomials in the seed coefficients:

    L_k   = d/dc_k + sum_{n>=1} (n+1) c_n d/dc_{n+k}      (k >= 1)
    L_0   = sum_{n>=1} n c_n d/dc_n
    L_{-p} = sum_{n>=1} A_n^p d/dc_n                       (p >= 1)

plus the plain partials d/dc_k.  A derivation stores a lazy entry rule;
entries of the negative-index operators are materialized from an A-field
table, whose range is validated before use.  Applying a derivation to a
series, marker polynomial or Laurent object acts coefficientwise (the formal
variables z, w, u are constants for the operator).

The ladder checks derive each object once per index.  The images
L_k Lambda_q (Theorem 4.2 and its k = 1 recursion), the coefficients of
1/f' (a resumable ``unit_pow`` run) and the Lemma 4.1 resolutions
sum_n B_n L_(k+n) c_m are grow-only streams of ``faberkernel._STREAMS``,
read by that name; this module keeps no state.  Every comparison still
runs on every call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import faberkernel
from .faberkernel import (AFieldTable, LambdaFamily, _elimination_family, _seed, a_field_direct,
                          lambda_direct)
from .polyring import CoeffPoly, mono_pairs, mono_quotients, poly_from_bucket
from .reports import CheckReport, IdentityPair, report_from_pairs, series_pairs
from .series import LaurentSeries, LaurentWPoly, _make, unit_pow


class Derivation:
    """A formal derivation sum_n v_n d/dc_n with CoeffPoly entries v_n.

    Only entries up to the largest variable of the target are ever needed,
    which keeps the formally infinite sums finite per application.
    """

    __slots__ = ("descriptor", "_entry", "max_entry")

    def __init__(self, descriptor: str, entry: Callable[[int], CoeffPoly],
                 max_entry: int | None = None):
        self.descriptor = descriptor
        self._entry = entry
        self.max_entry = max_entry  # None means unbounded

    def coefficient(self, n: int) -> CoeffPoly:
        """The entry v_n multiplying d/dc_n."""
        if n < 1:
            raise ValueError("entries are indexed from 1")
        if self.max_entry is not None and n > self.max_entry:
            raise IndexError(
                f"{self.descriptor} has entries only up to c{self.max_entry}; "
                f"c{n} requested (insufficient A-table range)"
            )
        return self._entry(n)

    def apply_poly(self, target: CoeffPoly) -> CoeffPoly:
        """sum_j v_j d(target)/dc_j, in one pass over the target's terms.

        A one-term linear target q c_j gives the entry v_j itself (q = 1) or
        v_j q, with no bucket, so L_{-p} c_n is the table's own A_n^p.  Any
        other target: each term q m adds q e (m / c_j) v_j for every factor
        c_j^e of m into one bucket, Monomial -> coefficient, read by
        ``poly_from_bucket`` as in ``polyring.accumulate_product``; a product
        of monomials is their sum.  Every entry is fetched first, in index
        order, so a too-short A-table raises before any work.
        """
        if len(target.terms) == 1:
            [(m1, q1)] = target.terms.items()
            factors = mono_pairs(m1)
            if len(factors) == 1 and factors[0][1] == 1:
                v = self.coefficient(factors[0][0])
                return v if q1 == 1 else v * q1
        entries = {}
        for j in target.variables():
            v = self.coefficient(j)
            if v:
                entries[j] = list(v.terms.items())
        bucket: dict = {}
        get = bucket.get
        for m1, q1 in target.terms.items():
            for j, e, mj in mono_quotients(m1):
                vt = entries.get(j)
                if vt is None:
                    continue
                qe = q1 * e
                for m2, q2 in vt:
                    m = mj + m2
                    bucket[m] = get(m, 0) + qe * q2
        return poly_from_bucket(bucket)

    def apply(self, target):
        """Apply coefficientwise to any object over the coefficient ring."""
        if isinstance(target, CoeffPoly):
            return self.apply_poly(target)
        if isinstance(target, (int, Fraction)):
            return CoeffPoly.zero()
        if isinstance(target, LaurentSeries):
            data = {}
            v = target.valuation
            for i, c in enumerate(target.coeffs):
                if c:
                    data[v + i] = self.apply_poly(c)
            return _make(data, target.order)
        if isinstance(target, LaurentWPoly):
            return target.map_coeffs(self.apply_poly)
        raise TypeError(f"cannot apply a derivation to {type(target).__name__}")

    def __repr__(self):
        return f"<Derivation {self.descriptor}>"


def partial_derivation(k: int) -> Derivation:
    """The plain partial d/dc_k."""
    if k < 1:
        raise ValueError("need k >= 1")

    def entry(n: int) -> CoeffPoly:
        return CoeffPoly.one() if n == k else CoeffPoly.zero()

    return Derivation(f"d_{k}", entry)


def make_L(k: int, afield: AFieldTable | None = None) -> Derivation:
    """The operator L_k; negative k needs an A-field table covering index -k."""
    if k >= 1:

        def entry(n: int, k=k) -> CoeffPoly:
            out = CoeffPoly.one() if n == k else CoeffPoly.zero()
            if n > k:
                out = out + CoeffPoly.var(n - k) * (n - k + 1)
            return out

        return Derivation(f"L_{k}", entry)
    if k == 0:

        def entry(n: int) -> CoeffPoly:
            return CoeffPoly.var(n) * n

        return Derivation("L_0", entry)
    p = -k
    if afield is None:
        raise ValueError("negative-index operators need an A-field table")
    if afield.p_max < p:
        raise IndexError(
            f"A-table covers p <= {afield.p_max}, cannot build L_{k}")
    entries = {n: afield.A(p, n) for n in range(1, afield.n_max + 1)}

    def entry(n: int) -> CoeffPoly:
        return entries[n]

    return Derivation(f"L_{k}", entry, max_entry=afield.n_max)


# -- check suites -----------------------------------------------------------------
#
# Each identity is one generator of IdentityPair instances; its check is the
# report of those pairs, and the numeric sweep specializes the same pairs.


def negative_action_pairs(pmax: int, N: int | None = None, pmin: int = 1):
    """The derivation built from the A table reproduces the elimination form:

        L_{-p} f(z) = z^(1-p) f'(z) + Lambda_p(f(z))   through z^N,

    for pmin <= p <= pmax, one pair per power z^m.  The single comparison
    order N (default 2 pmax + 10, so at least 2p + 10 for every p) lets all
    indices share one eliminator family, read through z^N, and one A table,
    a_field_direct(pmax, N-1), which reads the same cached family.
    """
    if N is None:
        N = 2 * pmax + 10
    table = a_field_direct(pmax, max(N - 1, 1))
    family = _elimination_family(pmax, N)
    f = _seed(N)
    for p in range(pmin, pmax + 1):
        yield from series_pairs("negative-action", (("p", p), ("N", N)),
                                make_L(-p, table).apply(f), family[p], N)


def check_negative_action(p: int, N: int) -> CheckReport:
    """negative_action_pairs for the single index p, through z^N."""
    if p < 1:
        raise ValueError("need p >= 1")
    if N < 1:
        raise ValueError("need N >= 1")
    return report_from_pairs("negative-action", negative_action_pairs(p, N, p),
                             ("p", "N"))


def negative_action_report(pmax: int, N: int | None = None) -> CheckReport:
    """check_negative_action over p = 1..pmax, sharing one eliminator family."""
    return report_from_pairs("negative-action", negative_action_pairs(pmax, N),
                             ("p", "N"))


def _marker_pairs(suite: str, indices: tuple, got: LaurentWPoly, want: LaurentWPoly):
    """One pair per exponent of either side; u^0 stands in when both vanish."""
    for e in sorted(set(got.entries) | set(want.entries)) or [0]:
        yield IdentityPair(suite, indices + (("e", e),),
                           got.coefficient(e), want.coefficient(e))


def _ladder_image(lams: LambdaFamily, k: int, q: int) -> LaurentWPoly:
    """L_k Lambda_q, for Lambda_q of ``lams``, from the stream of images."""
    images = faberkernel._STREAMS.setdefault("L_k Lambda_q", {})
    image = images.get((k, q))
    if image is None:
        image = images[(k, q)] = make_L(k).apply(lams.poly(q))
    return image


def thm42_pairs(kmax: int, pmax: int):
    """Ladder action on the eliminator family:

        L_k Lambda_n = 0 for 1 <= n < k,
        L_k Lambda_k = -2k u,
        L_k Lambda_{p+k} = (2k + p) Lambda_p.
    """
    lams = lambda_direct(kmax + pmax)
    for k in range(1, kmax + 1):
        for n in range(1, k):
            yield from _marker_pairs("thm42", (("k", k), ("n", n)),
                                     _ladder_image(lams, k, n), LaurentWPoly({}))
        for p in range(0, pmax + 1):
            yield from _marker_pairs("thm42", (("k", k), ("n", p + k)),
                                     _ladder_image(lams, k, p + k),
                                     lams.poly(p).scale(2 * k + p))


def check_thm42(kmax: int, pmax: int) -> CheckReport:
    return report_from_pairs("thm42", thm42_pairs(kmax, pmax), ("k", "n"))


def recursion_pairs(pmax: int):
    """The k = 1 recursion on its own:

        [d/dc1 + 2 c1 d/dc2 + 3 c2 d/dc3 + ...] Lambda_{p+1} = (p+2) Lambda_p.
    """
    lams = lambda_direct(pmax + 1)
    for p in range(pmax + 1):
        yield from _marker_pairs("recursion", (("p", p),), _ladder_image(lams, 1, p + 1),
                                 lams.poly(p).scale(p + 2))


def inverse_deriv_coeffs(order: int) -> list[CoeffPoly]:
    """[B_0, B_1, ..., B_order] from 1/f'(z) = 1 + sum B_n z^n.

    Distinct from the A-table intermediates B_k^p: these are the expansion
    coefficients of the reciprocal derivative, a run of the power kernel
    that resumes the stream "1/f'".
    """
    stream = faberkernel._STREAMS.setdefault("1/f'", [])
    inv = unit_pow(_seed(order + 1).derivative(), -1, stream)
    return [inv.coefficient(n) for n in range(order + 1)]


def _lemma41_resolution(bs: list[CoeffPoly], k: int, m: int) -> CoeffPoly:
    """sum_n B_n L_(k+n) c_m over n <= m - k, for bs = [B_0, .., B_(m-k)],
    from the stream of resolutions."""
    resolutions = faberkernel._STREAMS.setdefault("lemma41", {})
    acc = resolutions.get((k, m))
    if acc is None:
        cm = CoeffPoly.var(m)
        acc = CoeffPoly.zero()
        for n in range(0, m - k + 1):
            acc = acc + bs[n] * make_L(k + n).apply_poly(cm)
        resolutions[(k, m)] = acc
    return acc


def lemma41_pairs(kmax: int, mmax: int):
    """Resolve the partial d/dc_k through the ladder, for 1 <= k <= kmax:

        d/dc_k = L_k - 2 c1 L_{k+1} + (4 c1^2 - 3 c2) L_{k+2} + ... + B_n L_{k+n} + ...

    applied to every generator c_m, m <= mmax; application to c_m terminates
    at n = m - k, so only finitely many terms contribute.
    """
    bs = inverse_deriv_coeffs(max(mmax - 1, 0))
    for k in range(1, kmax + 1):
        for m in range(1, mmax + 1):
            want = CoeffPoly.one() if m == k else CoeffPoly.zero()
            yield IdentityPair("lemma41", (("k", k), ("m", m)),
                               _lemma41_resolution(bs, k, m), want)


def lemma41_check(kmax: int, mmax: int) -> CheckReport:
    """lemma41_pairs over a rectangle of (k, m)."""
    return report_from_pairs("lemma41", lemma41_pairs(kmax, mmax), ("k", "m"))


def sample_polynomials() -> list[CoeffPoly]:
    """A fixed, deterministic corpus of 20 targets for operator identities."""
    c = CoeffPoly.var
    return [
        c(1), c(2), c(3), c(4), c(5), c(6), c(7), c(8),
        c(1) * c(2),
        c(2) * c(3),
        c(1) * c(2) * c(3),
        c(1) ** 2,
        c(2) ** 2 * c(1),
        c(4) * c(1) - c(5),
        c(3) ** 3,
        c(1) * c(7),
        c(2) * c(6) + c(4) ** 2,
        CoeffPoly.const(Fraction(3, 2)) * c(5) * c(2),
        c(1) ** 4 - 2 * c(2) ** 2,
        c(8) * c(1) ** 2 + CoeffPoly.const(Fraction(1, 3)) * c(6),
    ]


def commutation_pairs(nmax: int, jmax: int):
    """The mixing rule d_n L_j = L_j d_n + (n+1) d_{n+j} on the sample
    polynomials, for 1 <= n <= nmax and 1 <= j <= jmax.  Each image L_j s
    and partial d_m s of a sample s is derived once and read by every pair
    that needs it."""
    samples = sample_polynomials()
    ladder = {j: make_L(j) for j in range(1, jmax + 1)}
    partials = {m: partial_derivation(m) for m in range(1, nmax + jmax + 1)}
    images = {j: [lj.apply_poly(s) for s in samples] for j, lj in ladder.items()}
    derived = {m: [dm.apply_poly(s) for s in samples] for m, dm in partials.items()}
    for n in range(1, nmax + 1):
        dn = partials[n]
        for j, lj in ladder.items():
            for idx in range(len(samples)):
                lhs = dn.apply_poly(images[j][idx])
                rhs = lj.apply_poly(derived[n][idx]) + derived[n + j][idx] * (n + 1)
                yield IdentityPair("commutation", (("n", n), ("j", j), ("sample", idx)),
                                   lhs, rhs)
