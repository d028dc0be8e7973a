"""Truncated formal series over the coefficient ring, with order tracking.

The series layer supplies everything the generating-function constructions
need: truncated Laurent series in one formal variable ``z``, finite Laurent
polynomials in a marker variable ``u`` (``LaurentWPoly``) and their subclass
of polynomials in ``w`` (``WPoly``), and rectangularly truncated bivariate
series.  A sum sum c s of series s with coefficients c over a table of seed
powers, and the sum of a composition, is one :func:`scaled_sum`;
``LaurentWPoly.eval_at`` walks the powers of its argument instead and calls
no :func:`scaled_sum`, so it can check those sums.

Truncation discipline
---------------------
A coefficient beyond a series' ``order`` is *unknown*, never assumed zero.
Every operation returns the largest order at which its result is fully
determined by its inputs; asking for a coefficient past that raises
:class:`OrderError` instead of silently returning garbage.  Exact objects
(finite Laurent polynomials such as the identity series ``z``) carry order
``math.inf``.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polyring import CoeffPoly, accumulate_product, poly_div_int, poly_from_bucket

INF = math.inf


class SeriesError(ValueError):
    pass


class OrderError(SeriesError):
    """A coefficient beyond the determined truncation order was requested."""

    def __init__(self, exponent, order):
        super().__init__(
            f"coefficient of z^{exponent} is undetermined (known through order {order})"
        )
        self.exponent = exponent
        self.order = order


class LeadingCoefficientError(SeriesError):
    """Division by a series whose leading coefficient is zero or non-invertible."""

    def __init__(self, message, valuation):
        super().__init__(f"{message} (valuation {valuation})")
        self.valuation = valuation


class DiagonalError(SeriesError):
    """Divided-difference input does not vanish on the diagonal u = v."""

    def __init__(self, degree):
        super().__init__(
            f"input does not vanish on the diagonal at total degree {degree}"
        )
        self.degree = degree


def _coeff(x) -> CoeffPoly:
    if isinstance(x, CoeffPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return CoeffPoly.const(x)
    raise TypeError(f"cannot use {type(x).__name__} as a series coefficient")


def _join_terms(terms, var: str, paren_const: bool = True) -> str:
    """Render nonzero (exponent, coefficient) terms, in the order given, as a
    signed sum such as ``(-6*c3 + 2*c1*c2)*u - 4*c1*u^-1``.

    A constant with several terms is parenthesised unless ``paren_const`` is
    false, as in series text.
    """
    out = ""
    for k, c in terms:
        txt = c.render()
        if k == 0:
            body = f"({txt})" if paren_const and " " in txt else txt
        else:
            power = var if k == 1 else f"{var}^{k}"
            if txt == "1":
                body = power
            elif txt == "-1":
                body = f"-{power}"
            elif " " in txt:
                body = f"({txt})*{power}"
            else:
                body = f"{txt}*{power}"
        if not out:
            out = body
        elif body.startswith("-"):
            out += f" - {body[1:]}"
        else:
            out += f" + {body}"
    return out or "0"


class LaurentSeries:
    """Series with finitely many negative powers: coeffs for z^valuation..z^order.

    Coefficients below ``valuation`` are exactly zero; coefficients above
    ``order`` are unknown.  ``order`` may be ``math.inf`` for exact objects.
    A power series is one with valuation >= 0.
    """

    __slots__ = ("valuation", "order", "coeffs")

    def __init__(self, valuation: int, coeffs: Sequence, order=None):
        cleaned = [_coeff(c) for c in coeffs]
        if order is None:
            order = valuation + len(cleaned) - 1
        if order is not INF and valuation + len(cleaned) - 1 > order:
            raise ValueError("more coefficients supplied than the stated order allows")
        data = {valuation + i: c for i, c in enumerate(cleaned)}
        v, o, tup = _canonical(data, order)
        self.valuation = v
        self.order = o
        self.coeffs = tup

    # -- access --------------------------------------------------------------

    def coefficient(self, k: int) -> CoeffPoly:
        """Coefficient of z^k; raises OrderError past the determined order."""
        if k > self.order:
            raise OrderError(k, self.order)
        i = k - self.valuation
        if i < 0 or i >= len(self.coeffs):
            return CoeffPoly.zero()
        return self.coeffs[i]

    def _stored(self):
        v = self.valuation
        for i, c in enumerate(self.coeffs):
            if c:
                yield v + i, c

    def effective_valuation(self):
        """Exponent of the first nonzero known coefficient (inf if none)."""
        for k, _ in self._stored():
            return k
        return INF if self.order is INF else self.order + 1

    def is_zero(self) -> bool:
        """True when every known coefficient vanishes."""
        return not self.coeffs

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CoeffPoly)):
            other = const_series(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(self.order, other.order)
        data: dict[int, CoeffPoly] = {}
        for k, c in self._stored():
            if k <= order:
                data[k] = c
        for k, c in other._stored():
            if k <= order:
                data[k] = data.get(k, CoeffPoly.zero()) + c
        return _make(data, order)

    __radd__ = __add__

    def __neg__(self):
        return _make({k: -c for k, c in self._stored()}, self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CoeffPoly)):
            other = const_series(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CoeffPoly)):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        va, vb = self.effective_valuation(), other.effective_valuation()
        order = min(self.order + vb, other.order + va, self.order + other.order + 1)
        buckets: dict[int, dict] = {}
        for i, a in self._stored():
            for j, b in other._stored():
                k = i + j
                if k > order:
                    continue
                bucket = buckets.get(k)
                if bucket is None:
                    bucket = buckets[k] = {}
                accumulate_product(bucket, a, b)
        data = {k: poly_from_bucket(bucket) for k, bucket in buckets.items()}
        return _make(data, order)

    __rmul__ = __mul__

    def scale(self, s) -> "LaurentSeries":
        s = _coeff(s)
        if s.is_zero():
            return _make({}, INF)
        return _make({k: c * s for k, c in self._stored()}, self.order)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1) / Fraction(other))
        if isinstance(other, LaurentSeries):
            return self * laurent_recip(other)
        return NotImplemented

    def __pow__(self, k: int):
        return laurent_pow(self, k)

    def shift(self, s: int) -> "LaurentSeries":
        """Multiply by z^s."""
        return _make({k + s: c for k, c in self._stored()}, self.order + s)

    def truncate(self, order) -> "LaurentSeries":
        if order >= self.order:
            return self
        return _make({k: c for k, c in self._stored() if k <= order}, order)

    def derivative(self) -> "LaurentSeries":
        data = {k - 1: c * k for k, c in self._stored() if k != 0}
        return _make(data, self.order - 1)

    def integrate(self) -> "LaurentSeries":
        """The primitive with constant term 0."""
        data: dict[int, CoeffPoly] = {}
        for k, c in self._stored():
            if k == -1:
                raise SeriesError("cannot integrate a z^-1 term inside the series ring")
            data[k + 1] = c * Fraction(1, k + 1)
        return _make(data, self.order + 1)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.valuation == other.valuation
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        return _join_terms(self._stored(), "z", paren_const=False)

    def __repr__(self):
        tail = "" if self.order is INF else f" + O(z^{self.order + 1})"
        return f"<{type(self).__name__} {self.render()}{tail}>"

    def to_json_obj(self, coeff=CoeffPoly.to_json_terms) -> dict:
        """``coeff`` writes each coefficient; by default, as its exact JSON terms."""
        return {
            "valuation": self.valuation,
            "order": None if self.order is INF else self.order,
            "coeffs": [coeff(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_obj(cls, data: dict) -> "LaurentSeries":
        order = INF if data["order"] is None else data["order"]
        coeffs = [CoeffPoly.from_json_terms(t) for t in data["coeffs"]]
        return _make(
            {data["valuation"] + i: c for i, c in enumerate(coeffs)}, order
        )


def _canonical(data: dict[int, CoeffPoly], order):
    """Drop zeros and out-of-order entries, trim, and normalize the valuation."""
    keep = {k: c for k, c in data.items() if c and k <= order}
    if not keep:
        return 0, order, ()
    lo = min(keep)
    hi = max(keep)
    tup = tuple(keep.get(k, CoeffPoly.zero()) for k in range(lo, hi + 1))
    return lo, order, tup


def _make(data: dict[int, CoeffPoly], order) -> LaurentSeries:
    v, o, tup = _canonical(data, order)
    obj = object.__new__(LaurentSeries)
    obj.valuation = v
    obj.order = o
    obj.coeffs = tup
    return obj


# -- constructors --------------------------------------------------------------


def const_series(value) -> LaurentSeries:
    """The exact constant series."""
    return _make({0: _coeff(value)}, INF)


def z_series() -> LaurentSeries:
    """The exact identity series z."""
    return _make({1: CoeffPoly.one()}, INF)


def zero_series(order=INF) -> LaurentSeries:
    """The zero series, known through the given order."""
    return _make({}, order)


def seed_series(N: int) -> LaurentSeries:
    """The generic univalent seed f(z) = z + c1 z^2 + c2 z^3 + ... through z^N."""
    if N < 1:
        raise ValueError("seed order must be >= 1")
    data = {1: CoeffPoly.one()}
    for n in range(1, N):
        data[n + 1] = CoeffPoly.var(n)
    return _make(data, N)


# -- series operations -----------------------------------------------------------


def laurent_recip(a: LaurentSeries) -> LaurentSeries:
    """1/a for a series with invertible leading coefficient."""
    v = a.effective_valuation()
    if v is INF or v > a.order:
        raise LeadingCoefficientError("cannot invert a series with no known nonzero term",
                                      a.valuation)
    lead = a.coefficient(v)
    if not lead.is_constant():
        raise LeadingCoefficientError(
            "leading coefficient is not an invertible rational", v)
    inv = Fraction(1) / lead.constant_value()
    stored = {k - v: c for k, c in a._stored() if k != v}
    if not stored:
        # Monomial: exact reciprocal.
        return _make({-v: CoeffPoly.const(inv)}, INF if a.order is INF else a.order - 2 * v)
    if a.order is INF:
        raise SeriesError("reciprocal of an exact multi-term series is an "
                          "infinite object; truncate first")
    m = a.order - v  # relative order of the unit part
    out = [CoeffPoly.zero()] * (m + 1)
    out[0] = CoeffPoly.const(inv)
    for n in range(1, m + 1):
        s = CoeffPoly.zero()
        for i, c in stored.items():
            if 1 <= i <= n:
                prod = c * out[n - i]
                if prod:
                    s = s + prod
        out[n] = -s * inv if s else CoeffPoly.zero()
    return _make({-v + i: c for i, c in enumerate(out)}, a.order - 2 * v)


def laurent_pow(a: LaurentSeries, k: int) -> LaurentSeries:
    """a**k for any integer k (negative powers go through the reciprocal)."""
    if not isinstance(k, int):
        raise TypeError("series powers must be integers")
    if k == 0:
        return const_series(1)
    if k < 0:
        return laurent_pow(laurent_recip(a), -k)
    result = None
    base = a
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


def unit_pow(h: LaurentSeries, alpha: int, b: list | None = None) -> LaurentSeries:
    """h**alpha for h = 1 + h_1 z + h_2 z^2 + ... and any integer alpha.

    Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), with b_0 = 1:

        n b_n = sum_{k=1..n} ((alpha + 1) k - n) h_k b_{n-k}.

    Each step multiplies the coefficients h_k (single monomials for the
    seed) by earlier b_j, never two dense coefficients, and term n depends
    only on earlier terms.  The result is known through ``h.order``.  When
    every coefficient of h is integral, so is every b_n, and the division by
    n is asserted to be exact.

    The kernel is resumable: ``b``, when given, is a list of the terms
    b_0, b_1, ... of an earlier call with the same alpha on a series that
    agrees with h, and it is extended in place, so only the terms past its
    end are computed.  The result holds the list's own coefficient objects.
    """
    if not isinstance(alpha, int):
        raise TypeError("series powers must be integers")
    if h.valuation < 0 or h.coefficient(0) != CoeffPoly.one():
        raise SeriesError("power kernel requires constant term exactly 1")
    if h.order is INF:
        raise SeriesError("power of an exact series is an infinite object; "
                          "truncate first")
    if b is None:
        b = []
    if len(b) <= h.order:
        tail = [(k, c) for k, c in h._stored() if k > 0]
        integral = all(q.denominator == 1 for _, c in tail for q in c.terms.values())
        if not b:
            b.append(CoeffPoly.one())
        for n in range(len(b), h.order + 1):
            bucket: dict = {}
            for k, hk in tail:
                if k > n:
                    break
                factor = (alpha + 1) * k - n
                if factor and b[n - k]:
                    accumulate_product(bucket, b[n - k], hk * factor)
            b.append(poly_div_int(poly_from_bucket(bucket), n, exact=integral))
    return _make(dict(enumerate(b[:h.order + 1])), h.order)


def ps_log(a: LaurentSeries) -> LaurentSeries:
    """Formal logarithm of a series with constant term exactly 1.

    Computed by integrating a'/a term by term; exact rational arithmetic
    makes the divisions by n safe.
    """
    if a.coefficient(0) != CoeffPoly.one():
        raise SeriesError("logarithm requires constant term exactly 1")
    rest = any(k != 0 for k, _ in a._stored())
    if not rest:
        return zero_series(a.order)
    if a.order is INF:
        raise SeriesError("logarithm of an exact series is an infinite object; "
                          "truncate first")
    return (a.derivative() / a).integrate()


def scaled_sum(terms, top) -> LaurentSeries:
    """sum c s over the (s, c) pairs of ``terms``, through z^top.

    Each power z^m read is one accumulation bucket, into which every term
    adds s[m] c, so no scaled series is built and nothing past z^top is
    multiplied.  Every series summed must be known through z^top (else
    OrderError); the result has order ``top``.
    """
    buckets: dict[int, dict] = {}
    for series, coeff in terms:
        if series.order < top:
            raise OrderError(top, series.order)
        for m, sm in enumerate(series.coeffs, series.valuation):
            if m > top:
                break
            if sm:
                accumulate_product(buckets.setdefault(m, {}), sm, coeff)
    return _make({m: poly_from_bucket(b) for m, b in buckets.items()}, top)


def ps_compose(outer: LaurentSeries, inner: LaurentSeries) -> LaurentSeries:
    """outer(inner) for inner with zero constant term, as sum_k outer_k inner^k.

    With inner starting at z^q, the result is known through
    ``target = min(inner.order, (outer.order + 1) q - 1)``.  Each power is
    ``inner^(k-1) * inner`` cut at ``target``, and the sum stops at the first
    power that is zero through ``target``; when inner has single-monomial
    coefficients, as the seed does, every power product is dense x monomial.
    The powers are summed by :func:`scaled_sum`.
    """
    if outer.valuation < 0:
        raise SeriesError("composition target must have no principal part")
    if inner.valuation < 0 or inner.coefficient(0):
        raise SeriesError("inner series must have zero constant term")
    q = inner.effective_valuation()
    if q is INF:
        target = INF if outer.order is INF else inner.order
    else:
        target = min(inner.order, (outer.order + 1) * q - 1)

    def terms():
        power: LaurentSeries = const_series(1)  # inner^k
        k = 0
        for m, c in outer._stored():
            while k < m and not power.is_zero():
                power = (power * inner).truncate(target)
                k += 1
            if power.is_zero():
                return
            yield power, c

    return scaled_sum(terms(), target)


def reversion_powers(a: LaurentSeries, qs, top: int) -> dict:
    """{q: g^q} for each integer q in ``qs``, each exact through z^top, where
    g is the compositional inverse of a = z + ....

    Lagrange inversion reads every power off the powers of a/w:

        [z^m] g^q = (q/m) [w^(m-q)] (a/w)^(-m)      (m != 0),
        [z^0] g^q = [w^(-q)] a'(w) (a/w)^(-1)       (Burmann form, q < 0),

    so g^q through z^top reads a through z^(top + 1 - q), and a seed too
    short for the lowest q raises OrderError; g^0 is 1 through z^top.  Each
    (a/w)^(-m), m <= top, is one run of the :func:`unit_pow` kernel, through
    the highest w power any q reads.  Nothing here checks the result;
    :func:`ps_reversion` composes g back to z.
    """
    if a.effective_valuation() != 1 or a.coefficient(1) != CoeffPoly.one() \
            or a.coefficient(0):
        raise SeriesError("reversion requires a series of the form z + higher order")
    if a.order is INF:
        raise SeriesError("reversion of an exact series is an infinite object; "
                          "truncate first")
    h = a.shift(-1)
    qs = set(qs)
    coeffs = {q: [None] * max(top + 1 - q, 0) for q in qs if q}  # z^q .. z^top
    qmin = min(coeffs, default=top + 1)
    if a.order < top + 1 - qmin:
        raise OrderError(top + 1 - qmin, a.order)
    for m in range(qmin, top + 1):
        if m:
            hm = unit_pow(h.truncate(m - qmin), -m)
            for q, c in coeffs.items():
                if q <= m:
                    c[m - q] = poly_div_int(hm.coefficient(m - q) * q, m)
        else:  # the Burmann form, read by every q < 0
            burmann = a.derivative() * unit_pow(h.truncate(-qmin), -1)
            for q, c in coeffs.items():
                if q < 0:
                    c[-q] = burmann.coefficient(-q)
    pows = {q: _make(dict(enumerate(c, q)), top) for q, c in coeffs.items()}
    if 0 in qs:
        pows[0] = const_series(1).truncate(top)
    return pows


def ps_reversion(a: LaurentSeries) -> LaurentSeries:
    """Compositional inverse g of a = z + ..., with a(g(z)) = g(a(z)) = z.

    g is the q = 1 entry of :func:`reversion_powers`, known through
    ``a.order``.  The result is checked by composing back: g(a(z)) = z, which
    for a series z + ... is the same exact statement as a(g(z)) = z, since a
    left inverse is also a right inverse.  With a as the inner series, every
    power a^k in :func:`ps_compose` is a product with a, which for the seed
    has single-monomial coefficients.
    """
    g = reversion_powers(a, (1,), a.order)[1]
    if not (ps_compose(g, a) - z_series()).is_zero():
        raise SeriesError("reversion failed its composition self-check")
    return g


# -- marker-variable polynomials -------------------------------------------------


class LaurentWPoly:
    """Finite Laurent polynomial in a marker variable u with CoeffPoly entries.

    ``entries`` maps each exponent to its nonzero coefficient.
    :class:`WPoly` is the subclass with no negative exponent.  Negation,
    ``scale`` and ``map_coeffs`` keep the operand's class; a sum or difference
    is a WPoly when both operands are, and a LaurentWPoly otherwise.  A scalar
    operand is the u^0 term.  Objects of different classes never compare equal.
    """

    __slots__ = ("entries",)
    var = "u"

    def __init__(self, entries: dict[int, object] | None = None):
        clean: dict[int, CoeffPoly] = {}
        if entries:
            for e, c in entries.items():
                c = _coeff(c)
                if c:
                    clean[e] = c
        self.entries = clean

    @classmethod
    def _of(cls, entries: dict) -> "LaurentWPoly":
        """The ``cls`` object with these exponent -> coefficient entries."""
        obj = object.__new__(cls)
        LaurentWPoly.__init__(obj, entries)
        return obj

    @property
    def min_exponent(self) -> int | None:
        return min(self.entries) if self.entries else None

    @property
    def max_exponent(self) -> int | None:
        return max(self.entries) if self.entries else None

    def coefficient(self, e: int) -> CoeffPoly:
        return self.entries.get(e, CoeffPoly.zero())

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CoeffPoly)):
            other = type(self)._of({0: other})
        if not isinstance(other, LaurentWPoly):
            return NotImplemented
        out = dict(self.entries)
        for e, c in other.entries.items():
            out[e] = out.get(e, CoeffPoly.zero()) + c
        cls = type(self) if type(other) is type(self) else LaurentWPoly
        return cls._of(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)._of({e: -c for e, c in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "LaurentWPoly":
        s = _coeff(s)
        return type(self)._of({e: c * s for e, c in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, LaurentWPoly):
            return NotImplemented
        return type(self) is type(other) and self.entries == other.entries

    def eval_at(self, x: LaurentSeries) -> LaurentSeries:
        """Substitute a series for u; negative exponents go through 1/x.

        Powers of x are built incrementally (at most one reciprocal and one
        product per exponent step), which keeps wide Laurent ranges cheap.
        """
        if not self.entries:
            return zero_series(INF)
        emin, emax = min(self.entries), max(self.entries)
        total = None
        if emin >= 0:
            e, cur, step = emin, laurent_pow(x, emin), x
        else:
            e, cur, step = emax, laurent_pow(x, emax), laurent_recip(x)
        while True:
            coeff = self.entries.get(e)
            if coeff:
                term = cur.scale(coeff)
                total = term if total is None else total + term
            e += 1 if emin >= 0 else -1
            if not emin <= e <= emax:
                break
            cur = cur * step
        return total

    def at_variable(self) -> LaurentSeries:
        """Read the marker variable as the series variable: u^e -> z^e, exactly."""
        return _make(dict(self.entries), INF)

    def map_coeffs(self, fn) -> "LaurentWPoly":
        return type(self)._of({e: fn(c) for e, c in self.entries.items()})

    def render(self) -> str:
        return _join_terms(sorted(self.entries.items(), reverse=True), self.var)

    def __repr__(self):
        return f"<{type(self).__name__} {self.render()}>"

    def to_json_obj(self, coeff=CoeffPoly.to_json_terms) -> dict:
        """``coeff`` writes each coefficient; by default, as its exact JSON terms."""
        return {"exponents": {str(e): coeff(self.entries[e])
                              for e in sorted(self.entries)}}

    @classmethod
    def from_json_obj(cls, data: dict) -> "LaurentWPoly":
        return cls({int(e): CoeffPoly.from_json_terms(t)
                    for e, t in data["exponents"].items()})


class WPoly(LaurentWPoly):
    """Polynomial in a marker variable w: a LaurentWPoly with no negative
    exponent, built from its dense coefficients of w^0, w^1, ..."""

    __slots__ = ()
    var = "w"

    def __init__(self, coeffs: Sequence):
        super().__init__(dict(enumerate(coeffs)))

    @property
    def degree(self) -> int:
        return max(self.entries, default=-1)

    @property
    def coeffs(self) -> tuple[CoeffPoly, ...]:
        """The coefficients of w^0 .. w^degree, zeros included."""
        return tuple(self.coefficient(k) for k in range(self.degree + 1))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CoeffPoly)):
            return self.scale(other)
        if not isinstance(other, WPoly):
            return NotImplemented
        out: dict[int, CoeffPoly] = {}
        for i, a in self.entries.items():
            for j, b in other.entries.items():
                out[i + j] = out.get(i + j, CoeffPoly.zero()) + a * b
        return WPoly._of(out)

    __rmul__ = __mul__

    def deriv_w(self) -> "WPoly":
        return WPoly._of({k - 1: c * k for k, c in self.entries.items() if k})

    def eval_at(self, x: LaurentSeries) -> LaurentSeries:
        """Substitute a series for w, as :meth:`LaurentWPoly.eval_at` does."""
        return LaurentWPoly.eval_at(self, x)

    def reciprocal_substitute(self) -> LaurentWPoly:
        """Substitute w -> 1/u: degree d maps to exponent range -d..0."""
        return LaurentWPoly({-k: c for k, c in self.entries.items()})

    def to_json_obj(self, coeff=CoeffPoly.to_json_terms) -> dict:
        """``coeff`` writes each coefficient; by default, as its exact JSON terms."""
        return {
            "degree": self.degree,
            "coeffs": [coeff(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_obj(cls, data: dict) -> "WPoly":
        return cls([CoeffPoly.from_json_terms(t) for t in data["coeffs"]])


# -- bivariate series -------------------------------------------------------------


class BiSeries:
    """Rectangularly truncated series in (u, v) with CoeffPoly entries.

    ``rows[i][j]`` is the coefficient of ``u^i v^j`` for i <= nu, j <= nv;
    entries past the rectangle are unknown, and negative powers are zero.
    """

    __slots__ = ("nu", "nv", "rows")

    def __init__(self, rows: Sequence[Sequence], nu: int, nv: int):
        if len(rows) != nu + 1:
            raise ValueError("expected one row per u power 0..nu")
        frozen = []
        for r in rows:
            if len(r) != nv + 1:
                raise ValueError("row width must cover v^0..v^nv")
            frozen.append(tuple(_coeff(c) for c in r))
        self.rows = tuple(frozen)
        self.nu = nu
        self.nv = nv

    def coefficient(self, i: int, j: int) -> CoeffPoly:
        if i < 0 or j < 0:
            return CoeffPoly.zero()
        if i > self.nu or j > self.nv:
            raise OrderError((i, j), (self.nu, self.nv))
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (self.nu, self.nv, self.rows) == (other.nu, other.nv, other.rows)

    def derivative_u(self, scale=1) -> "BiSeries":
        """``scale`` times the partial derivative in u, known one u power lower."""
        rows = [[c * (scale * (i + 1)) for c in self.rows[i + 1]] for i in range(self.nu)]
        return BiSeries(rows, self.nu - 1, self.nv)

    def diagonal_sum(self, d: int) -> CoeffPoly:
        """Coefficient of t^d in the restriction to u = v = t."""
        s = CoeffPoly.zero()
        for i in range(d + 1):
            s = s + self.coefficient(i, d - i)
        return s


def divided_difference(P: BiSeries) -> BiSeries:
    """Q with (v - u) * Q = P, for P vanishing on the diagonal u = v.

    The diagonal condition is checked symbolically up to the truncation;
    a violation reports the first offending total degree.
    """
    for d in range(min(P.nu, P.nv) + 1):
        if P.diagonal_sum(d):
            raise DiagonalError(d)
    nu, nv = P.nu, P.nv - P.nu - 1
    if nv < 0:
        raise SeriesError("v-order too small to divide by (v - u)")
    rows = []
    for i in range(nu + 1):
        row = []
        for j in range(nv + 1):
            s = CoeffPoly.zero()
            for t in range(i + 1):
                s = s + P.coefficient(i - t, j + 1 + t)
            row.append(s)
        rows.append(row)
    return BiSeries(rows, nu, nv)


def bi_quotient(T: BiSeries, Q: BiSeries, rows: list | None = None) -> list:
    """The rows of X = T / Q for bivariate series with Q[0][0] = 1, over the
    rectangle of T (which Q must cover), by back-substitution:

        X[i][j] = T[i][j] - sum Q[s][b] X[i-s][j-b],  over s <= i, b <= j, (s, b) != (0, 0).

    No reciprocal series is formed, and both sums go into one accumulator
    per entry.  X[i][j] reads only T[i][j] and the entries of Q and X at or
    below (i, j), so the solve is resumable: ``rows``, when given, holds the
    rows of an earlier solve on series that agree with T and Q, and is
    extended in place, each old row by its new columns and then the new
    rows, so only the missing entries are computed.  When the entries of Q
    are single monomials every product multiplies a dense coefficient by one
    monomial.
    """
    if Q.rows[0][0] != CoeffPoly.one():
        raise SeriesError("bivariate quotient requires a divisor with constant term 1")
    if rows is None:
        rows = []
    for i in range(T.nu + 1):
        if i == len(rows):
            rows.append([])
        out = rows[i]
        for j in range(len(out), T.nv + 1):
            bucket: dict = {}
            for s in range(i + 1):  # the s = i terms are the back-substitution
                q, x = Q.rows[i - s], rows[s]
                for b in range(1 if s == i else 0, j + 1):
                    if q[b] and x[j - b]:
                        accumulate_product(bucket, q[b], x[j - b])
            t = T.rows[i][j]
            out.append(t - poly_from_bucket(bucket) if bucket else t)
    return rows


def bi_log_in_u(Q: BiSeries) -> BiSeries:
    """log(Q / Q(0, v)) for a bivariate series whose u^0 row has constant term 1.

    The u^0 row ``head = Q(0, v)`` may be any series in v whose constant term
    is exactly 1; the result is the log of Q with every row divided by
    ``head``, so its u^0 row is 0.  Differentiating in u gives
    ``W = Q_u / Q``, one :func:`bi_quotient`, and integrating back gives row
    i of the log as ``W[i-1] / i``.
    """
    W = bi_quotient(Q.derivative_u(), Q)
    rows = [[CoeffPoly.zero()] * (Q.nv + 1)]
    for i in range(1, Q.nu + 1):
        rows.append([c * Fraction(1, i) for c in W[i - 1]])
    return BiSeries(rows, Q.nu, Q.nv)
