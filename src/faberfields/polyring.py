"""Exact sparse polynomial ring in the seed coefficients c1, c2, c3, ...

A :class:`CoeffPoly` is a finite sum of monomials in the symbols ``c_j``
(``j >= 1``) with rational coefficients stored exactly.  The symbol ``c_j``
carries weight ``j``, so every polynomial decomposes into weight-homogeneous
components; all identity checks in this package ride on that grading.

Representation:

    Monomial  = tuple of (variable index, exponent) pairs, sorted by index,
                no zero exponents; the empty tuple is the constant monomial.
    CoeffPoly = {Monomial: int | Fraction}, zero coefficients never stored.

Both are immutable in practice (dicts are never mutated after construction)
and every operation is a pure function, so values can be shared freely across
threads.  Equality is structural, which makes ``==`` a reliable exact
identity test.

Rationals are ``fractions.Fraction``: always in lowest terms, positive
denominator, zero is ``0/1``.  Whole values are kept as plain ``int`` (which
satisfies the same Rational protocol and compares equal to the matching
Fraction): no stored coefficient is a ``Fraction`` with denominator 1.  The
constructor, ``+``, ``-``, ``*`` by a scalar or a polynomial, ``partial``,
``poly_from_bucket`` and ``poly_div_int`` all keep this invariant, and so
does ``kirillov.Derivation.apply_poly``, which builds on the bucket.
Products accumulate numerator/denominator pairs in raw integers, normalizing
once per output term; together these keep the hot convolution and scaling
loops close to integer speed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import islice
from operator import add, mul
from typing import Iterable, Mapping

#: A monomial: sorted tuple of (variable index, exponent) pairs.
Monomial = tuple

#: The constant monomial (the empty product).
ONE_MONO: Monomial = ()


class MissingVariableError(KeyError):
    """Raised when a specialization supplies no value for some ``c_j``."""

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index

    def __str__(self):
        return f"no value supplied for c{self.index}"


def mono(*pairs: tuple[int, int]) -> Monomial:
    """Build a monomial from (index, exponent) pairs, e.g. mono((1, 2), (3, 1))."""
    d: dict[int, int] = {}
    for j, e in pairs:
        if j < 1:
            raise ValueError(f"variable index must be >= 1, got {j}")
        if e < 0:
            raise ValueError(f"exponent must be >= 0, got {e}")
        if e:
            d[j] = d.get(j, 0) + e
    return _intern_mono(tuple(sorted(d.items())))


# Monomials are interned, so a product of two monomials is cached by the id()
# of each factor instead of rehashing nested tuples; interned objects live in
# the table, which keeps their ids stable.  The product cache is a table of
# rows, one per left factor: _MONO_MUL_CACHE[id(a)][id(b)] = a * b.  A product
# loop fetches each left factor's row once (``mono_row``) and reads it by the
# right factor's id, calling ``mono_mul`` only for a product not yet in it; a
# constant left factor reads no row, since its products are the right factors.
# A row is made by the first product stored in it, so no row is empty.
_MONO_INTERN: dict = {(): ()}
_MONO_MUL_CACHE: dict = {}
_NO_ROW: dict = {}  # read for a factor with no row yet; never written


def _intern_mono(m: Monomial) -> Monomial:
    return _MONO_INTERN.setdefault(m, m)


def mono_row(a: Monomial) -> dict:
    """The row {id(b): a * b} of the cached products of the interned a, to
    read only: a factor with no product stored yet reads an empty row."""
    return _MONO_MUL_CACHE.get(id(a), _NO_ROW)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """a * b for interned monomials, merged once and kept in a's row.

    A product with the constant monomial is the other factor and is not
    kept: a row of them would copy every monomial it met."""
    if not a:
        return b
    if not b:
        return a
    row = _MONO_MUL_CACHE.get(id(a))
    if row is None:
        row = _MONO_MUL_CACHE[id(a)] = {}
    else:
        hit = row.get(id(b))
        if hit is not None:
            return hit
    # Merge two index-sorted pair tuples.
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ja, ea = a[i]
        jb, eb = b[j]
        if ja == jb:
            out.append((ja, ea + eb))
            i += 1
            j += 1
        elif ja < jb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    m = row[id(b)] = _intern_mono(tuple(out))
    return m


def mono_div_at(m: Monomial, i: int) -> Monomial:
    """m / c_j for the pair (j, e) at position i of m, interned."""
    j, e = m[i]
    if e == 1:
        return _intern_mono(m[:i] + m[i + 1:])
    return _intern_mono(m[:i] + ((j, e - 1),) + m[i + 1:])


def mono_weight(m: Monomial) -> int:
    """Weight of a monomial: sum of index * exponent."""
    return sum(j * e for j, e in m)


def mono_key(m: Monomial):
    """Canonical sort key: graded by weight, then ascending dense exponent vector."""
    w = mono_weight(m)
    dense = [0] * w
    for j, e in m:
        dense[j - 1] = e
    return (w, tuple(dense))


class MonoPlan:
    """The values of many polynomials at one coefficient vector after another.

    The plan numbers every distinct monomial of the polynomials once: index 0
    is the constant monomial, then come the single factors ``c_j^e`` in the
    order the terms first meet them, then the monomials of two, three, ...
    factors, each after its prefix ``m[:-1]``.  The value of a monomial is
    then one product ``vals[prefix] * vals[last factor]``, the left fold of
    its factors in index order, and each length fills its part of the table
    in one C-level ``map``.  Each polynomial is kept as its coefficients, and
    the indices of the monomials of all polynomials as one flat array of
    machine integers, so no monomial is hashed after the plan is built.

    :meth:`evaluate` fills the table at one vector and sums each polynomial
    from its first term, in term order.  The constant monomial's value is the
    integer 1, so an exact coefficient stays exact, and the zero polynomial is
    ``Fraction(0)``.  Exact values give exact results; float or complex ones
    give the bits of multiplying each term's factors in index order and
    summing the terms in order.
    """

    __slots__ = ("_factors", "_levels", "_coeffs", "_monos")

    def __init__(self, polys: Iterable["CoeffPoly"]):
        # array is a shared library: imported here, it is mapped only by
        # processes that evaluate, not by every importer of the ring.
        from array import array

        polys = list(polys)
        index: dict = {ONE_MONO: 0}
        factors: list = []
        longer: dict[int, dict] = {}
        for poly in polys:
            for m in poly.terms:
                if m in longer.get(len(m), ()):
                    continue
                for f in m:
                    if (f,) not in index:
                        index[(f,)] = len(factors) + 1
                        factors.append(f)
                for k in range(len(m), 1, -1):
                    level = longer.setdefault(k, {})
                    if m[:k] in level:
                        break
                    level[m[:k]] = None
        levels = []
        for k in sorted(longer):
            prefixes, lasts = array("I"), array("I")
            for m in longer[k]:
                index[m] = len(index)
                prefixes.append(index[m[:-1]])
                lasts.append(index[m[-1:]])
            levels.append((prefixes, lasts))
        self._factors = factors
        self._levels = levels
        self._coeffs = [poly.terms.values() for poly in polys]
        self._monos = array("I", (index[m] for poly in polys for m in poly.terms))

    def evaluate(self, values: Mapping[int, object]) -> list:
        """[poly at c_j = values[j] for each polynomial of the plan].

        Raises MissingVariableError naming the first absent index, in the
        order of the polynomials, their terms and each term's factors.
        """
        try:
            vals = [1] + [values[j] ** e for j, e in self._factors]
        except KeyError:
            missing = next(j for j, _ in self._factors if j not in values)
            raise MissingVariableError(missing) from None
        get = vals.__getitem__
        for prefixes, lasts in self._levels:
            vals += map(mul, map(get, prefixes), map(get, lasts))
        monos = iter(self._monos)
        return [reduce(add, map(mul, coeffs, map(get, islice(monos, len(coeffs)))))
                if coeffs else Fraction(0) for coeffs in self._coeffs]


def mono_render(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(f"c{j}" if e == 1 else f"c{j}^{e}" for j, e in m)


def _as_rational(x):
    """Coefficient values are int or Fraction; whole values become ints.

    Python ints implement the Rational protocol (numerator/denominator), and
    mixed int/Fraction comparison and arithmetic agree, so equality of term
    maps is still exact value equality.
    """
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return _whole(x)
    raise TypeError(f"expected an exact rational or int, got {type(x).__name__}")


def _whole(q):
    """q with a whole Fraction replaced by its int numerator."""
    if q.__class__ is Fraction and q.denominator == 1:
        return q.numerator
    return q


class CoeffPoly:
    """Sparse exact polynomial in the variables c1, c2, ..."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, q in terms.items():
                q = _as_rational(q)
                if q:
                    clean[_intern_mono(m)] = q
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "CoeffPoly":
        return cls()

    @classmethod
    def one(cls) -> "CoeffPoly":
        return cls({ONE_MONO: 1})

    @classmethod
    def const(cls, q) -> "CoeffPoly":
        return cls({ONE_MONO: _as_rational(q)})

    @classmethod
    def var(cls, j: int, exponent: int = 1) -> "CoeffPoly":
        """The polynomial c_j (or c_j^exponent)."""
        return cls({mono((j, exponent)): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """The term map; treat as read-only."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and ONE_MONO in self._terms)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant monomial."""
        return self._terms.get(ONE_MONO, Fraction(0))

    def variables(self) -> tuple[int, ...]:
        """Sorted indices of all variables that occur."""
        seen = set()
        for m in self._terms:
            for j, _ in m:
                seen.add(j)
        return tuple(sorted(seen))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda t: mono_key(t[0]))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CoeffPoly.const(other)
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for m, q in other._terms.items():
            s = out.get(m)
            if s is None:
                out[m] = q
            else:
                s = s + q
                if s:
                    out[m] = _whole(s)
                else:
                    del out[m]
        res = CoeffPoly.__new__(CoeffPoly)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = CoeffPoly.__new__(CoeffPoly)
        res._terms = {m: -q for m, q in self._terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CoeffPoly.const(other)
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_rational(other)
            if not q:
                return CoeffPoly.zero()
            res = CoeffPoly.__new__(CoeffPoly)
            # int * int needs no check for a whole Fraction.
            if q.__class__ is int:
                res._terms = {m: c * q if c.__class__ is int else _whole(c * q)
                              for m, c in self._terms.items()}
            else:
                res._terms = {m: _whole(c * q) for m, c in self._terms.items()}
            return res
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return CoeffPoly.zero()
        acc: dict[Monomial, list] = {}
        accumulate_product(acc, self, other)
        return poly_from_bucket(acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("CoeffPoly powers must be non-negative integers")
        result = CoeffPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CoeffPoly.const(other)
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    # -- calculus and grading ----------------------------------------------

    def partial(self, j: int) -> "CoeffPoly":
        """Formal partial derivative with respect to c_j."""
        if j < 1:
            raise ValueError(f"variable index must be >= 1, got {j}")
        # m -> m / c_j is one-to-one on the monomials holding c_j, so no two
        # terms land on the same output monomial.
        out: dict[Monomial, Fraction] = {}
        for m, q in self._terms.items():
            for i, (jj, e) in enumerate(m):
                if jj == j:
                    out[mono_div_at(m, i)] = _whole(q * e)
                    break
                if jj > j:
                    break
        res = CoeffPoly.__new__(CoeffPoly)
        res._terms = out
        return res

    def weight_components(self) -> dict[int, "CoeffPoly"]:
        """Split into weight-homogeneous components, keyed by weight."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for m, q in self._terms.items():
            buckets.setdefault(mono_weight(m), {})[m] = q
        out = {}
        for w in sorted(buckets):
            p = CoeffPoly.__new__(CoeffPoly)
            p._terms = buckets[w]
            out[w] = p
        return out

    def is_homogeneous(self, weight: int | None = None) -> bool:
        """True if all terms share one weight (the given one, if specified).

        The zero polynomial counts as homogeneous of every weight.
        """
        ws = {mono_weight(m) for m in self._terms}
        if not ws:
            return True
        if len(ws) > 1:
            return False
        return weight is None or ws == {weight}

    def homogeneous_weight(self) -> int | None:
        """The common weight of all terms; None for zero; raises if mixed."""
        ws = {mono_weight(m) for m in self._terms}
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError("polynomial is not weight-homogeneous")
        return ws.pop()

    def max_variable(self) -> int:
        """Largest variable index occurring (0 for constants)."""
        best = 0
        for m in self._terms:
            if m and m[-1][0] > best:
                best = m[-1][0]
        return best

    def specialize(self, values: Mapping[int, object]):
        """Evaluate at c_j = values[j], by a :class:`MonoPlan` of this one
        polynomial.

        Values may be exact (int, Fraction) for an exact result, or
        float/complex for a numeric one.  Rational coefficients enter each
        term product last, so no precision is spent before it is needed.
        Raises MissingVariableError naming the first absent index.
        """
        return MonoPlan((self,)).evaluate(values)[0]

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, e.g. ``4*c2 - c1^2``."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for m, q in self.sorted_terms():
            sign = "-" if q < 0 else "+"
            aq = -q if q < 0 else q
            if not m:
                body = str(aq)
            elif aq == 1:
                body = mono_render(m)
            else:
                body = f"{aq}*{mono_render(m)}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"CoeffPoly({self.render()})"

    def to_json_terms(self) -> list[dict]:
        """Canonical JSON form: list of {"coeff": "p/q", "exps": {...}} terms."""
        return [
            {"coeff": str(q), "exps": {str(j): e for j, e in m}}
            for m, q in self.sorted_terms()
        ]

    @classmethod
    def from_json_terms(cls, data: Iterable[dict]) -> "CoeffPoly":
        terms: dict[Monomial, Fraction] = {}
        for t in data:
            m = mono(*((int(j), int(e)) for j, e in t["exps"].items()))
            terms[m] = terms.get(m, Fraction(0)) + Fraction(t["coeff"])
        return cls(terms)


# -- fused product accumulation -----------------------------------------------
#
# Product loops over many coefficient pairs (series convolutions, bivariate
# rows) accumulate raw numerator/denominator integer pairs into a shared
# bucket and normalize to Fraction once per output monomial; this keeps the
# hot paths close to integer speed.


def accumulate_product(bucket: dict, a: CoeffPoly, b: CoeffPoly) -> None:
    """bucket += a * b, where bucket maps Monomial -> [numerator, denominator].

    Each left monomial's row of the product cache is fetched once."""
    bt = [(id(m2), m2, q2.numerator, q2.denominator) for m2, q2 in b._terms.items()]
    bucket_get = bucket.get
    for m1, q1 in a._terms.items():
        n1, d1 = q1.numerator, q1.denominator
        row_get = mono_row(m1).get if m1 else None
        for i2, m2, n2, d2 in bt:
            m = row_get(i2) if m1 else m2
            if m is None:
                m = mono_mul(m1, m2)
            n = n1 * n2
            d = d1 * d2
            cur = bucket_get(m)
            if cur is None:
                bucket[m] = [n, d]
            elif cur[1] == d:
                cur[0] += n
            else:
                cur[0] = cur[0] * d + n * cur[1]
                cur[1] *= d


def poly_from_bucket(bucket: dict) -> CoeffPoly:
    """Normalize an accumulation bucket into a canonical CoeffPoly."""
    out = {}
    for m, (n, d) in bucket.items():
        if n:
            out[m] = n if d == 1 else _whole(Fraction(n, d))
    res = CoeffPoly.__new__(CoeffPoly)
    res._terms = out
    return res


def poly_div_int(a: CoeffPoly, n: int, exact: bool = False) -> CoeffPoly:
    """a / n for a nonzero integer n; whole quotients are kept as ints.

    With ``exact`` the division is asserted to leave no remainder, i.e. every
    coefficient of ``a`` is an integer multiple of n.
    """
    out = {}
    for m, q in a._terms.items():
        if exact:
            d, r = divmod(q, n)
            assert not r, f"{q} is not divisible by {n}"
            out[m] = d
        else:
            d = Fraction(q, n)
            out[m] = d.numerator if d.denominator == 1 else d
    res = CoeffPoly.__new__(CoeffPoly)
    res._terms = out
    return res


def c(j: int) -> CoeffPoly:
    """Shorthand for the generator polynomial c_j."""
    return CoeffPoly.var(j)
