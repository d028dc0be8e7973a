"""Exact sparse polynomial ring in the seed coefficients c1, c2, c3, ...

A :class:`CoeffPoly` is a finite sum of monomials in the symbols ``c_j``
(``j >= 1``) with rational coefficients stored exactly.  The symbol ``c_j``
carries weight ``j``, so every polynomial decomposes into weight-homogeneous
components; all identity checks in this package ride on that grading.

Representation:

    Monomial  = one non-negative int, the packed exponent vector: the
                exponent of c_j sits in an 8-bit field at bit 8 (j - 1), and
                the constant monomial is 0.  A product is an integer sum.
    CoeffPoly = {Monomial: int | Fraction}, zero coefficients never stored.

The top bit of each field is a guard: an index or an exponent is at most
127, which every monomial of weight at most 127 meets, and
``poly_from_bucket`` refuses a set guard bit once per output term.  The cap
removes nothing usable: a dense coefficient of weight 128 can have p(128),
about 4.4e9, terms.  Other modules only use :func:`mono`, :func:`mono_pairs` and
:func:`mono_quotients`.

Values are immutable in practice, and every operation is a pure function, so
they can be shared across threads; ``==`` is an exact identity test.
Rationals are ``fractions.Fraction`` in lowest terms; whole values are kept
as plain ``int`` (which compares equal to the matching Fraction) by the
constructor, ``+``, ``-``, ``*``, ``partial``, ``poly_from_bucket``,
``poly_div_int`` and ``kirillov.Derivation.apply_poly``.  Products add up
numerator/denominator pairs in raw integers, normalizing once per output term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import count, islice
from operator import add, mul, or_
from typing import Iterable, Mapping

#: A monomial: the packed exponent vector of its c_j, one int.
Monomial = int

#: The constant monomial (the empty product).
ONE_MONO: Monomial = 0

# The layout: one 8-bit field per variable, whose top bit is the guard, so
# an index or an exponent is at most _CAP.  _exponents reads the fields as
# bytes, which ties the width to 8.  _GUARD holds the guard bits of c1..c127.
_BITS = 8
_CAP = 127
_GUARD = int.from_bytes(b"\x80" * _CAP, "little")

# Always empty: perfbench/spans.py reads the len() of these two names, which
# held the monomial intern table and its product cache before monomials
# were packed.
_MONO_INTERN: dict = {}
_MONO_MUL_CACHE: dict = {}


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
        d[j] = d.get(j, 0) + e
    m = 0
    for j, e in d.items():
        if not e:
            continue
        if j > _CAP or e > _CAP:
            raise ValueError(f"c{j}^{e} is past the cap: an index or an exponent "
                             f"is at most {_CAP}")
        m += e << _BITS * (j - 1)
    return m


def _exponents(m: Monomial) -> bytes:
    """The dense exponent vector of m, c1 first, through its last variable."""
    return m.to_bytes((m.bit_length() + _BITS - 1) // _BITS, "little")


def mono_pairs(m: Monomial) -> tuple[tuple[int, int], ...]:
    """The (index, exponent) pairs of m, by index; () for the constant."""
    return tuple((j, e) for j, e in enumerate(_exponents(m), 1) if e)


def mono_quotients(m: Monomial) -> list[tuple[int, int, Monomial]]:
    """[(j, e, m / c_j) for each factor c_j^e of m], by index."""
    return [(j, e, m - (1 << _BITS * (j - 1))) for j, e in mono_pairs(m)]


def mono_weight(m: Monomial) -> int:
    """Weight of a monomial: sum of index * exponent."""
    return sum(map(mul, _exponents(m), count(1)))


def mono_key(m: Monomial):
    """Canonical sort key: graded by weight, then ascending dense exponent
    vector.  Two vectors of one weight compare as they would padded with
    zeros to that weight, since the last byte of each is nonzero."""
    return (mono_weight(m), _exponents(m))


class MonoPlan:
    """The values of many polynomials at one coefficient vector after another.

    The plan numbers every distinct monomial of the polynomials once: index 0
    is the constant monomial, then come the single factors ``c_j^e`` in the
    order the terms first meet them, then the monomials of two, three, ...
    factors, each after its prefix ``t[:-1]`` in its pairs ``t``
    (:func:`mono_pairs`).  The value of a monomial is
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
        index: dict = {(): 0}
        factors: list = []
        longer: dict[int, dict] = {}
        pairs: dict = {}
        for poly in polys:
            for m in poly.terms:
                if m in pairs:
                    continue
                t = pairs[m] = mono_pairs(m)
                for f in t:
                    if (f,) not in index:
                        index[(f,)] = len(factors) + 1
                        factors.append(f)
                for k in range(len(t), 1, -1):
                    level = longer.setdefault(k, {})
                    if t[:k] in level:
                        break
                    level[t[:k]] = None
        levels = []
        for k in sorted(longer):
            prefixes, lasts = array("I"), array("I")
            for t in longer[k]:
                index[t] = len(index)
                prefixes.append(index[t[:-1]])
                lasts.append(index[t[-1:]])
            levels.append((prefixes, lasts))
        self._factors = factors
        self._levels = levels
        self._coeffs = [poly.terms.values() for poly in polys]
        self._monos = array("I", (index[pairs[m]] for poly in polys for m in poly.terms))

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
    return "*".join(f"c{j}" if e == 1 else f"c{j}^{e}" for j, e in mono_pairs(m))


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
                    if m.__class__ is not int or m < 0 or m & _GUARD or m >> _BITS * _CAP:
                        raise ValueError(f"{m!r} is not a monomial: an index or an "
                                         f"exponent is at most {_CAP}")
                    clean[m] = q
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
        return tuple(j for j, _ in mono_pairs(reduce(or_, self._terms, 0)))

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
        if j > _CAP:
            return CoeffPoly.zero()  # no stored monomial holds c_j
        # m -> m / c_j is one-to-one on the monomials holding c_j, so no two
        # terms land on the same output monomial.
        out: dict[Monomial, Fraction] = {}
        shift = _BITS * (j - 1)
        unit = 1 << shift
        for m, q in self._terms.items():
            e = m >> shift & _CAP  # a stored field's guard bit is clear
            if e:
                out[m - unit] = _whole(q * e)
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
        return len(_exponents(reduce(or_, self._terms, 0)))

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
            {"coeff": str(q), "exps": {str(j): e for j, e in mono_pairs(m)}}
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

    A product of monomials is their sum; ``poly_from_bucket`` checks it
    against the cap."""
    bt = [(m2, q2.numerator, q2.denominator) for m2, q2 in b._terms.items()]
    bucket_get = bucket.get
    for m1, q1 in a._terms.items():
        n1, d1 = q1.numerator, q1.denominator
        for m2, n2, d2 in bt:
            m = m1 + m2
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
    """Normalize an accumulation bucket into a canonical CoeffPoly.

    Raises OverflowError for a monomial with an exponent past the cap, which
    a product of two stored monomials marks in the guard bit of its field."""
    out = {}
    for m, (n, d) in bucket.items():
        if m & _GUARD:
            raise OverflowError(f"{mono_render(m)} has an exponent past the cap {_CAP}")
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
