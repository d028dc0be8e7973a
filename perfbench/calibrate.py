"""Host-speed calibration for the benchmark.

    python3 perfbench/calibrate.py

Times a fixed exact-arithmetic kernel that does not use ``faberfields`` and
prints the seconds it took as one JSON line.  ``run.py`` runs it in a fresh
interpreter before and after every sample and scales each sample's time by
the kernel's speed around it.

The kernel copies the shape of the package's hot loop, so that it slows down
with the host as the workloads do: two graded polynomials in c1, c2, ...
(every monomial of weight below ``WEIGHTS``, as sorted tuples of (index,
exponent) pairs) are multiplied with a memo of monomial products and
numerator/denominator accumulation, and each product is normalised to
``Fraction`` coefficients.
"""

import json
import time
from fractions import Fraction

WEIGHTS = 13
PRODUCTS = 2


def _partitions(weight, top):
    """Monomials of the given weight using indices <= top."""
    if weight == 0:
        yield ()
        return
    for j in range(min(weight, top), 0, -1):
        for rest in _partitions(weight - j, j):
            exps = dict(rest)
            exps[j] = exps.get(j, 0) + 1
            yield tuple(sorted(exps.items()))


def _mono_mul(a, b):
    exps = dict(a)
    for j, e in b:
        exps[j] = exps.get(j, 0) + e
    return tuple(sorted(exps.items()))


def kernel() -> int:
    a, b = {}, {}
    for w in range(WEIGHTS):
        for k, m in enumerate(_partitions(w, w)):
            a[m] = Fraction((-1) ** k * (k + 1), 2 ** (w % 4) * 3 ** (w % 3))
            b[m] = Fraction(k + 2, (w + 1) * 2 ** (k % 3))
    memo = {}
    terms = 0
    for _ in range(PRODUCTS):
        bt = [(m2, q.numerator, q.denominator) for m2, q in b.items()]
        bucket = {}
        for m1, q1 in a.items():
            n1, d1 = q1.numerator, q1.denominator
            for m2, n2, d2 in bt:
                m = memo.get((m1, m2))
                if m is None:
                    m = memo[m1, m2] = _mono_mul(m1, m2)
                num, den = n1 * n2, d1 * d2
                cur = bucket.get(m)
                if cur is None:
                    bucket[m] = [num, den]
                elif cur[1] == den:
                    cur[0] += num
                else:
                    cur[0] = cur[0] * den + num * cur[1]
                    cur[1] *= den
        terms += sum(1 for num, den in bucket.values() if Fraction(num, den))
    return terms


if __name__ == "__main__":
    t = time.perf_counter()
    kernel()
    print(json.dumps({"cal_s": time.perf_counter() - t}))
