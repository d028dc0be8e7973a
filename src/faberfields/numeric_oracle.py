"""Floating-point cross-checks of the exact suites.

Two independent oracles:

* a trapezoidal contour quadrature of the residue representation

      f(z)^2/(2 i pi) * integral  xi^2 f'(xi)^2 / f(xi)^2
                                  * 1/(f(xi) - f(z)) * dxi / xi^{p+1}
          = phi_p(z) + z^{1-p} f'(z),

  run on a circle |xi| = r strictly inside the univalence domain of a
  numeric seed with closed-form f and f' (the integrand is holomorphic in an
  annulus once the poles at 0 and z are enclosed, so the trapezoid rule
  converges geometrically and boundary smoothness never enters);

* random specialization sweeps: every exact identity suite is polynomial in
  the seed coefficients, so it may be evaluated at arbitrary bounded complex
  coefficient vectors and must hold to floating accuracy.

Each oracle computes its shared quantities once.  The contour makes one pass
over its 2M nodes for all p of a run: each node's xi, s(xi) and f(xi) - f(z)
feed every p's 2M-node sum, and the even nodes, which are the M-node grid,
also feed its M-node sum.  The sweep numbers the monomials of all pairs once
(``polyring.MonoPlan``) and only fills the plan's value table at each draw.
A pair whose two sides are one polynomial term for term cannot fail at any
draw, so it takes no slot in the plan: at order 5 the plan holds 4,616 term
slots, where both sides of every pair would hold 48,892.  Everything here is
pure.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .faberkernel import lambda_direct
from .polyring import MonoPlan
from .reports import CheckCell, CheckReport, IdentityPair

#: The contour check's bound on |quadrature - symbolic side|, and its bound on
#: |quadrature(M) - quadrature(2M)| below which the quadrature has converged.
CONTOUR_TOLERANCE = 1e-9
CONTOUR_SELF_TOLERANCE = 1e-11

#: The numeric sweep's draws: draw d is ``random_seed(SWEEP_RNG_SEED + d,
#: SWEEP_BOUND)``, and each side must agree to the relative ``SWEEP_TOL``.
SWEEP_RNG_SEED = 2024
SWEEP_BOUND = 0.5
SWEEP_TOL = 1e-12


@dataclass(frozen=True)
class NumericSeed:
    """A concrete coefficient assignment with optional closed-form evaluators."""

    name: str
    coeff: Callable[[int], object]          # n -> value of c_n (exact or complex)
    f: Callable[[complex], complex] | None = None
    fprime: Callable[[complex], complex] | None = None
    univalence_radius: float = float("inf")

    def coeff_map(self, nmax: int) -> dict[int, object]:
        return {n: self.coeff(n) for n in range(1, nmax + 1)}


def zero_seed() -> NumericSeed:
    """The identity seed f(z) = z."""
    return NumericSeed(
        name="zero",
        coeff=lambda n: Fraction(0),
        f=lambda x: x,
        fprime=lambda x: 1.0 + 0j,
        univalence_radius=float("inf"),
    )


def koebe_seed(rho) -> NumericSeed:
    """Scaled Koebe seed: c_n = (n+1) rho^n, f(z) = z/(1 - rho z)^2.

    Exact rational rho keeps the coefficient values exact; univalent for
    |z| < 1/|rho|.
    """
    rho = Fraction(rho) if not isinstance(rho, Fraction) else rho
    rf = float(rho)

    def f(x):
        return x / (1 - rf * x) ** 2

    def fprime(x):
        return (1 + rf * x) / (1 - rf * x) ** 3

    return NumericSeed(
        name=f"koebe(rho={rho})",
        coeff=lambda n: (n + 1) * rho ** n,
        f=f,
        fprime=fprime,
        univalence_radius=float("inf") if rho == 0 else 1.0 / abs(rf),
    )


def random_seed(seed: int, bound: float = 0.5, nmax: int = 64) -> NumericSeed:
    """Random complex coefficients with |c_n| <= (n+1) * bound.

    Suitable for polynomial-identity sweeps; carries no closed-form
    evaluator, so it cannot feed the contour oracle.
    """
    rng = random.Random(seed)
    values = {}
    for n in range(1, nmax + 1):
        radius = (n + 1) * bound * rng.random()
        angle = 2 * cmath.pi * rng.random()
        values[n] = radius * cmath.exp(1j * angle)

    def coeff(n: int):
        try:
            return values[n]
        except KeyError:
            raise IndexError(f"random seed tabulated only up to c{nmax}") from None

    return NumericSeed(name=f"random({seed})", coeff=coeff)


@dataclass(frozen=True)
class ContourReport:
    p: int
    z: complex
    r: float
    M: int
    lhs: complex          # quadrature value at M nodes
    rhs: complex          # symbolic residue form, specialized
    gap: float
    self_gap: float       # |quadrature(M) - quadrature(2M)|

    @property
    def converged(self) -> bool:
        return self.self_gap <= CONTOUR_SELF_TOLERANCE

    @property
    def ok(self) -> bool:
        return self.converged and self.gap <= CONTOUR_TOLERANCE

    @property
    def status(self) -> str:
        if not self.converged:
            return "non-converged"
        return "ok" if self.gap <= CONTOUR_TOLERANCE else "mismatch"

    def to_json_obj(self) -> dict:
        return {
            "check": "contour",
            "p": self.p,
            "z": [self.z.real, self.z.imag],
            "r": self.r,
            "M": self.M,
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "gap": self.gap,
            "self_gap": self.self_gap,
            "status": self.status,
        }


def contour_check(seed: NumericSeed, ps: Iterable[int], z: complex, r: float,
                  M: int) -> list[ContourReport]:
    """Quadrature versus the specialized symbolic side phi_p(z) + z^(1-p) f'(z),
    one report for each p of ``ps``, in order.

    One pass over the 2M trapezoid nodes ``xi_k = r exp(2 i pi k / 2M)`` on
    |xi| = r serves every p: at each node, xi, s(xi) = (xi f'(xi)/f(xi))^2
    and f(xi) - f(z) are computed once, and ``s / ((f(xi) - f(z)) xi^p)``
    is added to each p's 2M-node sum and, at even k, to its M-node sum.  The
    even nodes are the M-node grid bit for bit, so both quadratures equal
    separate M- and 2M-node runs.  No node is stored.

    The quadrature is accepted only if doubling the node count moves it by
    less than ``CONTOUR_SELF_TOLERANCE``; otherwise the report carries
    status ``non-converged`` rather than ``mismatch``.  phi_p has a pole of
    order p - 1 at 0, so z = 0 is refused when some p >= 2.
    """
    ps = list(ps)
    if M < 1:
        raise ValueError(f"need M >= 1 quadrature nodes, got {M}")
    if seed.f is None or seed.fprime is None:
        raise ValueError(f"seed {seed.name} has no closed-form evaluators")
    if not (abs(z) < r < seed.univalence_radius):
        raise ValueError(
            f"need |z| < r < univalence radius, got |z|={abs(z)}, r={r}, "
            f"radius={seed.univalence_radius}")
    if z == 0 and any(p >= 2 for p in ps):
        raise ValueError(f"z = 0 is a pole of phi_{min(p for p in ps if p >= 2)}")
    fz = seed.f(z)
    sums = [0j] * len(ps)
    sums2 = [0j] * len(ps)
    for k in range(2 * M):
        xi = r * cmath.exp(2j * cmath.pi * k / (2 * M))
        fxi = seed.f(xi)
        s = (xi * seed.fprime(xi) / fxi) ** 2
        df = fxi - fz
        even = not k % 2
        for i, p in enumerate(ps):
            term = s / (df * xi ** p)
            sums2[i] += term
            if even:
                sums[i] += term
    reports = []
    for p, total, total2 in zip(ps, sums, sums2):
        lhs = fz * fz * total / M
        lhs2 = fz * fz * total2 / (2 * M)
        lam = lambda_direct(p).poly(p)
        values = seed.coeff_map(max((c.max_variable() for c in lam.entries.values()),
                                    default=0))
        rhs = 0j
        for e, cpoly in lam.entries.items():
            rhs += complex(cpoly.specialize(values)) * fz ** e
        rhs += z ** (1 - p) * seed.fprime(z)
        reports.append(ContourReport(
            p=p, z=complex(z), r=float(r), M=M,
            lhs=lhs, rhs=rhs,
            gap=abs(lhs - rhs),
            self_gap=abs(lhs - lhs2),
        ))
    return reports


def _relative_ok(lhs: complex, rhs: complex) -> tuple[bool, float]:
    gap = abs(lhs - rhs)
    scale = max(1.0, abs(lhs), abs(rhs))
    return gap <= SWEEP_TOL * scale, gap / scale


def _same_terms(a, b) -> bool:
    """True when a and b are one polynomial term for term: equal terms in the
    same order, so a - b is identically zero."""
    return a is b or list(a.terms.items()) == list(b.terms.items())


def numeric_identity_sweep(pairs: Iterable[IdentityPair],
                           draws: int = 25) -> CheckReport:
    """Specialize identity pairs at random bounded coefficient vectors.

    Any specialization is valid because both sides are polynomials in the
    seed coefficients; each draw/suite cell passes when every pair of that
    suite holds within the relative tolerance ``SWEEP_TOL``.  No pair or no
    draw would report an empty pass, so either raises.

    A pair whose sides are the same polynomial term for term
    (``_same_terms``) has lhs - rhs identically zero, so no draw can fail it:
    it takes no slot in the plan and adds nothing to its cell's test, and a
    cell whose pairs are all such passes.  Both sides of every other pair,
    equal sides in another term order included, are numbered once with all
    the others (``polyring.MonoPlan``), and each draw fills the plan's value
    table once and sums every side from it, which is exactly ``specialize``
    of each side at that draw.
    """
    if draws < 1:
        raise ValueError(f"numeric-sweep: need draws >= 1, got {draws}")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("numeric-sweep: no identity pair, so no cell to check")
    # Each suite's checked pairs, as (pair index, lhs slot); rhs is the next.
    by_suite: dict[str, list[tuple[int, int]]] = {}
    sides: list = []
    for i, pair in enumerate(pairs):
        checked = by_suite.setdefault(pair.suite, [])
        if not _same_terms(pair.lhs, pair.rhs):
            checked.append((i, len(sides)))
            sides += (pair.lhs, pair.rhs)
    plan = MonoPlan(sides)
    nmax = max([1, *(side.max_variable() for side in sides)])
    cells: list[CheckCell] = []
    for d in range(draws):
        seed = random_seed(SWEEP_RNG_SEED + d, bound=SWEEP_BOUND, nmax=nmax)
        values = plan.evaluate(seed.coeff_map(nmax))
        for suite_name in sorted(by_suite):
            detail = ""
            for i, k in by_suite[suite_name]:
                ok, rel = _relative_ok(complex(values[k]), complex(values[k + 1]))
                if not ok:
                    detail = f"{pairs[i].label()} off by relative {rel:.3e} at {seed.name}"
                    break
            ok = not detail
            cells.append(CheckCell(
                (("draw", d),) + (("suite", suite_name),), ok, detail))
    return CheckReport("numeric-sweep", tuple(cells))
