"""Cross-validation against sympy as a fully independent series engine.

These tests rebuild a handful of tables from scratch with sympy's symbolic
series machinery and compare coefficientwise.  They complement the internal
dual-route checks: a systematic bug in the in-house series layer would slip
past two routes that share it, but not past an external engine.  Sizes are
kept small; sympy is much slower than the exact engine on these objects.
"""

import pytest

sp = pytest.importorskip("sympy")

import faberfields as ff
from faberfields.kirillov import inverse_deriv_coeffs
from faberfields.polyring import mono_pairs

N = 5
NG = 4  # the Grunsky oracle's table size; beta_{n,k} reads c_1 .. c_{n+k}
z, w, u, xi = sp.symbols("z w u xi")
CS = sp.symbols(f"c1:{max(N + 1, 2 * NG) + 1}")


def to_sympy(p):
    total = 0
    for m, q in p.terms.items():
        term = sp.Rational(q.numerator, q.denominator)
        for j, e in mono_pairs(m):
            term *= CS[j - 1] ** e
        total += term
    return sp.expand(total)


@pytest.fixture(scope="module")
def seed():
    f = z * (1 + sum(CS[n] * z ** (n + 1) for n in range(N + 1)))
    return f, sp.diff(f, z)


def test_faber_family(seed):
    f, fp = seed
    gen = sp.series(z * fp / (f - w * f ** 2), z, 0, N + 1).removeO()
    fam = ff.faber_polys(N)
    for n in range(1, N + 1):
        mine = sum(to_sympy(fam.poly(n).coefficient(k)) * w ** k
                   for k in range(n + 1))
        assert sp.expand(gen.coeff(z, n) - mine) == 0


def test_t_family(seed):
    f, fp = seed
    gen = sp.series(z * fp ** 2 / (f - w * f ** 2), z, 0, N + 1).removeO()
    fam = ff.t_polys(N)
    for n in range(1, N + 1):
        mine = sum(to_sympy(fam.poly(n).coefficient(k)) * w ** k
                   for k in range(n + 1))
        assert sp.expand(gen.coeff(z, n) - mine) == 0


def test_diagonal(seed):
    f, fp = seed
    gen = sp.series(z ** 2 * fp ** 2 / f ** 2, z, 0, N + 1).removeO()
    diag = ff.diag_a(N)
    for p in range(1, N + 1):
        assert sp.expand(gen.coeff(z, p) - to_sympy(diag.poly(p))) == 0


def test_lambda_family(seed):
    f, fp = seed
    P = 3
    fxi = f.subs(z, xi)
    fpxi = fp.subs(z, xi)
    inner = -sum(fxi ** m / u ** (m + 1) for m in range(P + 1))
    gen = sp.expand(sp.series(xi ** 2 * fpxi ** 2 / fxi ** 2 * u ** 2 * inner,
                              xi, 0, P + 1).removeO())
    fam = ff.lambda_direct(P)
    for p in range(P + 1):
        mine = sum(to_sympy(c) * u ** e for e, c in fam.poly(p).entries.items())
        assert sp.expand(gen.coeff(xi, p) - mine) == 0


def test_grunsky_small():
    # log[(1/f(u) - 1/f(v)) / (1/u - 1/v)] = -sum (1/n) beta_{n,k} u^n v^k,
    # expanded step by step.  beta_{n,k} with n, k <= NG reads the seed
    # through c_{2 NG}, and 1/f through z^(2 NG).  The difference quotient of
    # 1/f is a polynomial 1 + X with every term of X divisible by u v, so
    # log(1 + X) = sum_j (-1)^(j+1) X^j / j needs only j <= NG.
    uu, vv = sp.symbols("uu vv")
    f = z * (1 + sum(CS[n - 1] * z ** n for n in range(1, 2 * NG + 1)))
    r = sp.series(1 / f, z, 0, 2 * NG + 1).removeO()
    quotient = sp.cancel((r.subs(z, uu) - r.subs(z, vv)) / (1 / uu - 1 / vv))

    def cut(p):
        """p without its terms u^i v^j with i > NG or j > NG."""
        return sp.Poly.from_dict({m: c for m, c in p.as_dict().items() if max(m) <= NG},
                                 uu, vv, domain=p.domain)

    X = cut(sp.Poly(quotient - 1, uu, vv, domain=sp.QQ[CS]))
    log, power = X * 0, X ** 0
    for j in range(1, NG + 1):
        power = cut(power * X)
        log += power * sp.Rational((-1) ** (j + 1), j)
    table = ff.grunsky_log(NG, NG)
    for n in range(1, NG + 1):
        for k in range(1, NG + 1):
            want = sp.expand(log.coeff_monomial(uu ** n * vv ** k).as_expr() * (-n))
            assert sp.expand(want - to_sympy(table.beta(n, k))) == 0, (n, k)


def test_reversion_composes(seed):
    f, _ = seed
    g = ff.ps_reversion(ff.seed_series(N))
    gz = sum(to_sympy(g.coefficient(k)) * z ** k for k in range(N + 1))
    comp = sp.expand(sp.series(f.subs(z, gz), z, 0, N + 1).removeO())
    assert sp.expand(comp - z) == 0


def test_inverse_derivative(seed):
    _, fp = seed
    inv = sp.series(1 / fp, z, 0, N + 1).removeO()
    bs = inverse_deriv_coeffs(N)
    for n in range(N + 1):
        assert sp.expand(sp.expand(inv.coeff(z, n)) - to_sympy(bs[n])) == 0


def test_a_field_row(seed):
    f, fp = seed
    p = 2
    lam = ff.lambda_direct(p).poly(p)
    lam_f = sum(to_sympy(c) * f ** e for e, c in lam.entries.items())
    expr = sp.cancel(sp.together(z ** (1 - p) * fp + lam_f))
    ser = sp.expand(sp.series(expr, z, 0, 5).removeO())
    table = ff.a_field_direct(p, 3)
    for m in range(1 - p, 2):
        assert sp.expand(ser.coeff(z, m)) == 0
    for n in range(1, 4):
        assert sp.expand(ser.coeff(z, n + 1) - to_sympy(table.A(p, n))) == 0
