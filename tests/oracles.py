"""Naive reference algorithms, kept outside the package to cross-check its kernels."""

import math

from faberfields.series import LaurentSeries, ps_compose, ps_div, z_series


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
        err = ps_compose(a, g.truncate(n)) - ident
        if err.is_zero():
            break
        g = g - ps_div(err, ps_compose(da, g.truncate(n)))
    return g.truncate(n)
