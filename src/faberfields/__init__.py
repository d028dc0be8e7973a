"""Exact computer algebra for Faber polynomials, Grunsky coefficients and
Kirillov-type vector fields on the coefficients of univalent power series."""

from .polyring import CoeffPoly, MissingVariableError, Monomial, c
from .series import (
    BiSeries,
    LaurentSeries,
    LaurentWPoly,
    OrderError,
    WPoly,
    divided_difference,
    laurent_pow,
    laurent_recip,
    ps_compose,
    ps_log,
    ps_reversion,
    seed_series,
)
from .faberkernel import (
    AFieldTable,
    DiagonalCoeffs,
    EliminationError,
    FaberFamily,
    GrunskyTable,
    LambdaFamily,
    TFamily,
    a_field_direct,
    a_field_grunsky,
    clear_caches,
    diag_a,
    diag_a_grunsky,
    faber_polys,
    grunsky_compose,
    grunsky_log,
    grunsky_symmetry_check,
    lambda_direct,
    lambda_from_t,
    phi_p,
    t_from_faber,
    t_polys,
)
from .kirillov import (
    Derivation,
    check_negative_action,
    check_thm42,
    inverse_deriv_coeffs,
    lemma41_check,
    make_L,
    negative_action_report,
    partial_derivation,
    sample_polynomials,
)
from .inversion import (
    ReverseSeriesTable,
    check_thm51_positive,
    check_thm51_zero_and_negative,
    reverse_table,
    unique_elimination_check,
)
from .numeric_oracle import (
    NumericSeed,
    contour_check,
    koebe_seed,
    numeric_identity_sweep,
    random_seed,
    zero_seed,
)
from .reports import CheckCell, CheckReport, IdentityPair

__version__ = "0.1.0"
