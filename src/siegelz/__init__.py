"""Exact and numeric cross-checks for a Siegel threefold attached to the
Fermat quartic: theta constants, point counts over prime fields, a CM
newform built three ways, local L-factors, and an explicit vector-valued
Eisenstein series of weight (3, 1)."""

from .arith import (
    GaussInt,
    IntPolynomial,
    QuarterSeries,
    gauss_primary_decompose,
    kronecker_char,
    series_mul,
)
from .cmform import EllipticQExpansion, a_p, g_expansion, hecke_residual, hecke_Tp_check
from .lfactors import (
    EulerFactor,
    ae_quartic,
    euler_factor,
    h2_lpoly,
    lefschetz_check,
    spin_identity_check,
)
from .pointcount import (
    count_variety,
    verify_birational_map,
    verify_boundary_lines,
    verify_count_formulas,
)
from .soudry import EzConvention, ez_eval, ez_phi_match, ez_two_form_check, resolve_ez_convention
from .theta import (
    FZ_TUPLE,
    even_characteristics,
    fz_expansion,
    gammaZ_generators,
    orbit_decomposition,
    parity,
    phi_after_g0,
    phi_characteristics,
    phi_of_theta_product,
    table1_char,
    theta_eval,
    theta_expansion,
    theta_values,
    verify_igusa_transformation,
)

__all__ = [
    "GaussInt", "IntPolynomial", "QuarterSeries", "gauss_primary_decompose",
    "kronecker_char", "series_mul",
    "EllipticQExpansion", "a_p", "g_expansion", "hecke_residual",
    "hecke_Tp_check",
    "EulerFactor", "ae_quartic", "euler_factor", "h2_lpoly",
    "lefschetz_check", "spin_identity_check",
    "count_variety", "verify_birational_map",
    "verify_boundary_lines", "verify_count_formulas",
    "EzConvention", "ez_eval", "ez_phi_match", "ez_two_form_check",
    "resolve_ez_convention",
    "FZ_TUPLE", "even_characteristics",
    "fz_expansion", "gammaZ_generators",
    "orbit_decomposition", "parity", "phi_after_g0", "phi_characteristics",
    "phi_of_theta_product", "table1_char", "theta_eval", "theta_expansion",
    "theta_values", "verify_igusa_transformation",
]

__version__ = "0.1.0"
