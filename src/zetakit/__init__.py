"""zetakit: zeta functions of complex sequences.

Computes special values, pole locations, residues, and the derivative at 0
of the zeta function attached to a sequence of complex numbers, starting
from a characteristic function's Taylor coefficients at the origin and its
large-argument logarithmic asymptotic coefficients.  Everything is
cross-checkable numerically through direct summation, contour quadrature,
and rational (barycentric) continuation.
"""

__version__ = "0.1.0"

from .aaa import BarycentricModel, aaa_fit, bary_eval, derivative_at, find_real_features
from .asym import (AsymExpansion, PoleInfo, PoleReport, classify_poles,
                   l_asy_eval, log_compose, zeta_int_leq_alpha, zeta_prime_zero)
from .catalog import (CatalogModel, ZeroSequence, airy_model, airy_zeros,
                      chf_model, hurwitz_model, model_from_spec, pcf_model,
                      riemann_model)
from .errors import (AccuracyError, ConditioningWarning, DivergenceError,
                     DomainError, PoleError, RefinementError,
                     SlowConvergenceError, StripError, UnsupportedOrderError,
                     ZetakitError)
from .evaluate import contour_zeta, continued_zeta, zeta_series
from .kernels import (EULER_GAMMA, bernoulli_number, bernoulli_poly_row,
                      digamma_polygamma, gamma, log_psi_array)
from .quadrature import euler_maclaurin_tail, quad_adaptive
from .series import (PowerSeries, exact_sum_rule, hadamardize, log_coeffs,
                     zeta_via_bell)
from .shift import omega_table, shifted_values

__all__ = [
    "AsymExpansion", "BarycentricModel", "CatalogModel", "PoleInfo", "PoleReport",
    "PowerSeries", "ZeroSequence", "aaa_fit", "airy_model", "airy_zeros",
    "bary_eval", "bernoulli_number", "bernoulli_poly_row", "chf_model",
    "classify_poles", "contour_zeta", "continued_zeta", "derivative_at",
    "digamma_polygamma", "euler_maclaurin_tail", "exact_sum_rule",
    "find_real_features", "gamma", "hadamardize", "hurwitz_model", "l_asy_eval",
    "log_coeffs", "log_compose", "log_psi_array", "model_from_spec", "omega_table",
    "pcf_model", "quad_adaptive", "riemann_model", "shifted_values",
    "zeta_int_leq_alpha", "zeta_prime_zero", "zeta_series", "zeta_via_bell",
    "EULER_GAMMA", "ZetakitError", "DomainError", "UnsupportedOrderError",
    "PoleError", "StripError", "AccuracyError", "SlowConvergenceError",
    "DivergenceError", "RefinementError", "ConditioningWarning",
]
