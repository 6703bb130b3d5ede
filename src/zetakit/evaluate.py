"""Ground-truth numerical evaluation of the zeta function.

Three independent routes: direct series summation with an Euler-Maclaurin
tail, quadrature of the deformed contour representation (valid right of the
convergence exponent), and the fully continued representation (valid in the
strip covered by the asymptotic table).
"""

import cmath
import math
import warnings

import numpy as np

from .asym import classify_poles, l_asy_eval, ray_prefactor, ray_tail_derivative
from .catalog import CatalogModel, ZeroSequence
from .errors import (ConditioningWarning, DomainError, PoleError,
                     SlowConvergenceError, StripError)
from .kernels import log_psi_array
from .quadrature import euler_maclaurin_tail, quad_adaptive

_DEFAULT_QUAD_TOL = 1e-11


def _is_exact_integer(s: complex) -> bool:
    return s.imag == 0.0 and s.real == round(s.real)


def _tail_derivs(zeros: ZeroSequence, s: complex):
    """f, f', f''' for f(x) = g(x)^(-s) given the sequence's smooth tail g."""
    g, dg = zeros.g, zeros.dg

    def f(x):
        return np.asarray(g(np.asarray(x, dtype=float)), dtype=complex) ** (-s)

    def fp(x):
        g1, _, _ = dg(x)
        return -s * complex(g(x)) ** (-s - 1.0) * g1

    def fppp(x):
        g1, g2, g3 = dg(x)
        g0 = complex(g(x))
        return (-s * (s + 1.0) * (s + 2.0) * g0 ** (-s - 3.0) * g1 ** 3
                + 3.0 * s * (s + 1.0) * g0 ** (-s - 2.0) * g1 * g2
                - s * g0 ** (-s - 1.0) * g3)

    return f, fp, fppp


def zeta_series(zeros: ZeroSequence, s, n_terms: int, psi: float = math.pi) -> complex:
    """Direct summation of a_n^(-s) plus an Euler-Maclaurin tail estimate.

    The branch of the power is the cut-at-psi logarithm (default: principal).
    The head is one pairwise ``np.sum`` over the term array; the tail is
    ``euler_maclaurin_tail`` with the decay exponent p = s/alpha.  Requires
    Re(s) > alpha + 0.25 so the tail estimate is trustworthy.
    """
    s = complex(s)
    if s.real <= zeros.alpha + 0.25:
        raise SlowConvergenceError(
            f"Re s = {s.real} too close to the abscissa alpha = {zeros.alpha}; "
            "use the continued representation instead")
    vals = zeros.values(n_terms)
    if np.all(vals.imag == 0.0) and np.all(vals.real > 0.0):
        logs = np.log(vals.real).astype(complex)
    else:
        logs = log_psi_array(vals, psi)
    head = complex(np.sum(np.exp(-s * logs)))
    f, fp, fppp = _tail_derivs(zeros, s)
    tail = euler_maclaurin_tail(f, fp, fppp, n_terms + 1, s / zeros.alpha)
    return head + tail


def _geometric_points(a: float, b: float):
    pts = []
    t = a
    while t < b:
        pts.append(t)
        t *= 2.0
    return pts[1:]


def _circle_term(model: CatalogModel, s: complex, R: float, tol: float) -> complex:
    psi = model.asym.psi

    def integrand(theta):
        z = R * np.exp(1j * np.asarray(theta))
        ld = np.asarray(model.log_deriv(z), dtype=complex)
        return np.exp(-1j * s * np.asarray(theta)) * z * ld

    val = quad_adaptive(integrand, psi - 2.0 * math.pi, psi, abs_tol=tol)
    return -(R ** (-s)) / (2.0 * math.pi) * val


def _require_eval(model: CatalogModel):
    if model.log_deriv is None:
        raise DomainError(
            f"model {model.name!r} provides no pointwise evaluator; "
            "quadrature representations are unavailable")


def _default_radius(model: CatalogModel, R):
    if R is not None:
        if R <= 0:
            raise DomainError("R must be positive")
        if model.first_zero_modulus is not None and R >= model.first_zero_modulus:
            raise DomainError(
                f"R = {R} must stay below the smallest zero modulus "
                f"{model.first_zero_modulus}")
        return float(R)
    if model.first_zero_modulus is None:
        raise DomainError("model does not know its smallest zero; pass R explicitly")
    return 0.85 * model.first_zero_modulus


def _ray_representation(model: CatalogModel, asym, s: complex, R, t_max: float,
                        quad_tol, continued: bool) -> complex:
    """circle(R) + L_asy(a) + pref * int_R^T t^(-s) (e^{i psi} F'/F - [t >= a] D(t)) dt.

    D is ``ray_tail_derivative``, the derivative of the truncated asymptotic
    expansion of ln F along the ray, and L_asy(a) = ``l_asy_eval(asym, s, a)``
    its ray integral from a to infinity in closed form.  The continued
    representation subtracts D along the whole ray (a = R); the contour
    representation integrates the bare F'/F up to the cutoff T and adds only
    the tail past T in closed form (a = T).  T grows while the subtracted
    integrand still has signal above the differencing-roundoff floor, and
    never past ``t_max``.  At exact integers the sine prefactor annihilates
    every ray term, so the ray is skipped.
    """
    tol = _DEFAULT_QUAD_TOL if quad_tol is None else float(quad_tol)
    R = _default_radius(model, R)
    total = _circle_term(model, s, R, tol)
    if continued:
        total += l_asy_eval(asym, s, R)
    if _is_exact_integer(s):
        return total
    eipsi = cmath.exp(1j * asym.psi)

    def log_deriv(t):
        return np.asarray(model.log_deriv(t * eipsi), dtype=complex)

    def integrand(t, ld, subtract):
        if subtract:
            return t ** (-s) * (eipsi * ld - ray_tail_derivative(asym, t))
        return t ** (-s) * eipsi * ld

    def noise_floor(t, ld):
        # size of the quantities being differenced, times an ulp
        return float(np.max(t ** (-s.real) * np.abs(ld))) * 2e-16

    t_up = min(max(3.0 * R, 6.0), t_max)
    while t_up < t_max:
        pts = np.array([0.7 * t_up, t_up])
        ld = log_deriv(pts)         # once per probe, for the probe and its floor
        probe = float(np.max(np.abs(integrand(pts, ld, True))))
        if probe * t_up < 0.1 * tol or probe < 4.0 * noise_floor(pts, ld):
            break
        t_up *= 2.0
    t_up = min(t_up, t_max)
    # the floor at T is taken at T alone: the Taylor sums of Airy, PCF and CHF
    # truncate where the terms at the call's largest |z| are negligible, so
    # F'/F at T inside the probe pair can differ from it in the last bit
    t = np.array([t_up])
    eff_tol = max(tol, 3.0 * t_up * noise_floor(t, log_deriv(t)))
    if not continued:
        total += l_asy_eval(asym, s, t_up)
    ray = quad_adaptive(lambda t: integrand(t, log_deriv(t), continued), R, t_up,
                        abs_tol=eff_tol, initial_points=_geometric_points(R, t_up))
    return total + ray_prefactor(s, asym.psi) * ray


def contour_zeta(model: CatalogModel, s, R: float | None = None,
                 t_max: float = 400.0, quad_tol: float | None = None) -> complex:
    """Deformed-contour representation: circle integral plus ray integral.

    Valid for Re(s) > alpha.  The ray integral of F'/F runs to the cutoff
    found by the search (capped by ``t_max``); the tail past it comes from
    the asymptotic table in closed form.
    """
    _require_eval(model)
    s = complex(s)
    if s.real <= model.asym.alpha:
        raise DomainError("contour representation needs Re s > alpha")
    return _ray_representation(model, model.asym, s, R, t_max, quad_tol, continued=False)


def continued_zeta(model: CatalogModel, s, R: float | None = None,
                   t_max: float = 400.0, quad_tol: float | None = None,
                   depth: int | None = None) -> complex:
    """Analytically continued representation Z_N + L_asy + Q.

    Valid in the strip Re(s) > alpha - N/m - delta.  ``depth`` optionally
    truncates the subtraction table (the same truncation is used in the
    closed-form block, so the identity is preserved).
    """
    _require_eval(model)
    s = complex(s)
    asym = model.asym if depth is None else model.asym.truncated(depth)
    if s.real <= asym.strip_left_edge():
        raise StripError(
            f"Re s = {s.real} is left of the strip edge {asym.strip_left_edge():.3f}; "
            "increase the model depth")
    report = classify_poles(asym)
    for p in report.poles:
        dist = abs(s - p.location)
        if dist < 1e-12:
            raise PoleError(p.location, p.order, p.residue)
        if dist < 1e-3:
            warnings.warn(
                f"s = {s} is within {dist:.1e} of the pole at {p.location}; "
                "conditioning is poor", ConditioningWarning, stacklevel=2)
    return _ray_representation(model, asym, s, R, t_max, quad_tol, continued=True)
