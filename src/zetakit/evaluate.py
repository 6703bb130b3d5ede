"""Ground-truth numerical evaluation of the zeta function.

Three independent routes: direct series summation with an Euler-Maclaurin
tail, quadrature of the deformed contour representation (valid right of the
convergence exponent), and the fully continued representation (valid in the
strip covered by the asymptotic table).
"""

import cmath
import math
import os
import warnings

import numpy as np

from .asym import classify_poles, l_asy_eval, ray_prefactor, ray_tail_derivative
from .catalog import CatalogModel, ZeroSequence
from .errors import (AccuracyError, ConditioningWarning, DomainError,
                     PoleError, SlowConvergenceError, StripError)
from .kernels import fsum_complex, log_psi
from .quadrature import euler_maclaurin_tail, quad_adaptive

_DEFAULT_QUAD_TOL = 1e-11


def _quad_tol(override):
    if override is not None:
        return float(override)
    env = os.environ.get("ZETAKIT_QUAD_TOL")
    return float(env) if env else _DEFAULT_QUAD_TOL


def _is_exact_integer(s: complex) -> bool:
    return s.imag == 0.0 and s.real == round(s.real)


def _tail_derivs(tail_fn, s: complex):
    """f, f', f''' for f(x) = g(x)^(-s) given the tuple-valued tail_fn."""

    def f(x):
        g = tail_fn(np.asarray(x, dtype=float))[0]
        return np.asarray(g, dtype=complex) ** (-s)

    def fp(x):
        g, g1, _, _ = tail_fn(x)
        return -s * complex(g) ** (-s - 1.0) * g1

    def fppp(x):
        g, g1, g2, g3 = tail_fn(x)
        g = complex(g)
        return (-s * (s + 1.0) * (s + 2.0) * g ** (-s - 3.0) * g1 ** 3
                + 3.0 * s * (s + 1.0) * g ** (-s - 2.0) * g1 * g2
                - s * g ** (-s - 1.0) * g3)

    return f, fp, fppp


def zeta_series(zeros: ZeroSequence, s, n_terms: int, psi: float = math.pi) -> complex:
    """Direct summation of a_n^(-s) plus an Euler-Maclaurin tail estimate.

    The branch of the power is the cut-at-psi logarithm (default: principal).
    Requires Re(s) > alpha + 0.25 so the tail estimate is trustworthy.
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
        logs = np.array([log_psi(v, psi) for v in vals])
    head = fsum_complex(np.exp(-s * logs))
    f, fp, fppp = _tail_derivs(zeros.tail_fn, s)
    tail = euler_maclaurin_tail(f, fp, fppp, n_terms + 1)
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


def contour_zeta(model: CatalogModel, s, R: float | None = None,
                 t_max: float = 400.0, quad_tol: float | None = None) -> complex:
    """Deformed-contour representation: ray integral plus circle integral.

    Valid for Re(s) > alpha.  At integer s the sine prefactor annihilates
    the ray term exactly and only the circle survives.
    """
    _require_eval(model)
    s = complex(s)
    asym = model.asym
    if s.real <= asym.alpha:
        raise DomainError("contour representation needs Re s > alpha")
    tol = _quad_tol(quad_tol)
    R = _default_radius(model, R)
    psi = asym.psi
    total = _circle_term(model, s, R, tol)
    pref = ray_prefactor(s, psi)
    if not _is_exact_integer(s):
        eipsi = cmath.exp(1j * psi)

        def integrand(t):
            t = np.asarray(t, dtype=float)
            ld = np.asarray(model.log_deriv(t * eipsi), dtype=complex)
            return t ** (-s) * eipsi * ld

        ray = quad_adaptive(integrand, R, t_max, abs_tol=tol,
                            initial_points=_geometric_points(R, t_max))
        total += pref * ray
        edge = abs(pref) * abs(complex(integrand(np.array([t_max]))[0]))
        if edge > 1e-12 * max(abs(total), 1e-30):
            raise AccuracyError(
                f"ray integrand at t_max={t_max} is {edge:.2e}, not negligible "
                "against the accumulated value; increase t_max")
    return total


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
    tol = _quad_tol(quad_tol)
    R = _default_radius(model, R)
    psi = asym.psi
    total = _circle_term(model, s, R, tol)
    total += l_asy_eval(asym, s, R)
    pref = ray_prefactor(s, psi)
    if not _is_exact_integer(s):
        eipsi = cmath.exp(1j * psi)

        def integrand(t):
            t = np.asarray(t, dtype=float)
            ld = np.asarray(model.log_deriv(t * eipsi), dtype=complex)
            return t ** (-s) * (eipsi * ld - ray_tail_derivative(asym, t))

        def noise_floor(t):
            # size of the quantities being differenced, times an ulp
            t = np.asarray(t, dtype=float)
            ld = np.asarray(model.log_deriv(t * eipsi), dtype=complex)
            return float(np.max(t ** (-s.real) * np.abs(ld))) * 2e-16

        # extend the cutoff only while the subtracted integrand still has
        # signal above the differencing-roundoff floor
        t_up = min(max(3.0 * R, 6.0), t_max)
        while t_up < t_max:
            pts = np.array([0.7 * t_up, t_up])
            probe = float(np.max(np.abs(integrand(pts))))
            if probe * t_up < 0.1 * tol or probe < 4.0 * noise_floor(pts):
                break
            t_up *= 2.0
        t_up = min(t_up, t_max)
        eff_tol = max(tol, 3.0 * t_up * noise_floor(np.array([t_up])))
        ray = quad_adaptive(integrand, R, t_up, abs_tol=eff_tol,
                            initial_points=_geometric_points(R, t_up))
        total += pref * ray
    return total
