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
from .quadrature import euler_maclaurin_tail, quad_adaptive

_DEFAULT_QUAD_TOL = 1e-11


def zeta_series(zeros: ZeroSequence, s, n_terms: int, psi: float = math.pi) -> complex:
    """Direct summation of a_n^(-s) plus an Euler-Maclaurin tail estimate.

    The branch of the power is the cut-at-psi logarithm (default: principal).
    The head is one pairwise ``np.sum`` over the term array; the tail is
    ``euler_maclaurin_tail`` of f = g^(-s) with the decay exponent
    p = s/alpha.  Only the s-dependent work runs per call: the log table of
    the a_n and ``tail_table(N)`` are memoized on the sequence (see
    ``ZeroSequence``), so f on the tail's node array, recognized by
    identity, is a power of the stored g.  Requires n_terms >= 0,
    Re(s) > alpha + 0.25, and Re g(N) >= 1 at the tail's start
    N = n_terms + 1 (the last stored g), so the tail estimate is
    trustworthy; else it raises ``DomainError`` before summing.
    """
    s = complex(s)
    if n_terms < 0:
        raise DomainError("n_terms must be >= 0")
    if s.real <= zeros.alpha + 0.25:
        raise SlowConvergenceError(
            f"Re s = {s.real} too close to the abscissa alpha = {zeros.alpha}; "
            "use the continued representation instead")
    n = n_terms + 1
    nodes, g_nodes = zeros.tail_table(n)
    g_start = g_nodes[-1].real
    if not g_start >= 1.0:
        raise DomainError(
            f"the Euler-Maclaurin tail from N = {n} starts at Re g(N) = {g_start:.6g} "
            "< 1; sum more terms directly (raise n_terms)")

    def f(x):
        return (g_nodes if x is nodes else np.asarray(zeros.g(x), dtype=complex)) ** (-s)

    head = complex(np.sum(np.exp(-s * zeros.log_table(n_terms, psi))))
    tail = euler_maclaurin_tail(f, n, s / zeros.alpha)
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
    its ray integral from the split point a to infinity in closed form.  The
    continued representation takes a = max(R, 1): the table terms grow like
    t^(-N/m) toward 0, where L_asy and the ray would cancel digits, and the
    bare F'/F on [R, a) is a finite integral.  The contour representation
    takes a = T, so it shares no subtracted term with the continued one.  The
    cutoff T grows while the subtracted integrand still has signal above the
    differencing-roundoff floor, and never past ``t_max``.  Where the
    prefactor ``ray_prefactor`` is 0 (at exact integers) the ray is skipped
    and a = max(R, 1).
    """
    tol = _DEFAULT_QUAD_TOL if quad_tol is None else float(quad_tol)
    R = _default_radius(model, R)
    total = _circle_term(model, s, R, tol)
    split, ray = max(R, 1.0), 0.0
    pref = ray_prefactor(s, asym.psi)
    if pref != 0:
        eipsi = cmath.exp(1j * asym.psi)

        def log_deriv(t):
            return np.asarray(model.log_deriv(t * eipsi), dtype=complex)

        def integrand(t, ld, a):
            sub = t >= a
            tail = np.zeros_like(ld)
            if sub.any():
                tail[sub] = ray_tail_derivative(asym, t[sub])
            return t ** (-s) * (eipsi * ld - tail)

        def noise_floor(t, ld):
            # size of the quantities being differenced, times an ulp
            return float(np.max(t ** (-s.real) * np.abs(ld))) * 2e-16

        t_up = min(max(3.0 * R, 6.0), t_max)
        while t_up < t_max:
            pts = np.array([0.7 * t_up, t_up])
            ld = log_deriv(pts)         # once per probe, for the probe and its floor
            probe = float(np.max(np.abs(integrand(pts, ld, 0.0))))
            if probe * t_up < 0.1 * tol or probe < 4.0 * noise_floor(pts, ld):
                break
            t_up *= 2.0
        t_up = min(t_up, t_max)
        # the floor at T is taken at T alone: the Taylor sums of Airy, PCF
        # and CHF truncate where the terms at the call's largest |z| are
        # negligible, so F'/F at T in the probe pair can differ in the last bit
        t = np.array([t_up])
        eff_tol = max(tol, 3.0 * t_up * noise_floor(t, log_deriv(t)))
        split = split if continued else t_up
        ray = pref * quad_adaptive(
            lambda t: integrand(t, log_deriv(t), split), R, t_up, abs_tol=eff_tol,
            initial_points=[*_geometric_points(R, t_up), split])
    return total + l_asy_eval(asym, s, split) + ray


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
