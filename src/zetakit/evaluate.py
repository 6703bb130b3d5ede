"""Ground-truth numerical evaluation of the zeta function.

Three independent routes: direct series summation with an Euler-Maclaurin
tail, quadrature of the deformed contour representation (valid right of the
convergence exponent), and the fully continued representation (valid in the
strip covered by the asymptotic table).  All three take a_n^(-s) on one
branch, the cut psi of the model's ray, which a catalog sequence carries.
"""

import cmath
import math

import numpy as np

from .asym import l_asy_eval, ray_prefactor, ray_tail_derivative
from .catalog import CatalogModel, ZeroSequence
from .errors import AccuracyError, DomainError, SlowConvergenceError, StripError
from .quadrature import euler_maclaurin_tail, quad_adaptive

_DEFAULT_QUAD_TOL = 1e-11
_MAX_HEAD = 100_000     # the most terms zeta_series adds to its head for the tail


def zeta_series(zeros: ZeroSequence, s, n_terms: int) -> complex:
    """Direct summation of a_n^(-s) plus an Euler-Maclaurin tail estimate.

    The head, n <= max(n_terms, n_exact) so every refined element is summed
    directly, is one pairwise ``np.sum`` with the power cut at the sequence's
    ``psi``, the branch of its model's contour routes.  The tail from N past
    it is ``euler_maclaurin_tail`` of h = q^(-s), p = s/alpha; while it
    refuses N (its error estimate), the head grows to 2N - 1 terms.  The log
    table of the a_n and ln q on each circle are memoized on the sequence
    (see ``ZeroSequence``).  Requires n_terms >= 0 and Re(s) > alpha + 0.25;
    else it raises before summing.
    """
    s = complex(s)
    if n_terms < 0:
        raise DomainError("n_terms must be >= 0")
    if s.real <= zeros.alpha + 0.25:
        raise SlowConvergenceError(
            f"Re s = {s.real} too close to the abscissa alpha = {zeros.alpha}; "
            "use the continued representation instead")
    count = max(n_terms, zeros.n_exact)
    while True:
        log_q, real_q = zeros.log_q(count + 1)
        head = complex(np.sum(np.exp(-s * zeros.log_table(count))))
        try:
            return head + euler_maclaurin_tail(
                np.exp(-s * log_q), count + 1, s / zeros.alpha, zeros.m,
                real=real_q and s.imag == 0.0)
        except AccuracyError:
            if count >= _MAX_HEAD:
                raise
            count = 2 * count + 1


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


def _zeros_inside(model: CatalogModel, R: float) -> int:
    """The number of zeros of F inside |z| = R by the argument principle: the
    mean of z F'/F over k equispaced points, k doubling from 64 until it is
    finite, below k in modulus and within 1e-3 of an integer.  DomainError
    when 4096 points do not get there: a zero or a pole lies on or close to
    the circle, or F'/F is not accurate on it."""
    for k in 64 * 2 ** np.arange(7):
        z = R * np.exp(2j * math.pi * np.arange(k) / k)
        with np.errstate(divide="ignore", invalid="ignore"):    # a sample on a pole
            count = complex(np.mean(z * model.log_deriv(z)))
        if abs(count) < k and abs(count - round(count.real)) <= 1e-3:
            return round(count.real)
    raise DomainError(f"the zero count inside |z| = {R} did not settle at 4096 points; "
                      "choose another R")


def _default_radius(model: CatalogModel, R):
    if R is not None:
        if R <= 0:
            raise DomainError("R must be positive")
        if model.first_zero_modulus is not None and R >= model.first_zero_modulus:
            raise DomainError(
                f"R = {R} must stay below the smallest zero modulus "
                f"{model.first_zero_modulus}")
        if model.first_zero_modulus is None and (inside := _zeros_inside(model, float(R))):
            raise DomainError(f"the circle |z| = {R} encloses {inside} zeros of F; "
                              "pass a smaller R")
        return float(R)
    if model.first_zero_modulus is None:
        raise DomainError("model does not know its smallest zero; pass R explicitly")
    return 0.85 * model.first_zero_modulus


def _ray_representation(model: CatalogModel, s: complex, R, t_max: float,
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
    asym = model.asym
    tol = _DEFAULT_QUAD_TOL if quad_tol is None else float(quad_tol)
    R = _default_radius(model, R)
    split, ray = max(R, 1.0), 0.0
    pref = ray_prefactor(s, asym.psi)
    # the closed form first where the split is known: a pole raises before any quadrature
    closed = l_asy_eval(asym, s, split) if continued or pref == 0 else None
    total = _circle_term(model, s, R, tol)
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
        if not continued:
            split = t_up
            closed = l_asy_eval(asym, s, split)
        ray = pref * quad_adaptive(
            lambda t: integrand(t, log_deriv(t), split), R, t_up, abs_tol=eff_tol,
            initial_points=[*_geometric_points(R, t_up), split])
    return total + closed + ray


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
    return _ray_representation(model, s, R, t_max, quad_tol, continued=False)


def continued_zeta(model: CatalogModel, s, R: float | None = None,
                   t_max: float = 400.0, quad_tol: float | None = None) -> complex:
    """Analytically continued representation Z_N + L_asy + Q.

    Valid in the strip Re(s) > alpha - N/m - delta of the model's table,
    which its builder's ``depth`` sets.  At a pole of the table
    ``l_asy_eval`` raises ``PoleError``, and within 1e-3 of one it warns.
    """
    _require_eval(model)
    s = complex(s)
    edge = model.asym.strip_left_edge()
    if s.real <= edge:
        raise StripError(f"Re s = {s.real} is left of the strip edge {edge:.3f}; "
                         "increase the model depth")
    return _ray_representation(model, s, R, t_max, quad_tol, continued=True)
