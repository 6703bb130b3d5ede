"""Adaptive complex quadrature, Gauss rules and Euler-Maclaurin tails.

The integrator is a Gauss-Kronrod 7/15 pair with interval bisection driven
by the embedded error estimate, vectorized after Shampine (J. Comput. Appl.
Math. 211, 2008): the integrand receives the nodes of every panel a
refinement round evaluates as one 1-d array, and must return an array of
complex values of the same length.  Panels are summed in deterministic
(left-to-right) order so results are bit-stable.  The Euler-Maclaurin
tail of a zero sequence is a series in n^(-1/m): one FFT on a circle gives
its coefficients, and each term is a Hurwitz zeta in closed form.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DivergenceError
from .kernels import EM_COEFFS

# Kronrod-15 nodes on [-1, 1] and weights; Gauss-7 weights sit on the
# odd-indexed nodes.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _gk15(f, lo, hi):
    """GK15 on every panel [lo[i], hi[i]] with one call of f.

    f receives the (panels x 15) nodes as one flattened 1-d array.
    Returns the per-panel Kronrod values and |Kronrod - Gauss| estimates.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = mid[:, None] + half[:, None] * _XK
    y = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    bad = ~np.isfinite(y).all(1)
    if bad.any():
        i = int(np.argmax(bad))
        raise DivergenceError(f"non-finite integrand on [{lo[i]}, {hi[i]}]")
    k = half * (_WK * y).sum(1)
    g = half * (_WG * y[:, 1::2]).sum(1)
    return k, np.abs(k - g)


def quad_adaptive(f, a: float, b: float, abs_tol: float = 1e-12,
                  max_segments: int = 4096, initial_points=None) -> complex:
    """Integrate a complex-valued f over [a, b] to an absolute tolerance.

    ``initial_points`` may pre-split the interval (useful for integrands
    with known phase structure).  Each round splits the panels with the
    largest error estimates, in that order, until the unsplit ones carry at
    most half of ``abs_tol``, and evaluates all the halves in one call of f.
    When a round wants more splits than ``max_segments`` leaves room for,
    it splits only the panel with the largest estimate, as a
    one-panel-per-call loop would; even so, the cap is spread over more
    panels than such a loop uses, so it can end further from ``abs_tol``.
    A panel at roundoff resolution is kept as it is; the refinement ends
    when it has the largest estimate.
    """
    if a == b:
        return 0.0 + 0.0j
    pts = np.array([a, b] if initial_points is None else sorted(
        {a, b, *(p for p in initial_points if a < p < b)}), dtype=float)
    lo, hi = pts[:-1], pts[1:]
    val, err = _gk15(f, lo, hi)
    while float(err.sum()) > abs_tol and len(lo) < max_segments:
        order = np.argsort(-err, kind="stable")
        # split order[:j] while the error left in order[j:] exceeds abs_tol / 2
        unsplit = np.cumsum(err[order][::-1])[::-1]
        want = np.count_nonzero(unsplit > 0.5 * abs_tol)
        split = order[:want if len(lo) + want <= max_segments else 1]
        mid = 0.5 * (lo[split] + hi[split])
        splittable = (lo[split] < mid) & (mid < hi[split])
        if not splittable[0]:
            break
        split, mid = split[splittable], mid[splittable]
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        lo2, hi2 = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        v2, e2 = _gk15(f, lo2, hi2)
        lo, hi = np.concatenate((lo[keep], lo2)), np.concatenate((hi[keep], hi2))
        val, err = np.concatenate((val[keep], v2)), np.concatenate((err[keep], e2))
    total_err = float(err.sum())
    if total_err > 100.0 * abs_tol:
        raise AccuracyError(
            f"quadrature error estimate {total_err:.2e} exceeds tolerance {abs_tol:.2e}")
    vals = val[np.argsort(lo, kind="stable")]
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def _jacobi(n: int, beta: float, x):
    """(P_n, P_n') of the Jacobi polynomial P_n^(0, beta) at the points x."""
    p0, p1 = np.ones_like(x), 0.5 * ((beta + 2.0) * x - beta)
    for j in range(2, n + 1):
        c = 2 * j + beta
        p0, p1 = p1, ((c - 1) * (c * (c - 2) * x - beta * beta) * p1
                      - 2 * (j - 1) * (j + beta - 1) * c * p0) / (2 * j * (j + beta) * (c - 2))
    dp = n * (2 * (n + beta) * p0 - (beta + (2 * n + beta) * x) * p1)
    return p1, dp / ((2 * n + beta) * (1.0 - x) * (1.0 + x))


@lru_cache(maxsize=None)
def gauss_jacobi(n: int, beta: float):
    """n-point Gauss rule on [0, 1] for the weight y^beta, -1 < beta < 1.

    Newton on the Jacobi recurrence from the Szego node estimates, so no
    eigenvalue solver is needed.  Returns (nodes, weights).
    """
    x = np.cos((np.arange(1, n + 1) - 0.25) * math.pi / (n + 0.5 * beta + 0.5))
    for _ in range(30):
        p, dp = _jacobi(n, beta, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-14:
            break
    _, dp = _jacobi(n, beta, x)
    rule = 0.5 * (1.0 + x), 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    for v in rule:
        v.flags.writeable = False       # shared by every caller through the cache
    return rule


# the tail's circle: the K-th roots of unity, scaled by N^(-1/m); the
# trapezoid rule on it takes values to Taylor coefficients by one product
TAIL_K = 32
TAIL_CIRCLE = np.exp(2j * math.pi * np.arange(TAIL_K) / TAIL_K)
TAIL_CIRCLE.flags.writeable = False
_INDEX = np.arange(float(TAIL_K))
_DFT = np.exp(-2j * math.pi * np.outer(_INDEX, _INDEX) / TAIL_K) / TAIL_K
_EM_POWERS = np.arange(2.0, 2.0 * len(EM_COEFFS) + 1.0, 2.0)
_EM_SHIFTS = np.arange(2.0 * len(EM_COEFFS) - 1.0)
TAIL_TOL = 1e-14     # the largest error estimate the tail accepts, relative


def euler_maclaurin_tail(h, n_start: int, p, m: int = 1, real: bool = False) -> complex:
    """The sum of n^-p h(n^(-1/m)) over n >= N, for h analytic on |v| <= N^(-1/m).

    ``h`` holds h on N^(-1/m) ``TAIL_CIRCLE``.  The trapezoid rule there, one
    product with the DFT matrix (Trefethen & Weideman, SIAM Rev. 56, 2014),
    gives psi_i = phi_i N^(-i/m), phi_i the Taylor coefficients of h.  The sum
    is sum_i phi_i zeta(c_i, N), c_i = p + i/m, each Hurwitz zeta by
    N^(1-c)/(c-1) + N^(-c)/2 + sum_j B_2j/(2j)! (c)_(2j-1) N^(1-c-2j), adding
    terms j until the next is below roundoff or grows (at most ten).  ``real``:
    p and h on the real axis are real, so psi is taken real.

    Error estimate: the aliasing of psi_(i+K) onto psi_i, at most (upper half
    / lower half)^2 of the sum while psi decays geometrically (the largest
    |psi_i| of each half), plus the expansion's last term unless it reached
    roundoff.  AccuracyError when it exceeds ``TAIL_TOL`` of the sum: h is
    not analytic on the disc, or not resolved on the circle, or ten terms do
    not reach that far from this N; a later start mends each.
    DivergenceError when Re p <= 1.
    """
    p = complex(p)
    if p.real <= 1.0:
        raise DivergenceError(f"tail decay n^-({p}) is not summable")
    psi = _DFT @ h
    if real:
        psi, p = psi.real, p.real
    n = float(n_start)
    c = p + _INDEX / m
    total = complex(psi @ (1.0 / (c - 1.0) + 0.5 / n))
    # (c)_(2j-1), j = 1..10, for every c_i
    rising = np.multiply.accumulate(c[:, None] + _EM_SHIFTS, axis=1)[:, ::2]
    prev = math.inf
    for term in (EM_COEFFS * n ** -_EM_POWERS * (psi @ rising)).tolist():
        size = abs(term)
        if size > prev or size <= 1e-17 * abs(total):
            break
        total += term
        prev = size
    mag = np.abs(psi)
    upper = mag[TAIL_K // 2:].max()
    alias = (upper / max(mag[:TAIL_K // 2].max(), upper)) ** 2 if upper else 0.0
    power = n ** (1.0 - p)
    tail = power * total
    error = abs(power) * (alias * abs(total) + min(size, prev))
    if not error <= TAIL_TOL * abs(tail):
        raise AccuracyError(
            f"the Euler-Maclaurin tail from N = {n_start} is not resolved: estimated "
            f"error {error:.2g} against {abs(tail):.2g}; start it later")
    return tail
