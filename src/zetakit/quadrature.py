"""Adaptive complex quadrature, Gauss rules and Euler-Maclaurin tails.

The integrator is a Gauss-Kronrod 7/15 pair with interval bisection driven
by the embedded error estimate, vectorized after Shampine (J. Comput. Appl.
Math. 211, 2008): the integrand receives the nodes of every panel a
refinement round evaluates as one 1-d array, and must return an array of
complex values of the same length.  Panels are summed in deterministic
(left-to-right) order so results are bit-stable.  The tail integral is a
product-integration rule on Gauss-Legendre nodes.
"""

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DivergenceError

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


@lru_cache(maxsize=None)
def _legendre_rule(k: int):
    """k Gauss-Legendre nodes u on [0, 1], the same nodes as complex numbers,
    and the matrix taking the values h(u) to the coefficients of h in the
    basis P_j(2u - 1), j < k.  The matrix is complex, the type of every h it
    multiplies, so no product casts it."""
    u, w = gauss_jacobi(k, 0.0)
    p = [np.ones(k), 2.0 * u - 1.0]
    for j in range(1, k - 1):
        p.append(((2 * j + 1) * p[1] * p[j] - j * p[j - 1]) / (j + 1))
    rule = u, u.astype(complex), (2.0 * np.arange(k) + 1.0)[:, None] * np.array(p) * w + 0j
    for v in rule[1:]:
        v.flags.writeable = False
    return rule


# the tail's node counts: k doubles from 6 until two successive rules agree;
# the first two rules are evaluated on one array, at these offsets in it
_TAIL_LEVELS = (6, 12, 24, 48, 96)
_FIRST_LEVELS = {6: 0, 12: 6}
_MOMENT_J = np.arange(1.0, _TAIL_LEVELS[-1]) + 0j


@lru_cache(maxsize=1)
def _first_nodes():
    """The nodes of the first rules in one array, followed by 1 so that N/u
    ends at N, and the same nodes without the 1 as complex numbers."""
    rules = [_legendre_rule(k) for k in _FIRST_LEVELS]
    first = (np.concatenate([r[0] for r in rules] + [[1.0]]),
             np.concatenate([r[1] for r in rules]))
    for v in first:
        v.flags.writeable = False
    return first


@lru_cache(maxsize=1024)
def tail_nodes(n_start) -> np.ndarray:
    """The points where ``euler_maclaurin_tail`` from n_start first evaluates
    f: N/u over the nodes of its 6- and 12-node rules, then N itself.

    One read-only array per n_start, the same object on every call while it
    stays in the cache, so a caller may memoize values of f there by identity.
    """
    x = float(n_start) / _first_nodes()[0]
    x.flags.writeable = False
    return x


def _tail_moments(p: complex, k: int) -> np.ndarray:
    """m_j = int_0^1 u^(p-2) P_j(2u - 1) du for j < k, as a running product.

    The product runs in order, so a shorter table is a prefix of a longer one.
    """
    q = p - 1.0
    j = _MOMENT_J[:k - 1]
    ratios = np.empty(k, dtype=complex)
    ratios[0] = 1.0 / q
    np.divide(q - j, q + j, out=ratios[1:])
    return np.multiply.accumulate(ratios)


def euler_maclaurin_tail(f, fp, fppp, n_start: int, p) -> complex:
    """Tail sum over integer arguments n >= n_start.

    Evaluates integral + f(N)/2 - f'(N)/12 + f'''(N)/720, the
    Euler-Maclaurin estimate through the second correction term.

    ``p`` is the decay exponent: f(x) ~ x^-p with Re p > 1, and x^p f(x) is
    analytic in 1/x on [N, infinity].  With x = N/u the integral is
    int_0^1 u^gamma h(u) du, gamma = p - 2, h(u) = N f(N/u) u^-p smooth.
    The Legendre coefficients of h from k Gauss nodes are integrated
    against the exact moments m_j = int_0^1 u^gamma P_j(2u - 1) du
    (product integration, exact for f = x^-p).  k doubles from 6 until the
    k- and 2k-node values agree to 1e-14 max(1, |I|).  DivergenceError
    when Re p <= 1, or when no pair up to 96 nodes agrees, which is what a
    wrongly declared p causes.

    f is called once on ``tail_nodes(n_start)``, which holds the nodes of
    the 6- and 12-node rules and N, and once more for each later rule the
    check needs; u^-p over those 18 nodes is taken once, and the moments
    only as far as the rule reached.  fp and fppp are called at N only.
    Each rule's value has the bits it has when that rule is evaluated on
    its own.
    """
    p = complex(p)
    if p.real <= 1.0:
        raise DivergenceError(f"tail decay x^-({p}) is not integrable")
    n = float(n_start)
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.asarray(f(tail_nodes(n_start)), dtype=complex)
        h_first = n * fx[:-1] * _first_nodes()[1] ** -p
        moments = _tail_moments(p, 12)
        prev = None
        for k in _TAIL_LEVELS:
            u, u_complex, coef = _legendre_rule(k)
            if k in _FIRST_LEVELS:
                h = h_first[_FIRST_LEVELS[k]:_FIRST_LEVELS[k] + k]
            else:
                h = n * np.asarray(f(n / u), dtype=complex) * u_complex ** -p
                moments = _tail_moments(p, k)
            # the ufunc's own reduce, not the sum method's Python wrapper; no BLAS
            integral = complex(np.add.reduce(moments[:k] * np.add.reduce(coef * h, 1)))
            if not cmath.isfinite(integral):
                raise DivergenceError(f"non-finite tail integrand from {n_start}")
            if prev is not None and abs(integral - prev) <= 1e-14 * max(1.0, abs(integral)):
                f_n = complex(fx[-1])
                return integral + f_n / 2.0 - complex(fp(n)) / 12.0 + complex(fppp(n)) / 720.0
            prev = integral
    raise DivergenceError(
        f"tail integral from {n_start} did not converge at 96 nodes; is p = {p} right?")
