"""Builders for the bundled sequence models.

Each model packages the Taylor side (PowerSeries), the large-argument side
(AsymExpansion), a pointwise evaluator for the characteristic function, and
-- where the zeros are real and computable -- a ZeroSequence generator:

* ``riemann_model``: positive integers, F(z) = 1/Gamma(1-z), the case a = 1 of
* ``hurwitz_model``: integers shifted by a, F(z) = 1/Gamma(a-z), both tables in
  closed form (Bernoulli polynomials, the log-series at Re(a + m) >= 4)
* ``airy_model``:    negated Airy-function zeros, F(z) = Ai(-z)
* ``pcf_model``:     parabolic cylinder U(a, z) zeros
* ``chf_model``:     confluent hypergeometric M(a, b, z) zeros
"""

import cmath
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .asym import AsymExpansion, log_compose
from .errors import DomainError, RefinementError
from .kernels import (bernoulli_poly_row, digamma, digamma_polygamma, gamma,
                      hurwitz_zeta_row, log_psi_array)
from .quadrature import gauss_jacobi, tail_nodes
from .series import PowerSeries, series_exp, series_mul

RIEMANN_PSI = 3.0 * math.pi / 4.0
AIRY_PSI = 1.6  # second-quadrant ray, inside the sector where the
                # dominant-exponential expansion of Ai(-z) is valid


@dataclass(frozen=True)
class ZeroSequence:
    """Deterministic generator of the first n sequence elements.

    ``g`` maps an array x to g(x), with a_n = g(n) past the first ``n_exact``
    elements; the Euler-Maclaurin tail needs nothing else of the sequence.
    ``head(count)`` returns the first count <= n_exact elements as an array.

    Each sequence memoizes what a direct sum needs that does not depend on
    s: the values and their logarithms (``log_table``), kept for every
    later call at the same or a smaller count, and, per tail start N, g on
    the one node array where the Euler-Maclaurin tail first evaluates its
    integrand, which ends at N (``tail_table``).
    """

    alpha: float
    g: object
    n_exact: int = 0
    head: object = None
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n_exact < 0 or (self.n_exact and self.head is None):
            raise DomainError("n_exact must be >= 0, and > 0 only with a head")

    def _fill(self, count: int) -> dict:
        """The memo holding at least the first count values."""
        if count < 0:
            raise DomainError("count must be >= 0")
        memo = self._cache.get("fill")
        if memo is None or len(memo["vals"]) < count:
            n_ex = min(count, self.n_exact)
            head = self.head(n_ex) if n_ex else ()
            vals = np.concatenate((head, self.g(np.arange(n_ex + 1, count + 1))), dtype=complex)
            vals.flags.writeable = False    # the log tables are built from it
            memo = self._cache["fill"] = {"vals": vals}
        return memo

    def values(self, count: int) -> np.ndarray:
        """a_1 .. a_count: a read-only view into the memo."""
        return self._fill(count)["vals"][:count]

    def log_table(self, count: int, psi: float = math.pi) -> np.ndarray:
        """ln a_n for n <= count with the cut at psi, as a complex array.

        One ``log_psi_array`` table per psi, built once per fill over the
        whole memo and sliced per call.
        """
        memo = self._fill(count)
        key = ("ln", float(psi))
        if key not in memo:
            memo[key] = log_psi_array(memo["vals"], psi)
            memo[key].flags.writeable = False
        return memo[key][:count]

    def tail_table(self, n_start: int) -> tuple:
        """What the Euler-Maclaurin tail from N = n_start reads of g, memoized per N.

        (nodes, g(nodes)): ``nodes`` is ``tail_nodes(N)``, the array on which
        ``euler_maclaurin_tail`` first evaluates its integrand, whose last
        entry is N, and g(nodes) a read-only complex array.  The entry is
        rebuilt when ``tail_nodes`` hands out a new array for N.
        """
        nodes = tail_nodes(n_start)
        key = ("tail", n_start)
        hit = self._cache.get(key)
        if hit is None or hit[0] is not nodes:
            g_nodes = np.array(self.g(nodes), dtype=complex)
            g_nodes.flags.writeable = False
            hit = self._cache[key] = (nodes, g_nodes)
        return hit


@dataclass(frozen=True)
class CatalogModel:
    """A sequence model: series + asymptotics + evaluator (+ zeros).

    ``log_deriv`` maps a complex array of any shape (0-d included) to the
    array of F'/F values of the same shape; it is the quadrature hot path.
    ``eval`` is scalar: one point z -> the pair (F(z), F'(z)) of Python
    complex numbers, within the domain each builder states.
    """

    name: str
    params: dict
    series: PowerSeries
    asym: AsymExpansion
    zeros: ZeroSequence | None = None
    eval: object = None          # scalar z -> (F(z), F'(z))
    log_deriv: object = None     # any-shape array z -> F'(z)/F(z), same shape
    first_zero_modulus: float | None = None
    closed_forms: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def alpha(self) -> float:
        return self.asym.alpha


# ---------------------------------------------------------------------------
# Array evaluators.  Airy, PCF and CHF each have one function ``parts`` that
# maps a 1-d complex array z to (lg, f, fp) with F = e^lg f and F' = e^lg fp.
# The scale e^lg carries the exponential growth, so log_deriv = fp / f stays
# finite where F overflows, and eval rescales a single point.

def _log_deriv(parts, z):
    z = np.asarray(z, dtype=complex)
    if z.size == 0:
        return z.copy()
    _, f, fp = parts(z.reshape(-1))
    return (fp / f).reshape(z.shape)


def _eval(parts, z):
    lg, f, fp = parts(np.array([complex(z)]))
    scale = cmath.exp(complex(lg[0]))
    return scale * complex(f[0]), scale * complex(fp[0])


def _piecewise(z, branches):
    """(lg, f, fp) from (mask, parts) branches whose masks partition z."""
    for mask, parts in branches:
        if mask.all():
            return parts(z)
    out = np.empty((3, z.size), dtype=complex)
    for mask, parts in branches:
        if mask.any():
            out[:, mask] = parts(z[mask])
    return out


def _log_abs(c) -> np.ndarray:
    """log|c_j|, -inf where c_j = 0."""
    return np.array([math.log(abs(x)) if x else -math.inf for x in c])


def _powers(x, n):
    """Rows 1, x, ..., x^(n-1), one per point x."""
    p = np.empty((x.size, n), dtype=complex)
    p[:, 0] = 1.0
    p[:, 1:] = x[:, None]
    return np.cumprod(p, axis=1)


def _taylor_parts(c, log_c, z):
    """(0, f, f') for f = sum_j c_j z^j, summed up to where the terms at max|z|
    fall below 1e-18 of the largest."""
    j = np.arange(len(c))
    mags = log_c + j * math.log(max(float(np.abs(z).max()), 1e-300))
    n = min(int(np.flatnonzero(mags > mags.max() - 41.0)[-1]) + 2, len(c))
    p = _powers(z, n)
    return np.zeros_like(z), (p * c[:n]).sum(1), (p[:, :-1] * (j[1:n] * c[1:n])).sum(1)


def _poincare_terms(c, x):
    """Terms c[i, k] x^k of the series in the rows of c, shape (points, rows, k);
    each series is zeroed from its first term larger than the one before."""
    t = _powers(x, c.shape[1])[:, None, :] * c
    a = np.abs(t)
    t[..., 1:] *= np.minimum.accumulate(a[..., 1:] <= a[..., :-1], axis=2)
    return t


# ---------------------------------------------------------------------------
# Riemann / Hurwitz

def _recip_gamma_pair(a: complex, z):
    """(F, F') for F(z) = 1/Gamma(a - z), stable at the zeros z = a + k.

    Near the Gamma poles the reflection form sin(pi(a-z)) Gamma(1-a+z) / pi
    avoids evaluating Gamma at its poles.
    """
    z = complex(z)
    w = a - z
    if w.real < 0.5:
        s = cmath.sin(math.pi * w)
        g = gamma(1.0 - w)
        f = s * g / math.pi
        fp = -cmath.cos(math.pi * w) * g \
            + s * g * digamma_polygamma(0, 1.0 - w) / math.pi
        return f, fp
    f = 1.0 / gamma(w)
    return f, digamma_polygamma(0, w) * f


def _hurwitz_log_series(a, order: int) -> np.ndarray:
    """Taylor coefficients of ln(Gamma(a) / Gamma(a - z)): b_1 = psi(a), b_n = -zeta(n, a)/n."""
    b = np.zeros(order + 1, dtype=complex)
    b[1:2] = digamma(a)
    b[2:] = -hurwitz_zeta_row(a, order) / np.arange(2.0, order + 1.0)
    return b


def riemann_model(order: int = 30, depth: int = 14) -> CatalogModel:
    """Model for the sequence of positive integers: the Hurwitz model at a = 1."""
    # the shared builder, not hurwitz_model, so that a wrapper around
    # hurwitz_model never sees a Riemann build
    return replace(_shifted_integers(1.0, order, depth), name="riemann", params={},
                   closed_forms={0: "-1/2", -1: "-1/12"})


def _is_nonpos_int(w: complex) -> bool:
    return w.imag == 0.0 and w.real <= 0.0 and w.real == math.floor(w.real)


def ln_gamma_continued(a: complex) -> complex:
    """ln Gamma(a) on the branch reached through the cut sector.

    Principal for Re(a) > 0 or non-real a; for real negative non-integer a
    the continuation picks up -i*pi*floor(a).
    """
    a = complex(a)
    if _is_nonpos_int(a):
        raise DomainError("log Gamma pole at nonpositive integer")
    if a.imag == 0.0 and a.real < 0.0:
        return complex(math.log(abs(gamma(a))), -math.pi * math.floor(a.real))
    return cmath.log(gamma(a))


def hurwitz_model(a, order: int = 30, depth: int = 14) -> CatalogModel:
    """Model for the shifted-integer sequence {n + a}, n >= 0."""
    return _shifted_integers(a, order, depth)


def _shifted_integers(a, order: int, depth: int) -> CatalogModel:
    """The Hurwitz model: F(z) = 1/Gamma(a - z), both tables in closed form.

    d[j, 0] = B_j(a)/(j(j-1)) for j >= 2 (DLMF 5.11.8); the Taylor table is
    prod_{k<m} (a + k - z) / Gamma(a + m - z), Re(a + m) >= 4, so the
    log-series exponentiated at a + m does not cancel like a^-n.
    """
    a = complex(a)
    if _is_nonpos_int(a):
        raise DomainError("parameter a must avoid the nonpositive integers")
    if a.imag == 0.0:
        a = complex(a.real, 0.0)
    d = {(0, 1): 1.0 + 0.0j,
         (0, 0): complex(-1.0, -math.pi),
         (1, 1): 0.5 - a,
         (1, 0): -0.5 * math.log(2.0 * math.pi) + 1j * math.pi * (a - 0.5)}
    bern = bernoulli_poly_row(a, depth)
    for j in range(2, depth + 1):
        if bern[j] != 0:
            d[(j, 0)] = bern[j] / (j * (j - 1.0))
    asym = AsymExpansion(alpha=1.0, m=1, M=1, N=depth, d=d, psi=RIEMANN_PSI,
                         ln_f0=-ln_gamma_continued(a))
    m = max(math.ceil(4.0 - a.real), 0)
    poly = np.ones(1, dtype=complex)
    for k in range(m):
        poly = np.convolve(poly, [a + k, -1.0])       # times (a + k - z)
    head = series_exp(_hurwitz_log_series(a + m, order))
    series = PowerSeries(series_mul(poly, head, order) / gamma(a + m))

    def log_deriv(z):
        return digamma(a - np.asarray(z, dtype=complex))

    def eval_fn(z):
        return _recip_gamma_pair(a, z)

    moduli = sorted(abs(a + k) for k in range(0, 64))
    a_g = a.real if a.imag == 0.0 else a      # a real g stays a float array
    zeros = ZeroSequence(alpha=1.0, g=lambda x: x - 1.0 + a_g)
    notes = ()
    if a.imag == 0.0 and a.real < 0.0:
        notes = (f"sequence has {-math.floor(a.real):.0f} negative elements", )
    return CatalogModel("hurwitz", {"a": a}, series, asym, zeros, eval_fn,
                        log_deriv, moduli[0], {0: "1/2 - a"}, notes)


# ---------------------------------------------------------------------------
# Airy

_AIRY_NC = 241


def _airy_taylor_coeffs() -> np.ndarray:
    c = np.zeros(_AIRY_NC, dtype=float)
    for k in range(_AIRY_NC // 3 + 1):
        if 3 * k < _AIRY_NC:
            c[3 * k] = ((-1.0) ** k * 3.0 ** (-2 * k - 2.0 / 3.0)
                        / (math.factorial(k) * math.gamma(k + 2.0 / 3.0)))
        if 3 * k + 1 < _AIRY_NC:
            c[3 * k + 1] = ((-1.0) ** k * 3.0 ** (-2 * k - 4.0 / 3.0)
                            / (math.factorial(k) * math.gamma(k + 4.0 / 3.0)))
    return c


_AIRY_C = _airy_taylor_coeffs()
_AIRY_LOG_C = _log_abs(_AIRY_C)

_AIRY_NU = 72
_AIRY_U = [1.0]
_AIRY_V = [1.0]
for _k in range(1, _AIRY_NU):
    _AIRY_U.append(_AIRY_U[-1] * (6 * _k - 5) * (6 * _k - 3) * (6 * _k - 1)
                   / (216.0 * _k * (2 * _k - 1)))
    _AIRY_V.append(_AIRY_U[-1] * (6 * _k + 1) / (1.0 - 6 * _k))
_AIRY_UV = np.array([_AIRY_U, _AIRY_V])


def _airy_asym_parts(z):
    """(lg, f, f') for F(z) = Ai(-z) by the two-exponential expansion.

    Valid for |arg z| <= 1.9.  e^lg is the dominant exponential; the other
    enters through the ratio r, |r| <= 1, and each Poincare sum stops at
    its smallest term.
    """
    root = np.sqrt(z)
    zeta = (2.0 / 3.0) * z * root
    sg = np.where(zeta.imag >= 0.0, 1.0, -1.0)
    w = sg * (zeta - math.pi / 4.0)
    r = np.exp(2j * w)
    t = _poincare_terms(_AIRY_UV, 1j * sg / zeta)
    # the subdominant series is the dominant one at -x: even terms minus odd
    even, odd = t[..., ::2].sum(2), t[..., 1::2].sum(2)
    dom, sub = even + odd, even - odd
    quarter = np.sqrt(root)
    sq = 0.5 / math.sqrt(math.pi)
    # F' = -Ai'(-z)
    return (-1j * w, sq * (dom[:, 0] + r * sub[:, 0]) / quarter,
            -1j * sq * sg * quarter * (dom[:, 1] - r * sub[:, 1]))


def _airy_parts(z):
    """(lg, f, f') for F(z) = Ai(-z): the Taylor series inside the switch
    radius (6.5 for |arg z| <= 0.25, else 11), the expansion outside it.
    DomainError outside |arg z| <= 1.7 or |z| <= 3: there the Taylor sum
    cancels where Ai(-z) is recessive, and the expansion is wrong past
    |arg z| = 1.9."""
    r = np.abs(z)
    if np.any((r > 3.0) & (z.real < math.cos(1.7) * r)):
        raise DomainError("airy evaluator domain is |arg z| <= 1.7 or |z| <= 3")
    near = r <= np.where(np.abs(z.imag) <= math.tan(0.25) * z.real, 6.5, 11.0)
    return _piecewise(z, ((near, partial(_taylor_parts, _AIRY_C, _AIRY_LOG_C)),
                          (~near, _airy_asym_parts)))


def airy_eval(z):
    """(F, F') for F(z) = Ai(-z); domain |arg z| <= 1.7 or |z| <= 3."""
    return _eval(_airy_parts, z)


airy_log_deriv = partial(_log_deriv, _airy_parts)


def airy_zero_seed(x):
    """The zeros of Ai(-z) by DLMF 9.9.18 to its first correction: t^(2/3)
    (1 + 5/(48 t^2)), t = 3 pi (4x - 1)/8, at an integer x (Newton's seed)
    or on an array (the elements past the head, and the tail's g)."""
    t = 3.0 * math.pi * (4 * x - 1) / 8.0
    return t ** (2.0 / 3.0) * (1.0 + 5.0 / (48.0 * t * t))


def _airy_head(count: int) -> np.ndarray:
    """The first count zeros of Ai(-x), each by Newton from its seed."""
    zeros = np.empty(count)
    for n in range(1, count + 1):
        x = airy_zero_seed(n)
        for _ in range(50):
            f, fp = airy_eval(x)
            step = (f / fp).real
            x -= step
            if abs(step) < 1e-14 * max(1.0, abs(x)):
                f, fp = airy_eval(x)
                if abs(f) <= 1e-12 * max(1.0, abs(fp)):
                    break
        else:
            raise RefinementError(f"Newton refinement stalled for Airy zero #{n}")
        zeros[n - 1] = x
    return zeros


def airy_zeros(n_exact: int = 60) -> ZeroSequence:
    """Negated Airy zeros: the first ``n_exact`` Newton-refined, the rest by formula."""
    return ZeroSequence(1.5, airy_zero_seed, n_exact, _airy_head)


def airy_model(depth: int = 8, order: int = 30, n_exact: int = 60) -> CatalogModel:
    """Model for the negated zeros of the Airy function, F(z) = Ai(-z)."""
    if depth > 13:
        raise DomainError("airy depth supported up to 13")
    series = PowerSeries(_AIRY_C[:order + 1].astype(complex))
    # c_k = (-3/2 i)^k Gamma(k + 1/6) Gamma(k + 5/6) / (2 pi (-2)^k k!): exact integer ratios
    c_tail = [1.0 + 0.0j]
    for k in range(1, depth + 1):
        c_tail.append(c_tail[-1] * ((6 * k - 5) * (6 * k - 1) * 1j) / (48 * k))
    p = log_compose(c_tail[1:])
    d = {(0, 0): -2j / 3.0,
         (3, 1): -0.25 + 0.0j,
         (3, 0): complex(-math.log(2.0 * math.sqrt(math.pi)), 0.25 * math.pi)}
    for nn in range(1, depth + 1):
        d[(3 * nn + 3, 0)] = complex(p[nn])
    c0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    asym = AsymExpansion(alpha=1.5, m=2, M=1, N=3 * depth + 3, d=d,
                         psi=AIRY_PSI, ln_f0=math.log(c0))
    forms = {
        1: "-3^(1/3) G(2/3)/G(1/3)",
        2: "3^(2/3) G(2/3)^2/G(1/3)^2",
        3: "1/2 - 3 G(2/3)^3/G(1/3)^3",
        4: "3^(4/3) G(2/3)^4/G(1/3)^4 - G(2/3)/(3^(2/3) G(1/3))",
        5: "-3^(5/3) G(2/3)^5/G(1/3)^5 + (5/4) G(2/3)^2/(3^(1/3) G(1/3)^2)",
        0: "-1/4", -3: "15/64",
    }
    return CatalogModel("airy", {"depth": depth}, series, asym,
                        airy_zeros(n_exact), airy_eval,
                        airy_log_deriv, 2.33810741045976, forms)


# ---------------------------------------------------------------------------
# Parabolic cylinder U(a, z)

def _pcf_taylor_coeffs(a: float, order: int) -> np.ndarray:
    """c_0..c_order of U(a, z) from U(a, 0) and U'(a, 0) (DLMF 12.2.6-7) and
    U'' = (z^2/4 + a) U: (n+1)(n+2) c_{n+2} = a c_n + c_{n-2}/4."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = math.sqrt(math.pi) / (2.0 ** (0.5 * a + 0.25) * math.gamma(0.75 + 0.5 * a))
    c[1] = -math.sqrt(math.pi) / (2.0 ** (0.5 * a - 0.25) * math.gamma(0.25 + 0.5 * a))
    for n in range(order - 1):
        c[n + 2] = (a * c[n] + (0.25 * c[n - 2] if n >= 2 else 0.0)) / ((n + 1) * (n + 2))
    return c


def pcf_model(a: float, depth: int = 6, order: int = 30) -> CatalogModel:
    """Model for the zeros of the parabolic cylinder function U(a, z), a > -1/2.

    The zeros are complex-conjugate pairs; no zero generator is provided and
    the model supports coefficient-side values only.  Pointwise evaluation
    uses the Taylor series for |z| <= 3, the Laplace integral by one fixed
    Gauss-Jacobi rule for 3 < |z| < 12 (1e-12 or better for |arg z| <= 1.6;
    cancellation grows past that), and the large-argument expansion beyond
    (|arg z| < 2.3).
    """
    a = float(a)
    if a <= -0.5:
        raise DomainError("pcf model requires a > -1/2")
    full = _pcf_taylor_coeffs(a, max(order, 100))
    series = PowerSeries(full[:order + 1])
    # t_n = (-1)^n Gamma(2n + a + 1/2) / (2^n n! Gamma(a + 1/2)), t_0 = 1
    tail = [1.0]
    for n in range(1, depth + 11):
        tail.append(-tail[-1] * ((a + (2 * n - 1.5)) * (a + (2 * n - 0.5)) / (2 * n)))
    tail = np.array(tail[1:])
    h = log_compose(tail[:depth])
    d = {(0, 0): -0.25 + 0.0j, (2, 1): complex(-a - 0.5)}
    for nn in range(1, depth + 1):
        d[(2 * nn + 2, 0)] = complex(h[nn])
    c0 = complex(full[0])
    asym = AsymExpansion(alpha=2.0, m=1, M=1, N=2 * depth + 2, d=d,
                         psi=0.0, ln_f0=cmath.log(c0))
    # t^(a-1/2) = t^m t^beta: the Gauss-Jacobi weight takes the non-integer part
    m = max(math.floor(a - 0.5), 0)
    beta = a - 0.5 - m
    lg0 = math.lgamma(a + 0.5)

    def laplace(z):
        # U = e^{-z^2/4}/Gamma(a+1/2) * I_0,  I_p = int_0^T t^{a-1/2+p} e^{-t^2/2-zt} dt,
        # T past the e^-40 point of the integrand; one rule on [0, 1] scaled by T
        y, wts = gauss_jacobi(80, beta)
        big_t = np.sqrt(z.real * z.real + 80.0) - z.real
        t = big_t[:, None] * y
        e = np.exp(-0.5 * t * t - z[:, None] * t)
        if m:
            e *= t ** m
        i0 = (e * wts).sum(1)
        lg = -0.25 * z * z - lg0 + (beta + 1.0) * np.log(big_t)
        return lg, i0, -0.5 * z * i0 - (e * t * wts).sum(1)

    def large(z):
        if np.any(z.real <= math.cos(2.3) * np.abs(z)):           # |arg z| >= 2.3
            raise DomainError("pcf evaluator domain is |arg z| < 3pi/4 for |z| >= 12")
        x = 1.0 / (z * z)
        t = x[:, None] * _poincare_terms(tail[None], x)[:, 0]
        den = 1.0 + t.sum(1)
        num = -2.0 / z * (t * np.arange(1.0, len(tail) + 1.0)).sum(1)
        lg = -0.25 * z * z - (a + 0.5) * np.log(z)
        return lg, den, den * (-0.5 * z - (a + 0.5) / z) + num

    taylor = partial(_taylor_parts, full, _log_abs(full))

    def parts(z):
        r = np.abs(z)
        return _piecewise(z, ((r <= 3.0, taylor),
                              ((r > 3.0) & (r < 12.0), laplace), (r >= 12.0, large)))

    eval_fn = partial(_eval, parts)
    log_deriv = partial(_log_deriv, parts)
    return CatalogModel("pcf", {"a": a}, series, asym, None, eval_fn,
                        log_deriv, None, {0: "-a - 1/2"},
                        ("zeros are complex-conjugate pairs; zero generator not provided",))


# ---------------------------------------------------------------------------
# Confluent hypergeometric M(a, b, z)

def chf_model(a, b, depth: int = 8, order: int = 30) -> CatalogModel:
    """Model for the zeros of M(a, b, z); a, b, b-a not nonpositive integers.

    The boundary log value ln F(0) is fixed to the principal choice 0; the
    continued value is only determined up to 2*pi*i*k and the chosen branch
    is recorded in the model notes.
    """
    a = complex(a)
    b = complex(b)
    if a.imag == 0:
        a = complex(a.real, 0.0)
    if b.imag == 0:
        b = complex(b.real, 0.0)
    for w, nm in ((a, "a"), (b, "b"), (b - a, "b-a")):
        if _is_nonpos_int(w):
            raise DomainError(f"excluded parameter: {nm} is a nonpositive integer")
    n_eval = max(order, 400)
    k = np.arange(n_eval)
    rho = (a + k) / ((b + k) * (k + 1.0))            # c_{k+1} / c_k
    rho_kummer = (b - a + k) / ((b + k) * (k + 1.0))
    c = np.concatenate(([1.0 + 0.0j], np.cumprod(rho)))
    log_c = np.maximum(np.cumsum(np.log(np.abs(rho))),
                       np.cumsum(np.log(np.abs(rho_kummer))))
    series = PowerSeries(c[:order + 1])
    c_tail = []
    t = 1.0 + 0.0j
    for n in range(1, depth + 1):
        t *= (1.0 - a + (n - 1.0)) * (b - a + (n - 1.0)) / n
        c_tail.append(t)
    f = log_compose(c_tail)
    d = {(0, 0): 1.0 + 0.0j, (1, 1): a - b,
         (1, 0): cmath.log(gamma(b) / gamma(a))}
    for nn in range(1, depth + 1):
        d[(nn + 1, 0)] = complex(f[nn])
    asym = AsymExpansion(alpha=1.0, m=1, M=1, N=depth + 1, d=d,
                         psi=0.0, ln_f0=0.0)

    def parts(z):
        # accurate near the real axis (Kummer's transform M(a, b, z) =
        # e^z M(b-a, b, -z) where Re z < 0); imaginary-direction cancellation
        # grows like e^{|Im z|}.  The terms come from running products: the
        # explicit c_k w^k would overflow near |w| ~ 200 although the terms
        # stay bounded by the series peak.
        if np.abs(z).max() > 250.0:
            raise DomainError("chf evaluator domain is |z| <= 250")
        neg = z.real < 0.0
        w = np.where(neg, -z, z)
        lr = math.log(max(float(np.abs(w).max()), 1e-300))
        mags = np.append(0.0, log_c + (k + 1.0) * lr)  # log|c_k w^k| bound, k = 0..n_eval
        n = min(int(np.flatnonzero(mags > mags.max() - 41.0)[-1]) + 1, n_eval)
        q = np.where(neg[:, None], rho_kummer[:n], rho[:n])
        q[:, 1:] *= w[:, None]
        q = np.cumprod(q, axis=1)                     # c_{k+1} w^k
        g0 = 1.0 + w * q.sum(1)
        g1 = (q * (k[:n] + 1.0)).sum(1)
        return np.where(neg, z, 0.0), g0, np.where(neg, g0 - g1, g1)

    eval_fn = partial(_eval, parts)
    log_deriv = partial(_log_deriv, parts)

    notes = ("ln F(0) fixed to the k = 0 branch (continued value is 2*pi*i*k)",
             "branch ray psi = 0; no computed zeros to check ray clearance against")
    return CatalogModel("chf", {"a": a, "b": b}, series, asym, None, eval_fn,
                        log_deriv, None, {0: "a - b", 1: "1 - a/b"}, notes)


# ---------------------------------------------------------------------------

def model_from_spec(spec) -> CatalogModel:
    """Build a model from a name+parameter JSON document (or dict)."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    name = spec.get("model")
    for key in {"hurwitz": ("a",), "pcf": ("a",), "chf": ("a", "b")}.get(name, ()):
        if key not in spec:
            raise DomainError(f"model {name!r} needs parameter {key!r} (--{key})")
    if name == "riemann":
        return riemann_model()
    if name == "hurwitz":
        return hurwitz_model(spec["a"])
    if name == "airy":
        return airy_model(depth=int(spec.get("depth", 8)))
    if name == "pcf":
        return pcf_model(spec["a"])
    if name == "chf":
        return chf_model(spec["a"], spec["b"])
    if name == "user":
        series = PowerSeries(np.asarray(
            [complex(e["re"], e.get("im", 0.0)) for e in spec["series"]["coeffs"]]))
        asym = AsymExpansion.from_json(spec["asym"])
        return CatalogModel("user", {}, series, asym)
    raise DomainError(f"unknown model name: {name!r}")
