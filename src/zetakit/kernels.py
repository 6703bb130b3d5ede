"""Complex double-precision kernels.

The Gamma family (scalar gamma, an array digamma, a row of Hurwitz zeta
values zeta(n, a) for n = 2..n_max, and polygamma dispatched to those two),
Bernoulli numbers and polynomials, and the branched logarithm used for
sequence powers.  All functions are pure and stateless.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedOrderError

EULER_GAMMA = 0.5772156649015328606065120900824024

TWO_PI = 2.0 * math.pi

# Lanczos rational approximation, g = 607/128, 15 terms (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_P = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)

_LOG_SQRT_2PI = 0.5 * math.log(TWO_PI)


def _is_nonpositive_integer(z: complex, tol: float = 1e-13) -> bool:
    if z.imag != 0.0 and abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol


def _lanczos_log_gamma(z: complex) -> complex:
    """ln Gamma(z) for Re(z) >= 0.5 via the fixed-coefficient scheme."""
    acc = _LANCZOS_P[0]
    for i in range(1, 15):
        acc += _LANCZOS_P[i] / (z - 1.0 + i)
    t = z - 0.5 + _LANCZOS_G
    return _LOG_SQRT_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def gamma(z) -> complex:
    """Gamma function for complex arguments.

    Real arguments go to ``math.gamma`` (within about one ulp).  Others use
    a fixed-coefficient rational approximation with reflection for
    Re(z) < 1/2, accurate to better than 1e-13 relative for |z| <= 50;
    arguments beyond |z| ~ 200 are outside the supported range.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise DomainError(f"gamma pole at z={z}")
    if z.imag == 0.0:
        return complex(math.gamma(z.real))
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    return cmath.exp(_lanczos_log_gamma(z))


def digamma_polygamma(k: int, a) -> complex:
    """k-th polygamma function psi^(k)(a), k >= 0.

    ``digamma`` for k = 0, (-1)^(k+1) k! zeta(k+1, a) by ``hurwitz_zeta_row``
    for k >= 1.
    """
    if k < 0:
        raise DomainError("polygamma order must be >= 0")
    a = complex(a)
    if _is_nonpositive_integer(a):
        raise DomainError(f"polygamma pole at a={a}")
    if k == 0:
        return complex(digamma(a))
    return (-1.0) ** (k + 1) * math.factorial(k) * complex(hurwitz_zeta_row(a, k + 1)[-1])


@lru_cache(maxsize=None)
def _bernoulli_fraction(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{k=0}^{n} C(n+1, k) B_k = 0
    total = Fraction(0)
    for k in range(n):
        total += math.comb(n + 1, k) * _bernoulli_fraction(k)
    return -total / (n + 1)


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> float:
    """Bernoulli number B_n (B_1 = -1/2 convention), exact rationals inside."""
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    if n > 60:
        raise UnsupportedOrderError("Bernoulli numbers supported for n <= 60")
    return float(_bernoulli_fraction(n))


# B_{2j} / (2j), j = 9 down to 1 for Horner: the digamma tail below is
# summed to 1e-18 for |w| >= 10
_DIGAMMA_TAIL = [float(_bernoulli_fraction(2 * j)) / (2 * j) for j in range(9, 0, -1)]

# B_{2j} / (2j)!, j = 1..10, each rounded once: the Euler-Maclaurin
# coefficients of hurwitz_zeta_row, whose first omitted term is below 1e-17
# relative at x >= n_max + 10, and of quadrature.euler_maclaurin_tail
EM_COEFFS = np.array([float(_bernoulli_fraction(2 * j) / math.factorial(2 * j))
                       for j in range(1, 11)])


def digamma(w) -> np.ndarray:
    """psi(w) on a complex array of any shape.

    Reflection psi(w) = psi(1 - w) - pi cot(pi w) where Re w < 1/2, then ten
    recurrence steps at every point (so Re w >= 10.5), then the Bernoulli
    tail.  The shift does not depend on the other points, so each value
    equals its own one-point call.
    """
    w = np.asarray(w, dtype=complex)
    refl = w.real < 0.5
    x = np.where(refl, 1.0 - w, w)
    val = np.zeros_like(x)
    val -= (1.0 / (x[..., None] + np.arange(10.0))).sum(-1)
    x = x + 10.0
    u = 1.0 / (x * x)
    tail = 0.0
    for c in _DIGAMMA_TAIL:
        tail = (tail + c) * u
    val += np.log(x) - 0.5 / x - tail
    if refl.any():
        val[refl] -= math.pi / np.tan(math.pi * w[refl])
    return val


def hurwitz_zeta_row(a, n_max: int) -> np.ndarray:
    """zeta(n, a) = sum_{k >= 0} (a + k)^(-n) for n = 2..n_max, as one array.

    The first N = ceil(n_max + 10 - Re a) terms are summed directly; the rest
    is the Euler-Maclaurin tail at x = a + N,
    x^(1-n)/(n-1) + x^(-n)/2 + sum_j B_2j/(2j)! n(n+1)...(n+2j-2) x^(1-n-2j).
    The direct part is an N x (n_max - 1) array, so it grows with -Re a.
    """
    a = complex(a)
    if _is_nonpositive_integer(a):
        raise DomainError(f"Hurwitz zeta pole at a={a}")
    n = np.arange(2.0, n_max + 1.0)
    big_n = max(math.ceil(n_max + 10.0 - a.real), 0)
    head = ((a + np.arange(big_n)) ** -n[:, None]).sum(1)
    x = a + big_n
    rising = np.cumprod(n[:, None] + np.arange(19.0), axis=1)[:, ::2]
    em = (EM_COEFFS * rising) @ x ** -np.arange(2.0, 21.0, 2.0)
    return head + x ** (1.0 - n) * (1.0 / (n - 1.0) + 0.5 / x + em)


def bernoulli_poly_row(a, n_max: int) -> np.ndarray:
    """B_0(a), ..., B_n_max(a) from B_n(a) = sum_k C(n, k) B_k a^(n-k), as one array.

    Exact integer arithmetic on a = (p + iq)/d, the argument's binary64 value:
    the large binomial terms cancel exactly and each entry is rounded once.
    """
    if n_max < 0:
        raise DomainError("Bernoulli index must be >= 0")
    if n_max > 60:
        raise UnsupportedOrderError("Bernoulli polynomials supported for n <= 60")
    re, im = Fraction(complex(a).real), Fraction(complex(a).imag)
    d = max(re.denominator, im.denominator)           # both powers of two
    p, q = int(re * d), int(im * d)
    bern = [_bernoulli_fraction(k) for k in range(n_max + 1)]
    den = math.lcm(*(b.denominator for b in bern))
    b = [x.numerator * (den // x.denominator) * d ** k for k, x in enumerate(bern)]
    pw = [(1, 0)]                                     # (p + iq)^i as (re, im)
    for _ in range(n_max):
        pw.append((pw[-1][0] * p - pw[-1][1] * q, pw[-1][0] * q + pw[-1][1] * p))
    row = np.empty(n_max + 1, dtype=complex)
    for n in range(n_max + 1):
        # den d^n B_n(a) = sum_k C(n, k) b_k (p + iq)^(n-k), b_k = den B_k d^k
        c = [math.comb(n, k) * b[k] for k in range(n + 1)]
        scale = den * d ** n                          # int / int rounds once
        row[n] = complex(sum(ck * pw[n - k][0] for k, ck in enumerate(c)) / scale,
                         sum(ck * pw[n - k][1] for k, ck in enumerate(c)) / scale)
    return row


def log_psi_array(z, psi: float):
    """Branched logarithm with the cut on the ray arg = psi, on an array.

    Returns ln|z| + i*theta with theta in (psi - 2*pi, psi].
    """
    if np.any(z == 0):
        raise DomainError("log of zero")
    theta = np.angle(z)
    theta = np.where(theta > psi, theta - TWO_PI * np.ceil((theta - psi) / TWO_PI), theta)
    theta = np.where(theta <= psi - TWO_PI,
                     theta + TWO_PI * np.floor((psi - theta) / TWO_PI), theta)
    return np.log(np.abs(z)) + 1j * theta
