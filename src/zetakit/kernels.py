"""Complex double-precision kernels.

Gamma-family functions (scalar, plus an array digamma), Bernoulli numbers
and polynomials, Stirling numbers of the first kind, generalized binomial
coefficients, and the branched logarithm used for sequence powers.  All
functions are pure and stateless.
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

    Fixed-coefficient rational approximation with reflection for
    Re(z) < 1/2.  Accurate to better than 1e-13 relative for |z| <= 50;
    arguments beyond |z| ~ 200 are outside the supported range.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise DomainError(f"gamma pole at z={z}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    return cmath.exp(_lanczos_log_gamma(z))


# Asymptotic tail of psi^(k); B_{2j} coefficients are attached below once the
# Bernoulli cache exists.

def digamma_polygamma(k: int, a) -> complex:
    """k-th polygamma function psi^(k)(a), k >= 0.

    Recurrence-shifts the argument until its real part is large enough for
    the asymptotic series, then sums the series.  Accuracy is ~1e-12
    relative for the orders used here (k up to ~30).
    """
    if k < 0:
        raise DomainError("polygamma order must be >= 0")
    a = complex(a)
    if _is_nonpositive_integer(a):
        raise DomainError(f"polygamma pole at a={a}")
    shift_to = 10.0 + k
    acc = 0.0 + 0.0j
    z = a
    while z.real < shift_to:
        if k == 0:
            acc -= 1.0 / z
        else:
            acc += (-1.0) ** (k + 1) * math.factorial(k) * z ** (-k - 1.0)
        z += 1.0
    # psi^(k)(a) = psi^(k)(z) - sum over the shifted-out terms, folded into acc
    if k == 0:
        val = cmath.log(z) - 0.5 / z
        zz = z * z
        w = zz
        prev = math.inf
        for j in range(1, 29):
            term = bernoulli_number(2 * j) / (2 * j) / w
            if abs(term) > prev:
                break
            val -= term
            prev = abs(term)
            if abs(term) < 1e-18 * max(1.0, abs(val)):
                break
            w *= zz
    else:
        sign = (-1.0) ** (k + 1)
        val = math.factorial(k - 1) * z ** (-1.0 * k)
        val += math.factorial(k) * z ** (-1.0 * (k + 1)) / 2.0
        prev = math.inf
        for j in range(1, 29):
            fact = 1.0
            for i in range(1, k):
                fact *= 2 * j + i
            # B_{2j} (2j+k-1)! / (2j)!  =  B_{2j} * (2j+1)...(2j+k-1)
            term = bernoulli_number(2 * j) * fact * z ** (-1.0 * (2 * j + k))
            if abs(term) > prev:
                break
            val += term
            prev = abs(term)
            if abs(term) < 1e-18 * max(1.0, abs(val)):
                break
        val *= sign
    return val + acc


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


def digamma(w) -> np.ndarray:
    """psi(w) on a complex array of any shape.

    Reflection psi(w) = psi(1 - w) - pi cot(pi w) where Re w < 1/2, a
    common recurrence shift to Re w >= 10, then the Bernoulli tail.
    """
    w = np.asarray(w, dtype=complex)
    refl = w.real < 0.5
    x = np.where(refl, 1.0 - w, w)
    val = np.zeros_like(x)
    n = math.ceil(10.0 - x.real.min()) if x.size else 0
    if n > 0:
        val -= (1.0 / (x[..., None] + np.arange(n))).sum(-1)
        x = x + n
    u = 1.0 / (x * x)
    tail = 0.0
    for c in _DIGAMMA_TAIL:
        tail = (tail + c) * u
    val += np.log(x) - 0.5 / x - tail
    if refl.any():
        val[refl] -= math.pi / np.tan(math.pi * w[refl])
    return val


def bernoulli_poly(n: int, a) -> complex:
    """Bernoulli polynomial B_n(a) via the binomial expansion in B_k.

    Evaluated in exact rational arithmetic (the argument's binary64 value is
    taken exactly), so cancellation between the huge binomial terms does not
    leak into the result.
    """
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    if n > 60:
        raise UnsupportedOrderError("Bernoulli polynomials supported for n <= 60")
    a = complex(a)
    ar, ai = Fraction(a.real), Fraction(a.imag)
    # powers of a as exact (re, im) pairs, highest first
    pow_r, pow_i = [Fraction(1)], [Fraction(0)]
    for _ in range(n):
        pr, pi = pow_r[-1], pow_i[-1]
        pow_r.append(pr * ar - pi * ai)
        pow_i.append(pr * ai + pi * ar)
    tot_r, tot_i = Fraction(0), Fraction(0)
    for k in range(n + 1):
        b = _bernoulli_fraction(k)
        if b == 0:
            continue
        c = math.comb(n, k) * b
        tot_r += c * pow_r[n - k]
        tot_i += c * pow_i[n - k]
    return complex(float(tot_r), float(tot_i))


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple:
    if n == 0:
        return (1,)
    prev = _stirling_row(n - 1)
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        above = prev[k] if k <= n - 1 else 0
        left = prev[k - 1] if k - 1 <= n - 1 else 0
        row[k] = left - (n - 1) * above
    return tuple(row)


def stirling_first(n: int, k: int) -> float:
    """Signed Stirling number of the first kind s(n, k)."""
    if not (0 <= k <= n <= 40):
        raise DomainError("stirling_first requires 0 <= k <= n <= 40")
    return float(_stirling_row(n)[k])


def binomial_general(x, n: int) -> complex:
    """Generalized binomial coefficient: falling factorial of x over n!."""
    if n < 0:
        raise DomainError("binomial order must be >= 0")
    x = complex(x)
    num = 1.0 + 0.0j
    for i in range(n):
        num *= x - i
    return num / math.factorial(n)


def log_psi(z, psi: float) -> complex:
    """Branched logarithm with the cut on the ray arg = psi.

    Returns ln|z| + i*theta with theta in (psi - 2*pi, psi].
    """
    z = complex(z)
    if z == 0:
        raise DomainError("log of zero")
    theta = cmath.phase(z)  # (-pi, pi]
    while theta > psi:
        theta -= TWO_PI
    while theta <= psi - TWO_PI:
        theta += TWO_PI
    return complex(math.log(abs(z)), theta)


def fsum_complex(values) -> complex:
    """Exact summation of complex values via two real fsums."""
    vals = np.asarray(list(values), dtype=complex)
    return complex(math.fsum(vals.real), math.fsum(vals.imag))
