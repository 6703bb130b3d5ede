"""Truncated power-series engine for characteristic functions.

Everything derived from the Taylor coefficients of a characteristic function
about the origin: log-coefficients b_n, zeta values at positive integers by
Bell polynomials, exact sum rules, and reduction to the Hadamard-normalized
form.  The value at an integer itself, -n b_n plus what the large-argument
table's row at n gives, is ``asym.zeta_int_leq_alpha``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedOrderError


@dataclass(frozen=True)
class PowerSeries:
    """Taylor coefficients c_0..c_N of a characteristic function at 0."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 1 or len(c) < 2:
            raise DomainError("PowerSeries needs truncation order N >= 1")
        if c[0] == 0:
            raise DomainError("characteristic function vanishes at the origin (c0 = 0)")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def scaled(self, factor: complex) -> "PowerSeries":
        return PowerSeries(self.coeffs * factor)


def log_coeffs(series: PowerSeries) -> np.ndarray:
    """Log-derivative recursion: coefficients b_0..b_N of ln(F(z)/c0), b_0 = 0.

    b_1 = c_1/c_0 and
    b_j = c_j/c_0 - sum_{l<j} (l/j) (c_{j-l}/c_0) b_l.
    """
    c = series.coeffs / series.coeffs[0]
    n = series.order
    b = np.zeros(n + 1, dtype=complex)
    for j in range(1, n + 1):
        acc = c[j]
        for ell in range(1, j):
            acc -= (ell / j) * c[j - ell] * b[ell]
        b[j] = acc
    return b


def series_exp(b: np.ndarray) -> np.ndarray:
    """Coefficients of exp(sum_{m>=1} b_m z^m), truncated like the input."""
    n = len(b) - 1
    h = np.zeros(n + 1, dtype=complex)
    h[0] = 1.0
    for j in range(1, n + 1):
        acc = 0.0 + 0.0j
        for ell in range(1, j + 1):
            acc += ell * b[ell] * h[j - ell]
        h[j] = acc / j
    return h


def series_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros(order + 1, dtype=complex)
    for i in range(min(len(a), order + 1)):
        if a[i] == 0:
            continue
        jmax = min(len(b), order + 1 - i)
        out[i:i + jmax] += a[i] * b[:jmax]
    return out


def zeta_via_bell(series: PowerSeries, n: int) -> complex:
    """zeta_S(n) through ordinary Bell polynomials (cross-check route)."""
    if n < 1:
        raise DomainError("zeta_via_bell expects n >= 1")
    if n > 20:
        raise UnsupportedOrderError("Bell-polynomial route supported for n <= 20")
    if n > series.order:
        raise DomainError(f"series truncation order {series.order} < n = {n}")
    c = series.coeffs
    c0 = c[0]
    # B_{m,k}(c_1, ...) = [z^m] (sum c_j z^j)^k; build powers by convolution
    u = np.zeros(n + 1, dtype=complex)
    u[1:] = c[1:n + 1]
    power = u.copy()
    total = 0.0 + 0.0j
    for k in range(1, n + 1):
        if k > 1:
            power = series_mul(power, u, n)
        bell_nk = power[n]
        total += (-1.0) ** (k - 1) / (k * c0 ** k) * bell_nk
    return -n * total


def exact_sum_rule(series: PowerSeries, n: int, zeta_values: dict) -> complex:
    """Right side of the universal exact sum rule.

    Expresses zeta_S(n) through zeta_S(1)..zeta_S(n-1):
    the leading term (-1)^n n (1/n! - c0^{n-1} c_n / c1^n) zeta^n(1) plus the
    composition sum over j_1+...+j_k = n with n > k >= 2.  Grouped by k, the
    compositions of n form the coefficient of x^n in exp(-sum_{j<n} zeta_S(j) x^j / j),
    which absorbs the 1/n! part of the leading term, so the whole rule is
    n [x^n] exp(...) - (-1)^n n c0^{n-1} c_n / c1^n zeta^n(1), in O(n^2).
    ``zeta_values`` must map 1..n-1 to zeta_S values.
    """
    c = series.coeffs
    if c[1] == 0:
        raise DomainError("exact sum rule needs c1 != 0")
    if n < 2:
        raise DomainError("exact sum rule applies for n >= 2")
    missing = [j for j in range(1, n) if j not in zeta_values]
    if missing:
        raise DomainError(f"zeta_values missing entries for {missing}")
    c0, c1 = c[0], c[1]
    cn = c[n] if n <= series.order else 0.0
    expo = np.zeros(n + 1, dtype=complex)
    for j in range(1, n):
        expo[j] = -complex(zeta_values[j]) / j
    comps = n * series_exp(expo)[n]
    return complex(comps - (-1.0) ** n * n * c0 ** (n - 1) * cn / c1 ** n * zeta_values[1] ** n)


def hadamardize(series: PowerSeries, alpha: float) -> PowerSeries:
    """Reduce to the Hadamard-normalized series of the same order.

    Returns the Taylor coefficients of
    c0^{-1} F(z) exp(-sum_{m=1}^{floor(alpha)} b_m z^m); the result has
    c_0 = 1 and vanishing log-coefficients through floor(alpha).
    """
    k = int(math.floor(alpha))
    norm = series.coeffs / series.coeffs[0]
    if k < 1:
        return PowerSeries(norm)
    n = series.order
    b = log_coeffs(series)
    neg = np.zeros(n + 1, dtype=complex)
    neg[1:k + 1] = -b[1:k + 1]
    expo = series_exp(neg)
    return PowerSeries(series_mul(norm, expo, n))
