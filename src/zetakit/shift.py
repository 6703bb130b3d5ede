"""Linear transformation of the underlying sequence: lambda_n = A a_n + B.

Re-expands the asymptotic coefficient table as a product of two power
series in 1/z, (1 - mu/z)^x and the powers of ln(1 - mu/z), and derives the
shifted zeta function's poles, residues, value and derivative at 0, and
integer special values.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .asym import (_ZERO_THRESHOLD, AsymExpansion, PoleInfo, PoleReport, _laurent,
                   classify_poles, zeta_int_leq_alpha)
from .errors import DomainError
from .series import series_mul

# an Omega entry between the table's zero threshold and this is flagged as a
# possible cancellation; one at or below the threshold reads as an exact zero
_CANCEL_FLAG = 1e-10


def omega_table(asym: AsymExpansion, A: complex, B: complex,
                ln_f_shifted: complex | None = None) -> AsymExpansion:
    """Asymptotic table of ln F(z - B/A) from the table of ln F(z), A != 0.

    With u = 1/z and x = alpha - j0/m, each source term re-expands as
    d_{j0,k} z^x (1 - mu u)^x (ln z + ln(1 - mu u))^k, a product of two
    power series in u whose u^p coefficient lands on Omega_{j0+mp, l}.  So
    every output entry is a finite combination of input entries with
    smaller or equal j, the full depth N is kept, and B = 0 is the
    identity.  The branch angle becomes psi + Arg(A); ``ln_f_shifted`` is
    the sector-continued ln F(-B/A) and replaces the stored boundary value
    (kept unchanged when omitted, which is only correct for B = 0).
    """
    A, B = complex(A), complex(B)
    if A == 0:
        raise DomainError("A must be nonzero")
    mu = B / A
    m, M, N = asym.m, asym.M, asym.N
    p_max = N // m
    mu_pow = mu ** np.arange(p_max + 1)
    log1m = np.r_[0.0, -mu_pow[1:] / np.arange(1, p_max + 1)]      # ln(1 - mu u)
    log_pows = [np.ones(1, dtype=complex)]                         # its powers 0..M
    for _ in range(M):
        log_pows.append(series_mul(log_pows[-1], log1m, p_max))
    omega = np.zeros((N + 1, M + 1), dtype=complex)
    for (j0, k), d in asym.d.items():
        n = (N - j0) // m
        ratio = (np.arange(n) - asym.location(j0)) / np.arange(1.0, n + 1)
        power = np.cumprod(np.r_[1.0, ratio]) * mu_pow[:n + 1]    # (1 - mu u)^x
        for l in range(k + 1):
            omega[j0::m, l] += math.comb(k, l) * d * series_mul(power, log_pows[k - l], n)
    ln_f0 = asym.ln_f0 if ln_f_shifted is None else complex(ln_f_shifted)
    return AsymExpansion(alpha=asym.alpha, m=m, M=M, N=N,
                         d={jk: v for jk, v in np.ndenumerate(omega) if v != 0},
                         psi=asym.psi + cmath.phase(A), ln_f0=ln_f0,
                         delta=asym.delta)


@dataclass(frozen=True)
class ShiftedReport:
    """Pole/special-value report for the transformed sequence."""

    omega: AsymExpansion
    report: PoleReport
    values: dict
    flags: tuple = ()


def shifted_values(asym: AsymExpansion, A: complex, B: complex, n_values=(),
                   ln_f_shifted: complex | None = None) -> ShiftedReport:
    """Pole structure and special values of zeta_{S_{A,B}} = A^(-s) zeta_Omega.

    The residue at a pole x of order K is A^(-x) sum_{i<K} (-ln A)^i/i!
    c_{-1-i}, with c the Laurent coefficients of Omega's row at x
    (``_laurent``); at a simple pole that is A^(-x) times Omega's.  zeta(0)
    is read from the transformed table; zeta'(0) = zeta_Omega'(0) - ln A
    zeta_Omega(0), None for B != 0 without ``ln_f_shifted``; integer values
    n <= 0 in ``n_values`` carry the A^(-n) prefactor (a positive n would
    need the Taylor side of F(z - B/A), which is not kept).
    ``flags`` notes each Omega entry of modulus in (1e-14, 1e-10), where
    digits may have cancelled; smaller entries are exact zeros to every
    table reader.
    """
    om = omega_table(asym, A, B, ln_f_shifted=ln_f_shifted)
    base = classify_poles(om)
    A = complex(A)
    ln_a = cmath.log(A)
    poles = []
    flags = []
    for p in base.poles:    # A^(-s) = A^(-x) sum_i (-ln A)^i/i! (s - x)^i
        c = _laurent(om, om.j_for_location(p.location))[1]
        res = sum((-ln_a) ** i / math.factorial(i) * c[1 + i] for i in range(p.order))
        poles.append(PoleInfo(p.location, p.order, A ** complex(-p.location) * res))
    for (j, k), v in om.d.items():
        if _ZERO_THRESHOLD < abs(v) < _CANCEL_FLAG:
            flags.append(f"possible cancellation in Omega[{j},{k}] = {abs(v):.2e}")
    zeta_prime0 = None
    if base.zeta_prime0 is not None and (ln_f_shifted is not None or B == 0):
        zeta_prime0 = base.zeta_prime0 - base.zeta0 * ln_a
    report = PoleReport(tuple(poles), base.zeta0, base.zeta0_is_pole, zeta_prime0)
    values = {}
    for n in n_values:
        values[int(n)] = A ** complex(-n) * zeta_int_leq_alpha(om, None, int(n))
    return ShiftedReport(om, report, values, tuple(flags))

