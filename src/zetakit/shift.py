"""Linear transformation of the underlying sequence: lambda_n = A a_n + B.

Re-expands the asymptotic coefficient table as a product of two power
series in 1/z, (1 - mu/z)^x and the powers of ln(1 - mu/z), and derives the
shifted zeta function's poles, residues, value and derivative at 0, and
integer special values.
"""

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .asym import (_ZERO_THRESHOLD, AsymExpansion, PoleInfo, PoleReport,
                   classify_poles, residue_at, zeta_int_leq_alpha)
from .errors import DomainError
from .series import series_mul

# an Omega entry between the table's zero threshold and this is flagged as a
# possible cancellation; one at or below the threshold reads as an exact zero
_CANCEL_FLAG = 1e-10


@dataclass(frozen=True)
class ShiftParams:
    """Transformation lambda_n = A a_n + B; mu = B/A is the pure shift."""

    A: complex
    B: complex

    def __post_init__(self):
        object.__setattr__(self, "A", complex(self.A))
        object.__setattr__(self, "B", complex(self.B))
        if self.A == 0:
            raise DomainError("A must be nonzero")

    @property
    def mu(self) -> complex:
        return self.B / self.A

    def to_json_dict(self) -> dict:
        return {"A": {"re": self.A.real, "im": self.A.imag},
                "B": {"re": self.B.real, "im": self.B.imag}}

    @staticmethod
    def from_json_dict(doc: dict) -> "ShiftParams":
        return ShiftParams(complex(doc["A"]["re"], doc["A"]["im"]),
                           complex(doc["B"]["re"], doc["B"]["im"]))


def omega_table(asym: AsymExpansion, shift: ShiftParams,
                ln_f_shifted: complex | None = None) -> AsymExpansion:
    """Asymptotic table of ln F(z - B/A) from the table of ln F(z).

    With u = 1/z and x = alpha - j0/m, each source term re-expands as
    d_{j0,k} z^x (1 - mu u)^x (ln z + ln(1 - mu u))^k, a product of two
    power series in u whose u^p coefficient lands on Omega_{j0+mp, l}.  So
    every output entry is a finite combination of input entries with
    smaller or equal j, the full depth N is kept, and B = 0 is the
    identity.  The branch angle becomes psi + Arg(A); ``ln_f_shifted`` is
    the sector-continued ln F(-B/A) and replaces the stored boundary value
    (kept unchanged when omitted, which is only correct for B = 0).
    """
    mu = shift.mu
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
                         psi=asym.psi + cmath.phase(shift.A), ln_f0=ln_f0,
                         delta=asym.delta)


@dataclass(frozen=True)
class ShiftedReport:
    """Pole/special-value report for the transformed sequence."""

    omega: AsymExpansion
    report: PoleReport
    values: dict
    flags: tuple = ()


def shifted_values(asym: AsymExpansion, shift: ShiftParams, n_values=(),
                   ln_f_shifted: complex | None = None) -> ShiftedReport:
    """Pole structure and special values of zeta_{S_{A,B}} = A^(-s) zeta_Omega.

    Residues are A^(-x) times those of the table of ln F(z/A), whose zeros
    are A a_n; at a simple pole that is A^(-x) times Omega's.  zeta(0) is
    read from the transformed table; zeta'(0) = zeta_Omega'(0) - ln A
    zeta_Omega(0), None for B != 0 without ``ln_f_shifted``; integer values
    n <= 0 in ``n_values`` carry the A^(-n) prefactor (a positive n <= alpha
    would need the Taylor side of F(z - B/A), which is not kept).
    ``flags`` notes each Omega entry of modulus in (1e-14, 1e-10), where
    digits may have cancelled; smaller entries are exact zeros to every
    table reader.
    """
    om = omega_table(asym, shift, ln_f_shifted=ln_f_shifted)
    base = classify_poles(om)
    A = shift.A
    ln_a = cmath.log(A)
    poles = []
    flags = []
    for p in base.poles:    # A^x times row j of ln F(z/A): ln(z/A) = ln z - ln A
        j = om.j_for_location(p.location)
        row = {(j, l): sum(math.comb(k, l) * (-ln_a) ** (k - l) * om.entry(j, k)
                           for k in range(l, om.M + 1)) for l in range(om.M + 1)}
        res = residue_at(replace(om, d=row), j)
        poles.append(PoleInfo(p.location, p.order, A ** complex(-p.location) * res))
    for (j, k), v in om.d.items():
        if _ZERO_THRESHOLD < abs(v) < _CANCEL_FLAG:
            flags.append(f"possible cancellation in Omega[{j},{k}] = {abs(v):.2e}")
    zeta_prime0 = None
    if base.zeta_prime0 is not None and (ln_f_shifted is not None or shift.B == 0):
        zeta_prime0 = base.zeta_prime0 - base.zeta0 * ln_a
    report = PoleReport(tuple(poles), base.zeta0, base.zeta0_is_pole, zeta_prime0)
    values = {}
    for n in n_values:
        n = int(n)
        if n == 0:
            values[0] = base.zeta0
            continue
        values[n] = A ** complex(-n) * zeta_int_leq_alpha(om, None, n)
    return ShiftedReport(om, report, values, tuple(flags))

