"""Linear transformation of the underlying sequence: lambda_n = A a_n + B.

Transforms the asymptotic coefficient table through the Stirling/binomial
re-expansion, and derives the shifted zeta function's poles, residues,
value and derivative at 0, and integer special values.
"""

import cmath
import math
from dataclasses import dataclass

from .asym import (AsymExpansion, PoleInfo, PoleReport, classify_poles,
                   zeta_int_leq_alpha, zeta_prime_zero)
from .errors import DomainError
from .kernels import binomial_general, stirling_first
from .series import LogCoeffs

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


def mu_coeff(p: int, l: int, k: int, j: int, shift: complex,
             alpha: float, m: int) -> complex:
    """Re-expansion coefficient of (z - shift)^(alpha - j/m) ln^k(z - shift).

    The coefficient of z^(alpha - j/m) ln^l(z) z^(-p-k+l) inside the
    binom(k, l) bracket: a finite sum over Stirling numbers of the first
    kind and generalized binomials.
    """
    if not (0 <= l <= k):
        raise DomainError("mu_coeff needs 0 <= l <= k")
    shift = complex(shift)
    total = 0.0 + 0.0j
    kl = k - l
    for n in range(p + 1):
        s_val = stirling_first(kl + n, kl)
        if s_val == 0.0:
            continue
        total += (math.factorial(kl) / math.factorial(kl + n)) \
            * binomial_general(alpha - j / m, p - n) * s_val
    return (-shift) ** (kl + p) * total


def omega_table(asym: AsymExpansion, shift: ShiftParams,
                new_psi: float | None = None,
                ln_f_shifted: complex | None = None) -> AsymExpansion:
    """Asymptotic table of ln F(z - B/A) from the table of ln F(z).

    Every output entry is an exact finite combination of input entries with
    smaller or equal j, so the full depth N is preserved; for B = 0 the
    re-expansion is the identity and the input entries are returned.
    ``new_psi`` defaults to psi + Arg(A) (exact for B = 0); ``ln_f_shifted``
    is the sector-continued ln F(-B/A) and replaces the stored boundary value
    (kept unchanged when omitted, which is only correct for B = 0).
    """
    mu = shift.mu
    a, m, M, N = asym.alpha, asym.m, asym.M, asym.N
    if mu == 0:
        out = {jk: v for jk, v in asym.d.items() if v != 0}
    else:
        out = {}
        for j in range(N + 1):
            for pw in range(M + 1):
                acc = 0.0 + 0.0j
                lmax = min(j // m, M - pw)
                for l in range(lmax + 1):
                    nmax = j // m - l
                    for n in range(nmax + 1):
                        src_j = j - m * (l + n)
                        d_src = asym.entry(src_j, l + pw)
                        if d_src == 0:
                            continue
                        acc += math.comb(l + pw, pw) * d_src * mu_coeff(
                            n, pw, l + pw, src_j, mu, a, m)
                if acc != 0:
                    out[(j, pw)] = acc
    if new_psi is None:
        new_psi = asym.psi + cmath.phase(shift.A)
    ln_f0 = asym.ln_f0 if ln_f_shifted is None else complex(ln_f_shifted)
    return AsymExpansion(alpha=a, m=m, M=M, N=N, d=out, psi=new_psi,
                         ln_f0=ln_f0, delta=asym.delta)


@dataclass(frozen=True)
class ShiftedReport:
    """Pole/special-value report for the transformed sequence."""

    omega: AsymExpansion
    report: PoleReport
    values: dict
    flags: tuple = ()


def shifted_values(asym: AsymExpansion, shift: ShiftParams,
                   logc_shifted: LogCoeffs | None = None,
                   n_values=(), new_psi: float | None = None,
                   ln_f_shifted: complex | None = None) -> ShiftedReport:
    """Pole structure and special values of zeta_{S_{A,B}}.

    Residues pick up the factor A^(j/m - alpha); zeta(0) is read from the
    transformed table; zeta'(0) adds the -Omega_{j',1} ln A term; integer
    values in ``n_values`` carry the A^(-n) prefactor (positive n need
    ``logc_shifted``, the log-coefficients of F(z - B/A) about 0).
    """
    om = omega_table(asym, shift, new_psi=new_psi, ln_f_shifted=ln_f_shifted)
    base = classify_poles(om)
    A = shift.A
    ln_a = cmath.log(A)
    poles = []
    flags = []
    for p in base.poles:
        poles.append(PoleInfo(p.location, p.order,
                              A ** complex(-p.location) * p.residue))
    for (j, k), v in om.d.items():
        if 0 < abs(v) < _CANCEL_FLAG:
            flags.append(f"possible cancellation in Omega[{j},{k}] = {abs(v):.2e}")
    zeta_prime0 = None
    if om.M <= 1 and not base.zeta0_is_pole:
        jz = om.j_for_location(0.0)
        om1 = om.entry(jz, 1) if jz is not None else 0.0
        zeta_prime0 = zeta_prime_zero(om) - om1 * ln_a
    report = PoleReport(tuple(poles), base.zeta0, base.zeta0_is_pole,
                        zeta_prime0, base.notes)
    values = {}
    for n in n_values:
        n = int(n)
        if n == 0:
            values[0] = base.zeta0
            continue
        values[n] = A ** complex(-n) * zeta_int_leq_alpha(om, logc_shifted, n)
    return ShiftedReport(om, report, values, tuple(flags))


def rightmost_pole_check(asym: AsymExpansion, shift: ShiftParams):
    """Order invariance and residue ratio at the rightmost pole s = alpha.

    Returns (order, ratio) where ratio is the transformed residue divided
    by the original one; the transformation theory predicts A^(-alpha).
    """
    orig = classify_poles(asym)
    p0 = orig.pole_at(asym.alpha)
    if p0 is None:
        raise DomainError("s = alpha is not a pole of the input table")
    shifted = shifted_values(asym, shift)
    p1 = shifted.report.pole_at(asym.alpha)
    if p1 is None or p1.order != p0.order:
        raise DomainError("transformed table lost the rightmost pole or its order")
    return p1.order, p1.residue / p0.residue
