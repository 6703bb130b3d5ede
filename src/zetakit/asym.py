"""Continuation engine driven by large-argument asymptotic coefficients.

An :class:`AsymExpansion` stores the coefficients d_{j,k} of the expansion

    ln F(z) ~ sum_{j,k} d_{j,k} z^{alpha - j/m} ln^k z,   z -> infinity,

holomorphic in a sector around the branch ray arg z = psi.  From the table
alone the engine classifies poles, evaluates residues, special values at
integers left of alpha, the derivative at 0, and the closed-form block of
the analytically continued representation.
"""

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PoleError, StripError
from .series import LogCoeffs

_ZERO_THRESHOLD = 1e-14
_INT_TOL = 1e-9


def heaviside(x: float) -> float:
    """Step function with the closed-at-zero convention: 1 for x >= 0."""
    return 1.0 if x >= 0 else 0.0


def _near_int(x: float, tol: float = _INT_TOL):
    r = round(x)
    return (abs(x - r) <= tol, int(r))


@dataclass(frozen=True)
class AsymExpansion:
    """Large-argument logarithmic asymptotic data of a characteristic function.

    Fields: convergence exponent ``alpha``, step denominator ``m``, maximum
    log power ``M``, depth ``N``, coefficient table ``d`` mapping (j, k) to
    complex values, branch angle ``psi``, sector-continued ``ln_f0`` (the
    limit of ln F(z) as z -> 0 inside the sector), and remainder margin
    ``delta``.
    """

    alpha: float
    m: int
    M: int
    N: int
    d: dict
    psi: float
    ln_f0: complex = 0.0
    delta: float | None = None

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("step denominator m must be a positive integer")
        if self.M < 0 or self.N < 0:
            raise DomainError("M and N must be nonnegative")
        delta = self.delta if self.delta is not None else 1.0 / (2.0 * self.m)
        object.__setattr__(self, "delta", float(delta))
        if self.N / self.m <= self.alpha - self.delta:
            raise DomainError("validity window requires N/m > alpha - delta")
        table = {}
        for (j, k), v in dict(self.d).items():
            if not (0 <= j <= self.N):
                raise DomainError(
                    f"entry j={j} lies outside the proven strip (N={self.N})")
            if not (0 <= k <= self.M):
                raise DomainError(f"entry k={k} exceeds the log degree M={self.M}")
            v = complex(v)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise DomainError("non-finite coefficient in d table")
            table[(int(j), int(k))] = v
        object.__setattr__(self, "d", table)
        object.__setattr__(self, "ln_f0", complex(self.ln_f0))

    def entry(self, j: int, k: int) -> complex:
        return self.d.get((j, k), 0.0 + 0.0j)

    def location(self, j: int) -> float:
        return self.alpha - j / self.m

    def j_for_location(self, x: float):
        """Grid index with alpha - j/m = x, or None if x is off-grid."""
        jf = self.m * (self.alpha - x)
        ok, j = _near_int(jf)
        if ok and 0 <= j <= self.N:
            return j
        return None

    def max_log_power(self, j: int):
        """Largest k with |d_{j,k}| above threshold, or None if all vanish."""
        best = None
        for k in range(self.M, -1, -1):
            if abs(self.entry(j, k)) > _ZERO_THRESHOLD:
                best = k
                break
        return best

    def strip_left_edge(self) -> float:
        return self.alpha - self.N / self.m - self.delta

    def to_json(self) -> str:
        doc = {
            "alpha": self.alpha,
            "m": self.m,
            "M": self.M,
            "N": self.N,
            "psi": self.psi,
            "lnF0": {"re": self.ln_f0.real, "im": self.ln_f0.imag},
            "delta": self.delta,
            "d": [
                {"j": j, "k": k, "re": v.real, "im": v.imag}
                for (j, k), v in sorted(self.d.items())
            ],
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "AsymExpansion":
        doc = json.loads(text) if isinstance(text, str) else text
        table = {
            (e["j"], e["k"]): complex(e["re"], e["im"]) for e in doc["d"]
        }
        return AsymExpansion(
            alpha=doc["alpha"], m=doc["m"], M=doc["M"], N=doc["N"],
            d=table, psi=doc["psi"],
            ln_f0=complex(doc["lnF0"]["re"], doc["lnF0"]["im"]),
            delta=doc.get("delta"),
        )

    def truncated(self, n_max: int) -> "AsymExpansion":
        """Copy keeping only entries with j <= n_max."""
        keep = {jk: v for jk, v in self.d.items() if jk[0] <= n_max}
        return AsymExpansion(alpha=self.alpha, m=self.m, M=self.M,
                             N=min(self.N, n_max), d=keep, psi=self.psi,
                             ln_f0=self.ln_f0, delta=None)


@dataclass(frozen=True)
class PoleInfo:
    location: float
    order: int
    residue: complex


@dataclass(frozen=True)
class PoleReport:
    poles: tuple
    zeta0: complex | None
    zeta0_is_pole: bool = False
    zeta_prime0: complex | None = None
    notes: tuple = field(default_factory=tuple)

    def pole_at(self, x: float, tol: float = 1e-9):
        for p in self.poles:
            if abs(p.location - x) <= tol:
                return p
        return None


def log_compose(raw) -> np.ndarray:
    """Coefficients D_1..D_N of ln(1 + sum_m C_m y^m) from C_1..C_N.

    Returns an array indexed 1..N (slot 0 unused).  Same recursion as the
    Taylor-side log, restated for asymptotic tail series.
    """
    c = np.concatenate(([0.0 + 0.0j], np.asarray(list(raw), dtype=complex)))
    n = len(c) - 1
    dd = np.zeros(n + 1, dtype=complex)
    for j in range(1, n + 1):
        acc = c[j]
        for ell in range(1, j):
            acc -= (ell / j) * c[j - ell] * dd[ell]
        dd[j] = acc
    return dd


def residue_at(asym: AsymExpansion, j: int) -> complex:
    """Residue at s = alpha - j/m from the coefficient table."""
    x0 = asym.location(j)
    is_int, _ = _near_int(x0)
    if is_int and abs(x0) <= _INT_TOL:
        # s = 0 with M >= 2: dedicated formula
        if asym.M < 2:
            raise DomainError("s = 0 is a regular point for M <= 1")
        return sum(
            asym.entry(j, k) * (2j * math.pi) ** (k - 1) * k
            for k in range(2, asym.M + 1)
        )
    e2 = 1.0 + 0.0j if is_int else cmath.exp(2j * math.pi * x0)
    total = 0.0 + 0.0j
    if asym.M >= 0:
        total += asym.entry(j, 0) * x0 * (e2 - 1.0)
    if asym.M >= 1:
        total += asym.entry(j, 1) * ((2j * math.pi * x0 + 1.0) * e2 - 1.0)
    if asym.M >= 2:
        for k in range(2, asym.M + 1):
            total += asym.entry(j, k) * (2j * math.pi) ** (k - 1) * e2 \
                * (2j * math.pi * x0 + k)
    res = total / (2j * math.pi)
    if abs(res) <= _ZERO_THRESHOLD and asym.max_log_power(j) is None:
        return 0.0 + 0.0j
    return res


def classify_poles(asym: AsymExpansion) -> PoleReport:
    """Pole locations, orders, and residues implied by the table.

    A grid point alpha - j/m with top nonzero log power kbar carries a pole
    of order kbar + 1 off the integers and kbar at nonzero integers; order-0
    entries are regular and omitted.  s = 0 is regular for M <= 1 with the
    stored value; for M >= 2 it is a pole of order M - 1 in general.
    """
    poles = []
    zeta0 = 0.0 + 0.0j
    zeta0_is_pole = False
    notes = []
    j_at_zero = asym.j_for_location(0.0)
    for j in sorted({jk[0] for jk in asym.d}):
        kbar = asym.max_log_power(j)
        if kbar is None:
            continue
        x0 = asym.location(j)
        is_int, _ = _near_int(x0)
        if is_int and abs(x0) <= _INT_TOL:
            if asym.M <= 1:
                zeta0 = asym.entry(j, 1)
            else:
                res0 = residue_at(asym, j)
                if abs(res0) > _ZERO_THRESHOLD:
                    poles.append(PoleInfo(0.0, asym.M - 1, res0))
                    zeta0 = None
                    zeta0_is_pole = True
                else:
                    notes.append("indeterminate at 0: M >= 2 but the order-(M-1) "
                                 "residue combination cancels")
                    zeta0 = None
            continue
        order = kbar if is_int else kbar + 1
        if order >= 1:
            poles.append(PoleInfo(x0, order, residue_at(asym, j)))
    if j_at_zero is None:
        zeta0 = 0.0 + 0.0j
    poles.sort(key=lambda p: -p.location)
    zp0 = None
    if asym.M <= 1 and not zeta0_is_pole:
        zp0 = zeta_prime_zero(asym)
    return PoleReport(tuple(poles), zeta0, zeta0_is_pole, zp0, tuple(notes))


def zeta_prime_zero(asym: AsymExpansion, m_neg: int | None = None) -> complex:
    """Derivative of the continued zeta function at s = 0 (M <= 1 only).

    Default: i*pi*d_{j',1} + d_{j',0} - ln F(0) with (j') the grid index at
    location 0, both coefficients read as 0 when absent.  With ``m_neg``
    given (a real sequence bounded below with that many negative terms) the
    real-sequence variant i*pi*m_neg + Re d_{j',0} - pi*Im d_{j',1} - ln|F(0)|
    is returned instead.
    """
    if asym.M > 1:
        jz = asym.j_for_location(0.0)
        res0 = residue_at(asym, jz) if jz is not None else 0.0 + 0.0j
        raise PoleError(0.0, asym.M - 1, res0)
    jz = asym.j_for_location(0.0)
    d0 = asym.entry(jz, 0) if jz is not None else 0.0 + 0.0j
    d1 = asym.entry(jz, 1) if jz is not None else 0.0 + 0.0j
    if m_neg is None:
        return 1j * math.pi * d1 + d0 - asym.ln_f0
    return (1j * math.pi * m_neg + d0.real - math.pi * d1.imag
            - asym.ln_f0.real)


def zeta_int_leq_alpha(asym: AsymExpansion, logc: LogCoeffs | None, n: int) -> complex:
    """Continued value at a nonzero integer n <= alpha (must be regular).

    Positive n need the Taylor-side log-coefficients; negative n are read
    off the table alone (structurally zero when the entry is absent).
    """
    if n == 0:
        raise DomainError("use classify_poles for s = 0")
    if n > asym.alpha:
        raise DomainError(f"n = {n} > alpha: use the positive-integer recursion")
    if n < asym.strip_left_edge():
        raise StripError(
            f"n = {n} lies left of the proven strip edge {asym.strip_left_edge():.3f}")
    j = asym.j_for_location(float(n))
    if j is not None:
        kbar = asym.max_log_power(j)
        if kbar is not None and kbar >= 1:
            raise PoleError(float(n), kbar, residue_at(asym, j))
    d_entry = asym.entry(j, 0) if j is not None else 0.0 + 0.0j
    if n >= 1:
        if logc is None:
            raise DomainError("positive n <= alpha needs the Taylor log-coefficients")
        if n > logc.order:
            raise DomainError("log-coefficients truncated below n")
        return n * (d_entry - logc[n])
    return n * d_entry


def _tail_integral(mu: complex, n: int, R: float, log_r: complex) -> complex:
    """Closed form of int_R^inf t^(mu-1) ln^n(t e^{i psi}) dt for Re mu < 0."""
    total = 0.0 + 0.0j
    for q in range(n + 1):
        total += ((-1.0) ** q * math.factorial(n)
                  / (mu ** q * math.factorial(n - q))) * log_r ** (n - q)
    return -(R ** mu) / mu * total


def ray_prefactor(s: complex, psi: float) -> complex:
    """e^{is(pi - psi)} sin(pi s) / pi, the weight of the ray integral."""
    return cmath.exp(1j * s * (math.pi - psi)) * cmath.sin(math.pi * s) / math.pi


def l_asy_eval(asym: AsymExpansion, s: complex, R: float) -> complex:
    """Closed-form asymptotic block of the continued representation.

    Evaluates the finite double sum obtained by integrating the subtracted
    asymptotic terms along the ray from R to infinity.  At grid locations
    the regular limit is taken; pole locations raise :class:`PoleError`
    carrying the residue.
    """
    s = complex(s)
    if R <= 0:
        raise DomainError("R must be positive")
    if s.real <= asym.strip_left_edge():
        raise StripError(
            f"Re s = {s.real} is left of the proven strip edge "
            f"{asym.strip_left_edge():.3f}")
    lr = complex(math.log(R), asym.psi)
    pref = ray_prefactor(s, asym.psi)
    total = 0.0 + 0.0j
    for j in sorted({jk[0] for jk in asym.d}):
        x0 = asym.location(j)
        kbar = asym.max_log_power(j)
        if kbar is None:
            continue
        phase = cmath.exp(1j * x0 * asym.psi)
        if abs(s - x0) < 1e-12:
            # on-grid point: regular limit or pole
            is_int, n_int = _near_int(x0)
            order = (kbar if is_int else kbar + 1)
            if is_int and abs(x0) <= _INT_TOL and asym.M <= 1:
                total += asym.entry(j, 1)
                continue
            if is_int and order == 0:
                total += x0 * asym.entry(j, 0)
                continue
            raise PoleError(x0, order, residue_at(asym, j))
        mu = -s + x0
        acc = 0.0 + 0.0j
        for k in range(kbar + 1):
            djk = asym.entry(j, k)
            if djk == 0:
                continue
            acc += djk * x0 * _tail_integral(mu, k, R, lr)
            if k >= 1:
                acc += djk * k * _tail_integral(mu, k - 1, R, lr)
        total += pref * phase * acc
    return total


def ray_tail_derivative(asym: AsymExpansion, t):
    """d/dt of the truncated asymptotic expansion of ln F(t e^{i psi}).

    Vectorized over a real node array t > 0; this is the subtraction term
    in the continued representation's ray integrand.
    """
    t = np.asarray(t, dtype=float)
    lt = np.log(t) + 1j * asym.psi
    out = np.zeros(t.shape, dtype=complex)
    for (j, k), djk in asym.d.items():
        x0 = asym.location(j)
        phase = cmath.exp(1j * x0 * asym.psi)
        base = djk * phase * t ** (x0 - 1.0)
        if k == 0:
            out += base * x0
        else:
            out += base * lt ** (k - 1) * (k + x0 * lt)
    return out


def asym_lnf_on_ray(asym: AsymExpansion, t):
    """Truncated asymptotic value of ln F(t e^{i psi}) at real t > 0."""
    t = np.asarray(t, dtype=float)
    lt = np.log(t) + 1j * asym.psi
    out = np.zeros(t.shape, dtype=complex)
    for (j, k), djk in asym.d.items():
        x0 = asym.location(j)
        phase = cmath.exp(1j * x0 * asym.psi)
        out += djk * phase * t ** x0 * lt ** k
    return out
