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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning, DomainError, PoleError, StripError
from .series import LogCoeffs, PowerSeries, log_coeffs

_ZERO_THRESHOLD = 1e-14
_INT_TOL = 1e-9
_TWO_PI_I = 2j * math.pi


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
        j = round(jf)
        if abs(jf - j) <= _INT_TOL and 0 <= j <= self.N:
            return j
        return None

    def max_log_power(self, j: int):
        """Largest k with |d_{j,k}| above threshold, or None if all vanish."""
        for k in range(self.M, -1, -1):
            if abs(self.d.get((j, k), 0j)) > _ZERO_THRESHOLD:
                return k
        return None

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

    def pole_at(self, x: float, tol: float = 1e-9):
        for p in self.poles:
            if abs(p.location - x) <= tol:
                return p
        return None


def log_compose(raw) -> np.ndarray:
    """Coefficients D_1..D_N of ln(1 + sum_m C_m y^m) from C_1..C_N.

    Returns an array indexed 1..N (slot 0 unused): the log-coefficient
    recursion of ``log_coeffs`` applied to the tail series.
    """
    # b_j depends on c_0..c_j only, so a padding coefficient (dropped again)
    # keeps an empty table a valid series without changing any slot
    return log_coeffs(PowerSeries([1.0, *raw, 0.0])).b[:-1]


def _laurent(asym: AsymExpansion, j: int):
    """(x0, c): the Laurent coefficients c[k] = c_{-k}, k = 0 .. K, of row j's
    ``l_asy_eval`` term at x0 = alpha - j/m; c_{-K} is the highest nonzero
    one, so K is the pole order.

    With s = x0 + eps the term is e^{i x0 psi} ray_prefactor(s) times
    sum_k d_{j,k} (x0 I_k + k I_{k-1}), where I_n = int_R^inf t^(mu-1)
    ln^n(t e^{i psi}) dt has the principal part
    sum_{q<=n} n!/(n-q)! (i psi)^(n-q) eps^(-q-1), free of R.  That of
    e^{-i psi eps} I_n is n!/eps^(n+1), and e^{i psi eps} e^{i x0 psi}
    ray_prefactor(s) = (e^{2 pi i s} - 1)/(2 pi i).  So the principal part is
    that of the product of two short series: sum_i i! d_{j,i} eps^(-i-1) and
    the Taylor series at x0 of s (e^{2 pi i s} - 1)/(2 pi i),
    g_t = x0 q_t + q_{t-1} with q_0 = (e^{2 pi i x0} - 1)/(2 pi i) and
    q_r = e^{2 pi i x0} (2 pi i)^(r-1)/r!; c_{-k} = sum_i i! d_{j,i} g_{i+1-k},
    i up to the top log power kbar above threshold.  Off the integers
    K = kbar + 1 and c_0 is not read.  At an integer e^{2 pi i x0} = 1
    exactly, so q_0 = 0, K is kbar (kbar - 1 at 0) and c_0 is the regular
    value, free of R: x0 d_{j,0} for a lone d_{j,0}, the commonest row.
    """
    x0, d, kbar = asym.alpha - j / asym.m, asym.d, asym.max_log_power(j)
    if kbar is None:
        return x0, [0j]
    n = round(x0)
    if abs(x0 - n) <= _INT_TOL:
        x0 = float(n)
        if kbar == 0:
            return x0, [x0 * d[(j, 0)]]
        order, q_prev, q = kbar - (n == 0), 0.0, 1.0
    else:
        e2 = cmath.exp(_TWO_PI_I * x0)
        order, q_prev, q = kbar + 1, (e2 - 1.0) / _TWO_PI_I, e2
    g = [x0 * q_prev]
    for t in range(1, kbar + 2):
        g.append(x0 * q + q_prev)
        q_prev, q = q, q * _TWO_PI_I / (t + 1)
    c = [0j] * (order + 1)
    fact = 1
    for i in range(kbar + 1):
        di = d.get((j, i), 0j) * fact
        for k in range(min(i + 1, order) + 1):
            c[k] += di * g[i + 1 - k]
        fact *= i + 1
    return x0, c


def residue_at(asym: AsymExpansion, j: int) -> complex:
    """Residue at s = alpha - j/m: c_{-1} of the row's ``_laurent``, 0 if regular."""
    c = _laurent(asym, j)[1]
    return c[1] if len(c) > 1 else 0j


def _grid_point(asym: AsymExpansion, j: int):
    """What row j of the table gives at its location x0 = alpha - j/m.

    The one meromorphic rule every reader shares, read off the row's
    Laurent expansion (``_laurent``): a pole (a ``PoleInfo``) of order K
    with residue c_{-1} when K >= 1, else the regular value c_0.
    """
    x0, c = _laurent(asym, j)
    return c[0] if len(c) == 1 else PoleInfo(x0, len(c) - 1, c[1])


def classify_poles(asym: AsymExpansion) -> PoleReport:
    """Pole locations, orders, and residues implied by the table.

    Every row is read by the one grid-point rule of ``_grid_point``, the
    Laurent expansion of its ``l_asy_eval`` term: the poles are the rows
    that give one.  zeta(0) is what the row at s = 0 gives (0 when there is
    none), a pole when its top log power is 2 or more.  zeta'(0) is
    reported for M <= 1.
    """
    rows = {j: _grid_point(asym, j) for j in sorted({jk[0] for jk in asym.d})}
    poles = tuple(p for p in rows.values() if isinstance(p, PoleInfo))
    zeta0 = rows.get(asym.j_for_location(0.0), 0.0 + 0.0j)
    zeta0_is_pole = isinstance(zeta0, PoleInfo)
    if zeta0_is_pole:
        zeta0 = None
    zp0 = zeta_prime_zero(asym) if asym.M <= 1 else None
    return PoleReport(poles, zeta0, zeta0_is_pole, zp0)


def zeta_prime_zero(asym: AsymExpansion, m_neg: int | None = None) -> complex:
    """Derivative of the continued zeta function at s = 0 (M <= 1 only).

    Default: i*pi*d_{j',1} + d_{j',0} - ln F(0) with (j') the grid index at
    location 0, both coefficients read as 0 when absent.  With ``m_neg``
    given (a real sequence bounded below with that many negative terms) the
    real-sequence variant i*pi*m_neg + Re d_{j',0} - pi*Im d_{j',1} - ln|F(0)|
    is returned instead.
    """
    jz = asym.j_for_location(0.0)
    if asym.M > 1:
        at0 = 0.0 + 0.0j if jz is None else _grid_point(asym, jz)
        if isinstance(at0, PoleInfo):
            raise PoleError(at0.location, at0.order, at0.residue)
        raise DomainError("zeta'(0) from the table needs M <= 1")
    d0, d1 = asym.entry(jz, 0), asym.entry(jz, 1)
    if m_neg is None:
        return 1j * math.pi * d1 + d0 - asym.ln_f0
    return (1j * math.pi * m_neg + d0.real - math.pi * d1.imag
            - asym.ln_f0.real)


def zeta_int_leq_alpha(asym: AsymExpansion, logc: LogCoeffs | None, n: int) -> complex:
    """Continued value at an integer n of the strip (must be regular).

    What the table's row at n gives (structurally zero off the grid, right
    of alpha or for an empty row), minus n b_n for n >= 1, with b_n the
    Taylor-side log-coefficient: zeta(0) is the row's value, and n > alpha
    is the recursion -n b_n.
    """
    if n < asym.strip_left_edge():
        raise StripError(
            f"n = {n} lies left of the proven strip edge {asym.strip_left_edge():.3f}")
    j = asym.j_for_location(float(n))
    value = 0.0 + 0.0j if j is None else _grid_point(asym, j)
    if isinstance(value, PoleInfo):
        raise PoleError(float(n), value.order, value.residue)
    if n >= 1:
        if logc is None:
            raise DomainError("positive n needs the Taylor log-coefficients")
        if n > logc.order:
            raise DomainError(f"series truncation order {logc.order} < n = {n}")
        return value - n * logc[n]
    return value


def _tail_integral(mu: complex, n: int, R: float, log_r: complex) -> complex:
    """Closed form of int_R^inf t^(mu-1) ln^n(t e^{i psi}) dt for Re mu < 0."""
    total = 0.0 + 0.0j
    for q in range(n + 1):
        total += ((-1.0) ** q * math.factorial(n)
                  / (mu ** q * math.factorial(n - q))) * log_r ** (n - q)
    return -(R ** mu) / mu * total


def ray_prefactor(s: complex, psi: float) -> complex:
    """e^{is(pi - psi)} sin(pi s) / pi, the weight of the ray integral.

    The sine is exactly 0 at integer s, where it annihilates every ray term.
    """
    if s.imag == 0.0 and s.real == round(s.real):
        return 0.0j
    return cmath.exp(1j * s * (math.pi - psi)) * cmath.sin(math.pi * s) / math.pi


def row_term(asym: AsymExpansion, j: int, s: complex, R: float) -> complex:
    """Row j's term of ``l_asy_eval`` at s off its grid point x0 = alpha - j/m,
    ray_prefactor(s) e^{i x0 psi} sum_k d_{j,k} (x0 I_k + k I_{k-1}) with I_n
    from ``_tail_integral``: its one singularity is the row's pole, if any."""
    x0, top = asym.location(j), asym.max_log_power(j)
    if top is None:
        return 0j
    lr = complex(math.log(R), asym.psi)
    phase = cmath.exp(1j * x0 * asym.psi)
    mu = -s + x0
    acc = 0.0 + 0.0j
    for k in range(top + 1):
        djk = asym.entry(j, k)
        if djk == 0:
            continue
        acc += djk * x0 * _tail_integral(mu, k, R, lr)
        if k >= 1:
            acc += djk * k * _tail_integral(mu, k - 1, R, lr)
    return ray_prefactor(s, asym.psi) * phase * acc


def l_asy_eval(asym: AsymExpansion, s: complex, R: float) -> complex:
    """Closed-form asymptotic block of the continued representation.

    Evaluates the finite double sum obtained by integrating the subtracted
    asymptotic terms along the ray from R to infinity: the sum of the
    ``row_term`` of every row.  Within 1e-12 of a grid location the
    term of its row is what ``classify_poles`` reads off ``_laurent``: the
    regular value, or a :class:`PoleError` with the order and residue.
    Within 1e-3 of a pole it warns (``ConditioningWarning``).
    """
    s = complex(s)
    if R <= 0:
        raise DomainError("R must be positive")
    if s.real <= asym.strip_left_edge():
        raise StripError(
            f"Re s = {s.real} is left of the proven strip edge "
            f"{asym.strip_left_edge():.3f}")
    total = 0.0 + 0.0j
    for j in sorted({jk[0] for jk in asym.d}):
        dist = abs(s - asym.location(j))
        if dist < 1e-3:
            got = _grid_point(asym, j)
            if isinstance(got, PoleInfo):
                if dist < 1e-12:
                    raise PoleError(got.location, got.order, got.residue)
                warnings.warn(f"s = {s} is within {dist:.1e} of the pole at {got.location}; "
                              "conditioning is poor", ConditioningWarning, stacklevel=2)
            elif dist < 1e-12:
                total += got
                continue
        total += row_term(asym, j, s, R)
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

