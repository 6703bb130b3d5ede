"""Greedy barycentric rational interpolation and feature location.

The fitting loop follows the adaptive Antoulas-Anderson scheme: the point
of largest residual joins the support set, and the weights minimize the
linearized residual over the remaining points subject to a unit-norm
constraint (smallest right singular vector of the Loewner matrix).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class BarycentricModel:
    """Rational approximant r = N/D in barycentric form.

    N(s) = sum w_j f_j / (s - z_j), D(s) = sum w_j / (s - z_j); at support
    points the limit value f_j is returned directly.
    """

    support: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    max_residual: float = 0.0
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "support", np.asarray(self.support, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=complex))
        if not (len(self.support) == len(self.values) == len(self.weights)):
            raise DomainError("support, values, weights must have equal length")

    @property
    def degree(self) -> int:
        return len(self.support)

    def __call__(self, s):
        return bary_eval(self, s)


def aaa_fit(points, samples, rel_tol: float = 1e-13,
            max_degree: int = 100) -> BarycentricModel:
    """Fit a barycentric rational model to samples on a point set.

    Stops when the largest residual drops below ``rel_tol`` times the
    sample scale, or at ``max_degree`` support points (best-effort model
    with the reached residual recorded).  The weights are the last row of
    V^H from the thin SVD of the Loewner matrix (``full_matrices=False``):
    U is formed only in the columns V^H needs, which leaves V^H unchanged.
    """
    z = np.asarray(points, dtype=float).ravel()
    f = np.asarray(samples, dtype=complex).ravel()
    if len(z) != len(f):
        raise DomainError("points and samples must have equal length")
    if len(z) < 4 or len(np.unique(z)) < 4:
        raise DomainError("need at least 4 distinct sample points")
    if not np.all(np.isfinite(f)):
        raise DomainError("samples must be finite")
    scale = np.max(np.abs(f))
    if scale == 0.0:
        return BarycentricModel(z[:1], f[:1], np.array([1.0 + 0j]), 0.0, True)
    tol_abs = rel_tol * scale
    mask = np.ones(len(z), dtype=bool)     # points not yet in the support
    r = np.full(len(z), np.mean(f), dtype=complex)
    support_idx = []
    wj = np.array([1.0 + 0j])
    for _ in range(min(max_degree, len(z) - 1)):
        resid = np.abs(f - r)
        resid[~mask] = 0.0
        jj = int(np.argmax(resid))
        if resid[jj] <= tol_abs and support_idx:
            break
        support_idx.append(jj)
        mask[jj] = False
        zj = z[support_idx]
        fj = f[support_idx]
        C = 1.0 / (z[mask, None] - zj[None, :])
        A = (f[mask, None] - fj[None, :]) * C
        vh = np.linalg.svd(A, full_matrices=False)[2]
        wj = vh[-1, :].conj()
        num = C.dot(wj * fj)
        den = C.dot(wj)
        r = f.copy()
        r[mask] = num / den
    resid = np.abs(f - r)
    resid[~mask] = 0.0
    worst = float(np.max(resid))
    return BarycentricModel(z[support_idx], f[support_idx], wj,
                            float(worst / scale), bool(worst <= tol_abs))


def _num_den(model: BarycentricModel, x):
    """Numerator and denominator at points x off the support, summed as per point."""
    c = 1.0 / (np.asarray(x)[..., None] - model.support)
    return (c * (model.weights * model.values)).sum(-1), (c * model.weights).sum(-1)


def bary_eval(model: BarycentricModel, s) -> complex:
    """Evaluate the approximant; support points return the stored values."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    with np.errstate(divide="ignore", invalid="ignore"):
        num, den = _num_den(model, s_arr)
        out = np.where(den == 0, complex(math.inf, math.inf), num / den)
    hit = s_arr[..., None] == model.support
    out = np.where(hit.any(-1), model.values[hit.argmax(-1)], out)
    return out if np.ndim(s) else complex(out[0])


_REAL_TOL = 1e-9      # a root is real when |Im| <= _REAL_TOL * interval length


def _roots(z, a):
    """Zeros of sum_j a_j / (x - z_j): the eigenvalues of the arrowhead pencil
    (Nakatsukasa, Sete & Trefethen 2018) deflated onto {v : a^T v = 0}, that is
    of Q^H Z Q - (Q^H 1)(a^T Z Q) / sum(a), each polished by three Newton steps
    on the sum in extended precision.  If sum(a) = 0 the sum equals
    sum_{j<m} a_j (z_j - z_m)/(x - z_j) over (x - z_m), with the same zeros."""
    if len(z) < 2:
        return np.empty(0, dtype=complex)
    if a.sum() == 0:
        return _roots(z[:-1], a[:-1] * (z[:-1] - z[-1]))
    q = np.linalg.qr(a.conj()[:, None], mode="complete")[0][:, 1:]
    m = (q.conj().T * z) @ q - np.outer(q.conj().sum(0), (a * z) @ q) / a.sum()
    x = np.linalg.eigvals(m).astype(np.clongdouble)
    for _ in range(3):
        c = 1.0 / (x[:, None] - z)
        x += (c * a).sum(-1) / (c * c * a).sum(-1)
    return x


def find_real_features(model: BarycentricModel, interval):
    """Real zeros and poles of the approximant on an interval: the real roots
    of the barycentric numerator (weights w f) and denominator (weights w)."""
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise DomainError("empty interval")
    found = []
    for a in (model.weights * model.values, model.weights):
        x = _roots(model.support, a)
        keep = (np.abs(x.imag) <= _REAL_TOL * (hi - lo)) & (x.real >= lo) & (x.real <= hi)
        found.append(sorted(float(v) for v in x.real[keep]))
    return tuple(found)


def derivative_at(model: BarycentricModel, s: float) -> complex:
    """Closed-form derivative of the approximant (Schneider & Werner 1986):
    r'(s) = sum w_j c_j^2 (r(s) - f_j) / sum w_j c_j with c_j = 1/(s - z_j); at a
    support point z_k, sum_{j!=k} w_j (f_j - f_k)/(z_k - z_j) / w_k.  Summed in
    extended precision: left of the samples the terms cancel by about 1e6."""
    w, f = (np.asarray(v, dtype=np.clongdouble) for v in (model.weights, model.values))
    d = np.clongdouble(s) - model.support
    if np.any(d == 0):
        k, off = np.argmin(np.abs(d)), d != 0
        return complex((w[off] * (f[off] - f[k]) / d[off]).sum() / w[k])
    c = 1.0 / d
    r = (w * f * c).sum() / (w * c).sum()
    return complex((w * c * c * (r - f)).sum() / (w * c).sum())
