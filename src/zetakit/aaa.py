"""Greedy barycentric rational interpolation and feature location.

The fitting loop follows the adaptive Antoulas-Anderson scheme: the point
of largest residual joins the support set, and the weights minimize the
linearized residual over the remaining points subject to a unit-norm
constraint (smallest right singular vector of the Loewner matrix).
"""

import json
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

    def to_json(self) -> str:
        return json.dumps({
            "support": list(self.support),
            "values": [{"re": v.real, "im": v.imag} for v in self.values],
            "weights": [{"re": w.real, "im": w.imag} for w in self.weights],
        })

    @staticmethod
    def from_json(text: str) -> "BarycentricModel":
        doc = json.loads(text) if isinstance(text, str) else text
        return BarycentricModel(
            np.asarray(doc["support"], dtype=float),
            np.asarray([complex(e["re"], e["im"]) for e in doc["values"]]),
            np.asarray([complex(e["re"], e["im"]) for e in doc["weights"]]),
        )


def aaa_fit(points, samples, rel_tol: float = 1e-13,
            max_degree: int = 100) -> BarycentricModel:
    """Fit a barycentric rational model to samples on a point set.

    Stops when the largest residual drops below ``rel_tol`` times the
    sample scale, or at ``max_degree`` support points (best-effort model
    with the reached residual recorded).
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
        _, _, vh = np.linalg.svd(A)
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


def _bisect_real_root(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    flo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if hi - lo < tol:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_real_features(model: BarycentricModel, interval, step: float = 1e-3):
    """Real zeros and poles of the approximant on an interval.

    Evaluates the barycentric numerator and denominator on a grid as one
    (grid x support) matrix product and bisects sign changes of their real
    parts one point at a time.  Grid points within 1e-6 of a support point
    are dropped (the denominator changes sign spuriously there).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise DomainError("empty interval")
    n = max(8, int(math.ceil((hi - lo) / step)))
    grid = np.linspace(lo, hi, n + 1)
    grid = grid[np.all(np.abs(grid[:, None] - model.support) > 1e-6, axis=1)]
    found = ([], [])                       # zeros of N, zeros of D
    for k, vals in enumerate(_num_den(model, grid)):
        for i in np.nonzero(vals.real[:-1] * vals.real[1:] < 0)[0]:
            root = _bisect_real_root(lambda x: _num_den(model, x)[k].real, grid[i], grid[i + 1])
            if abs(_num_den(model, root)[1 - k]) > 1e-12:
                found[k].append(root)
    return found


def derivative_at(model: BarycentricModel, s: float, h: float = 1e-6) -> complex:
    """Central difference quotient of the approximant."""
    return (bary_eval(model, s + h) - bary_eval(model, s - h)) / (2.0 * h)
