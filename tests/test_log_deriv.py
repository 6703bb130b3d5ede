"""The model contract: log_deriv is an any-shape array evaluator of F'/F.

Every catalog model is checked against mpmath and against its own scalar
``eval`` on circle points, ray points and points on both sides of each
evaluator switch radius.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from zetakit import airy_model, chf_model, hurwitz_model, pcf_model, riemann_model

TOL = 1e-12


def _ref_hurwitz(a):
    return lambda z: mp.digamma(a - z)


def _ref_airy(z):
    return -mp.airyai(-z, 1) / mp.airyai(-z)


def _ref_pcf(a):
    # DLMF 12.8.2: U'(a, z) = -z/2 U(a, z) - (a + 1/2) U(a + 1, z)
    return lambda z: -z / 2 - (a + 0.5) * mp.pcfu(a + 1, z) / mp.pcfu(a, z)


def _ref_chf(a, b):
    return lambda z: (a / b) * mp.hyp1f1(a + 1, b + 1, z) / mp.hyp1f1(a, b, z)


def _circle(r, psi, n=12):
    return r * np.exp(1j * np.linspace(psi - 2 * math.pi, psi, n, endpoint=False))


def _ray(psi, ts):
    return np.asarray(ts, dtype=float) * cmath.exp(1j * psi)


def _polar(rs, args):
    return np.array([r * cmath.exp(1j * t) for r in rs for t in args])


# (model builder, mpmath log-derivative, points).  Airy on the positive real
# axis at the 6.5 switch is held to SEAM_TOL: the Taylor sum there loses
# e^{(2/3)|z|^{3/2}} to cancellation and the Poincare sums are truncated at
# a smallest term of e^{-2|zeta|}, so both branches reach about 2e-11.
SEAM_TOL = 5e-11
CASES = {
    "riemann": (riemann_model, _ref_hurwitz(1),
                [_circle(0.85, 3 * math.pi / 4), _ray(3 * math.pi / 4, [0.9, 3.0, 12.0, 80.0, 400.0])]),
    "hurwitz": (lambda: hurwitz_model(0.3), _ref_hurwitz(mp.mpf("0.3")),
                [_circle(0.25, 3 * math.pi / 4), _ray(3 * math.pi / 4, [0.3, 2.0, 25.0, 300.0])]),
    "hurwitz-negative": (lambda: hurwitz_model(-1.7), _ref_hurwitz(mp.mpf("-1.7")),
                         [_circle(0.25, 3 * math.pi / 4), _ray(3 * math.pi / 4, [0.3, 2.0, 7.0])]),
    "airy": (airy_model, _ref_airy,
             [_circle(1.99, 1.6), _ray(1.6, [2.0, 5.0, 10.9, 11.1, 40.0, 300.0]),
              _polar([6.4], [0.2, -0.2]), _polar([10.9, 11.1], [0.5, -1.2, 1.6]),
              (_polar([6.4, 6.6], [0.0, 0.2, -0.2]), SEAM_TOL)]),
    "pcf": (lambda: pcf_model(0.3), _ref_pcf(mp.mpf("0.3")),
            [_circle(1.0, 0.0), _ray(0.0, [1.0, 2.99, 3.01, 7.0, 11.99, 12.01, 60.0]),
             _polar([2.99, 3.01, 6.0, 11.99, 12.01], [0.7, -1.2, 1.6, -1.6])]),
    "pcf-integer": (lambda: pcf_model(2.0), _ref_pcf(mp.mpf(2)),
                    [_circle(1.0, 0.0), _polar([3.01, 8.0, 11.99], [0.0, 1.0, -1.5])]),
    "chf": (lambda: chf_model(0.5, 1.5), _ref_chf(mp.mpf("0.5"), mp.mpf("1.5")),
            [_circle(0.9, 0.0), _ray(0.0, [1.0, 20.0, 200.0]),
             np.array([-0.5 + 0.3j, -5.0, -20.0 + 1.0j, -150.0])]),
    "chf-complex": (lambda: chf_model(0.3 + 0.4j, 1.1), _ref_chf(mp.mpc(0.3, 0.4), mp.mpf("1.1")),
                    [_circle(0.9, 0.0), np.array([5.0, -3.0 + 0.5j, -40.0])]),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    build, ref, groups = CASES[request.param]
    groups = [g if isinstance(g, tuple) else (g, TOL) for g in groups]
    z = np.concatenate([g for g, _ in groups])
    tol = np.concatenate([np.full(len(g), t) for g, t in groups])
    return build(), ref, z, tol


def test_shapes_kept_and_complex(case):
    model, _, z, _ = case
    for arr in (np.asarray(z[0]), z[:6], z[:6].reshape(2, 3)):
        out = model.log_deriv(arr)
        assert out.shape == arr.shape
        assert np.iscomplexobj(out)
        assert np.all(out.reshape(-1) == model.log_deriv(arr.reshape(-1)))


def test_matches_mpmath(case):
    model, ref, z, tol = case
    got = model.log_deriv(z)
    want = np.array([complex(ref(mp.mpc(w))) for w in z])
    err = np.abs(got - want) / np.abs(want) / tol
    assert err.max() < 1.0, (z[np.argmax(err)], err.max())


def test_matches_scalar_eval(case):
    model, _, z, _ = case
    z = z[np.abs(z) <= 30.0]       # F itself over- or underflows further out
    got = model.log_deriv(z)
    pairs = [model.eval(w) for w in z]
    want = np.array([fp / f for f, fp in pairs])
    err = np.abs(got - want) / np.abs(want)
    assert err.max() < TOL, (z[np.argmax(err)], err.max())
    assert all(isinstance(v, complex) for pair in pairs for v in pair)
