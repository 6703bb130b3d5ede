import math

import numpy as np
import pytest

from zetakit import (BarycentricModel, DomainError, aaa_fit, airy_zeros,
                     bary_eval, continued_zeta, derivative_at,
                     find_real_features, zeta_series)
from zetakit.aaa import _bisect_real_root


def _scalar_scan(model, interval, step=1e-3):
    """The point-by-point scan find_real_features replaced, kept as a reference."""
    lo, hi = float(interval[0]), float(interval[1])
    n = max(8, int(math.ceil((hi - lo) / step)))
    grid = np.linspace(lo, hi, n + 1)
    keep = np.ones(len(grid), dtype=bool)
    for zj in model.support:
        keep &= np.abs(grid - zj) > 1e-6
    grid = grid[keep]

    def num_den(x):
        c = 1.0 / (x - model.support)
        return (np.sum(model.weights * model.values * c),
                np.sum(model.weights * c))

    nums = np.empty(len(grid), dtype=complex)
    dens = np.empty(len(grid), dtype=complex)
    for i, x in enumerate(grid):
        nums[i], dens[i] = num_den(x)
    zeros, poles = [], []
    nr = nums.real
    dr = dens.real
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        if nr[i] * nr[i + 1] < 0:
            root = _bisect_real_root(lambda x: num_den(x)[0].real, a, b)
            if abs(num_den(root)[1]) > 1e-12:
                zeros.append(root)
        if dr[i] * dr[i + 1] < 0:
            root = _bisect_real_root(lambda x: num_den(x)[1].real, a, b)
            if abs(num_den(root)[0]) > 1e-12:
                poles.append(root)
    return zeros, poles


def _near_support_root_model():
    # r(s) = (s + 1 + 4e-7) / (s - q), q = -2.4567, in barycentric form on the
    # support {z1, 0.5} with z1 = -1 + 3e-7; w1 / w2 = (q - z1) / (0.5 - q)
    # puts the zero of the denominator at q.  The zero of r lies 7e-7 from
    # z1, next to the grid point -1, which the scan masks.
    q = -2.4567
    z = np.array([-1.0 + 3e-7, 0.5])
    w = np.array([-2.0 * (q - z[0]) / (0.5 - q), -2.0 + 0j])
    return BarycentricModel(z, (z + 1.0 + 4e-7) / (z - q), w)


@pytest.fixture(scope="module")
def airy_fit(airy):
    zq = airy_zeros(10 ** 4, 10 ** 3)
    pts = np.linspace(2.0, 8.0, 100)
    samples = np.array([zeta_series(zq, s, 10 ** 4) for s in pts])
    return pts, samples, aaa_fit(pts, samples, rel_tol=1e-13)


class TestFit:
    def test_toy_rational_exact(self):
        pts = np.linspace(2, 8, 50)
        model = aaa_fit(pts, 1.0 / (pts + 2.0), rel_tol=1e-13)
        assert model.degree <= 3
        assert model.converged
        assert model.max_residual <= 1e-13
        zeros, poles = find_real_features(model, (-3.0, -1.0))
        assert len(poles) == 1 and abs(poles[0] + 2.0) < 1e-10
        assert zeros == []

    def test_degree_five_rational_recovery(self):
        rng = np.random.default_rng(73)
        num = rng.uniform(-1, 1, 4)
        pts = np.linspace(0.0, 1.0, 40)

        def f(x):
            return np.polyval(num, x) / ((x + 1.5) * (x + 3.0))

        model = aaa_fit(pts, f(pts), rel_tol=1e-13)
        assert model.max_residual <= 1e-12
        grid = np.linspace(0.05, 0.95, 17)
        assert np.max(np.abs(np.array([bary_eval(model, x) for x in grid])
                             - f(grid))) < 1e-12
        _, poles = find_real_features(model, (-4.0, -1.0))
        assert any(abs(p + 1.5) < 1e-8 for p in poles)
        assert any(abs(p + 3.0) < 1e-8 for p in poles)

    def test_constant_samples(self):
        pts = np.linspace(0, 1, 10)
        model = aaa_fit(pts, np.full(10, 2.7))
        assert model.degree == 1
        assert model.max_residual <= 1e-15

    def test_airy_reaches_tolerance(self, airy_fit):
        _, _, model = airy_fit
        assert model.converged
        assert model.max_residual <= 1e-13

    def test_interpolation_property(self, airy_fit):
        pts, samples, model = airy_fit
        scale = np.max(np.abs(samples))
        for z, f in zip(model.support, model.values):
            assert bary_eval(model, z) == f
        for p, f in zip(pts, samples):
            assert abs(bary_eval(model, p) - f) <= 1e-13 * scale

    def test_unit_weight_norm(self, airy_fit):
        _, _, model = airy_fit
        assert np.sum(np.abs(model.weights) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_degree_progression(self, airy_fit):
        # greedy residuals trend down but are not strictly monotone (the
        # weight regression re-solves each step); bound the backsliding and
        # require eventual convergence
        pts, samples, _ = airy_fit
        best = math.inf
        for cap in range(1, 10):
            m = aaa_fit(pts, samples, rel_tol=0.0, max_degree=cap)
            assert m.max_residual <= max(5.0 * best, 1e-14)
            best = min(best, m.max_residual)
        assert best <= 1e-13

    def test_input_validation(self):
        with pytest.raises(DomainError):
            aaa_fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            aaa_fit(np.arange(5.0), np.array([1.0, 2, 3, np.nan, 5]))


class TestEval:
    def test_at_two_matches_series(self, airy, airy_fit):
        _, _, model = airy_fit
        ref = zeta_series(airy.zeros, 2.0, 10 ** 4)
        assert abs(bary_eval(model, 2.0) - ref) < 1e-12

    def test_pole_returns_infinity_marker(self):
        model = BarycentricModel(np.array([0.0, 1.0]), np.array([1.0, 2.0 + 0j]),
                                 np.array([1.0, 1.0 + 0j]))
        # denominator 1/s + 1/(s-1) vanishes at s = 1/2
        val = bary_eval(model, 0.5)
        assert not np.isfinite(val)

    def test_array_input(self, airy_fit):
        _, _, model = airy_fit
        pts = np.concatenate((model.support[:3], [2.05, 3.3, 7.9, 0.0]))
        got = bary_eval(model, pts)
        assert got.shape == pts.shape
        assert np.array_equal(got[:3], model.values[:3])
        for x, g in zip(pts, got):
            assert abs(g - bary_eval(model, x)) <= 1e-14 * abs(g)
        assert bary_eval(model, pts.reshape(7, 1)).shape == (7, 1)

    def test_array_pole_marker(self):
        model = BarycentricModel(np.array([0.0, 1.0]), np.array([1.0, 2.0 + 0j]),
                                 np.array([1.0, 1.0 + 0j]))
        got = bary_eval(model, np.array([0.5, 0.0, 1.0, 2.0]))
        assert not np.isfinite(got[0])
        assert got[1] == 1.0 and got[2] == 2.0
        assert got[3] == bary_eval(model, 2.0)
        assert abs(got[3] - 2.5 / 1.5) <= 1e-15

    def test_json_roundtrip(self, airy_fit):
        _, _, model = airy_fit
        back = BarycentricModel.from_json(model.to_json())
        assert np.array_equal(back.support, model.support)
        assert np.array_equal(back.values, model.values)
        assert np.array_equal(back.weights, model.weights)
        assert back(3.3) == model(3.3)


class TestFeatures:
    def test_airy_zero_and_pole_windows(self, airy_fit):
        _, _, model = airy_fit
        zeros, poles = find_real_features(model, (-3.0, 0.0))
        in_zero_window = [z for z in zeros if -1.05 <= z <= -0.95]
        in_pole_window = [p for p in poles if -1.45 <= p <= -1.39]
        assert len(in_zero_window) == 1
        assert len(in_pole_window) == 1
        assert abs(in_zero_window[0] + 0.992) < 0.02
        assert abs(in_pole_window[0] + 1.42) < 0.02

    def test_matches_scalar_scan(self, airy_fit):
        toy = aaa_fit(np.linspace(2, 8, 50), 1.0 / (np.linspace(2, 8, 50) + 2.0))
        near = _near_support_root_model()
        cases = [(airy_fit[2], (-3.0, 0.0)), (toy, (-3.0, -1.0)), (toy, (-3.0, 0.0)),
                 (near, (-3.0, 0.0)), (near, (-1.5, 0.3))]
        for model, interval in cases:
            got = find_real_features(model, interval)
            assert got == _scalar_scan(model, interval)
        assert any(abs(p + 2.4567) < 1e-9 for p in find_real_features(near, (-3.0, 0.0))[1])

    def test_interval_validation(self, airy_fit):
        _, _, model = airy_fit
        with pytest.raises(DomainError):
            find_real_features(model, (1.0, 1.0))


class TestDerivative:
    def test_linear_slope(self):
        pts = np.linspace(0, 1, 12)
        model = aaa_fit(pts, 3.0 * pts + 1.0)
        assert abs(derivative_at(model, 0.5) - 3.0) < 1e-9

    def test_zeta_prime_zero_four_digits(self, airy_fit):
        _, _, model = airy_fit
        ref = math.log(3 ** (2 / 3) * math.gamma(2 / 3) / (2 * math.sqrt(math.pi)))
        got = derivative_at(model, 0.0, h=1e-6)
        assert abs(got - ref) < 5e-4

    def test_matches_continued_difference_quotient(self, airy, airy_fit):
        _, _, model = airy_fit
        got = derivative_at(model, 3.0, h=1e-6)
        h = 1e-5
        ref = (continued_zeta(airy, 3.0 + h) - continued_zeta(airy, 3.0 - h)) / (2 * h)
        assert abs(got - ref) < 1e-5


class TestCrossValidation:
    def test_against_continued_representation(self, airy, airy_fit):
        _, _, model = airy_fit
        for s in (1.0, 0.5, 0.0, -0.5):
            assert abs(bary_eval(model, s) - continued_zeta(airy, s)) < 1e-4
