import math

import mpmath as mp
import numpy as np
import pytest

from zetakit import (BarycentricModel, DomainError, aaa_fit, airy_zeros,
                     bary_eval, continued_zeta, derivative_at,
                     find_real_features, hurwitz_model, zeta_series)


def _near_support_root_model(q=-2.4567):
    # r(s) = (s + 1 + 4e-7) / (s - q) in barycentric form on the support
    # {z1, 0.5} with z1 = -1 + 3e-7; w1 / w2 = (q - z1) / (0.5 - q) puts the
    # zero of the denominator at q.  The zero of r lies 7e-7 from z1.
    z = np.array([-1.0 + 3e-7, 0.5])
    w = np.array([-2.0 * (q - z[0]) / (0.5 - q), -2.0 + 0j])
    return BarycentricModel(z, (z + 1.0 + 4e-7) / (z - q), w)


def _toy_fit():
    pts = np.linspace(2, 8, 50)
    return aaa_fit(pts, 1.0 / (pts + 2.0), rel_tol=1e-13)


def _degree_five_fit():
    num = np.random.default_rng(73).uniform(-1, 1, 4)
    pts = np.linspace(0.0, 1.0, 40)

    def f(x):
        return np.polyval(num, x) / ((x + 1.5) * (x + 3.0))

    return f, aaa_fit(pts, f(pts), rel_tol=1e-13)


def _mp_root(z, a, x0):
    """The 50-digit root near x0 of sum_j a_j / (x - z_j)."""
    with mp.workdps(50):
        terms = [(mp.mpc(complex(aj)), mp.mpf(float(zj))) for aj, zj in zip(a, z)]
        return complex(mp.findroot(lambda x: mp.fsum(aj / (x - zj) for aj, zj in terms),
                                   mp.mpf(x0)))


def _mp_derivative(model, s):
    """mp.diff of the barycentric form at 50 digits (it samples s +- h only)."""
    with mp.workdps(50):
        terms = [(mp.mpc(complex(w)), mp.mpc(complex(f)), mp.mpf(float(z)))
                 for w, f, z in zip(model.weights, model.values, model.support)]

        def r(x):
            return (mp.fsum(w * f / (x - z) for w, f, z in terms)
                    / mp.fsum(w / (x - z) for w, f, z in terms))

        return complex(mp.diff(r, mp.mpf(s)))


@pytest.fixture(scope="module")
def airy_fit(airy):
    zq = airy_zeros(10 ** 3)
    pts = np.linspace(2.0, 8.0, 100)
    samples = np.array([zeta_series(zq, s, 10 ** 4) for s in pts])
    return pts, samples, aaa_fit(pts, samples, rel_tol=1e-13)


class TestFit:
    def test_toy_rational_exact(self):
        model = _toy_fit()
        assert model.degree <= 3
        assert model.converged
        assert model.max_residual <= 1e-13
        zeros, poles = find_real_features(model, (-3.0, -1.0))
        assert len(poles) == 1 and abs(poles[0] + 2.0) < 1e-10
        assert zeros == []

    def test_degree_five_rational_recovery(self):
        f, model = _degree_five_fit()
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

    def test_features_are_roots_of_the_sums(self, airy_fit):
        cases = [(airy_fit[2], (-3.0, 0.0)), (_toy_fit(), (-3.0, 0.0)),
                 (_degree_five_fit()[1], (-4.0, 1.0)), (_near_support_root_model(), (-3.0, 0.0))]
        for model, interval in cases:
            zeros, poles = find_real_features(model, interval)
            for found, a in ((zeros, model.weights * model.values), (poles, model.weights)):
                for x in found:
                    assert abs(x - _mp_root(model.support, a, x)) < 1e-8
        zeros, poles = find_real_features(airy_fit[2], (-3.0, 0.0))
        assert (len(zeros), len(poles)) == (2, 1)

    def test_extrapolated_roots_reach_mpmath(self):
        # Far left of the samples the sums cancel: eps * sum|a c| / |sum a c^2|
        # is 5e-8 at the zero near -2.93, so the Newton sums need extended precision.
        model = hurwitz_model(0.75)
        pts = np.linspace(2.0, 8.0, 60)
        fit = aaa_fit(pts, np.array([zeta_series(model.zeros, s, 10 ** 4) for s in pts]))
        zeros, poles = find_real_features(fit, (-3.0, 0.0))
        assert len(zeros) == 2 and poles == []
        for x in zeros:
            assert abs(x - _mp_root(fit.support, fit.weights * fit.values, x)) < 1e-10

    def test_root_beside_a_support_point(self):
        model = _near_support_root_model()
        zeros, poles = find_real_features(model, (-3.0, 0.0))
        assert len(zeros) == 1 and abs(zeros[0] - (-1.0 - 4e-7)) < 1e-9
        assert len(poles) == 1 and abs(poles[0] + 2.4567) < 1e-9
        assert all(abs(x - z) > 1e-7 for x in zeros + poles for z in model.support)

    def test_pole_on_a_former_grid_point(self):
        zeros, poles = find_real_features(_near_support_root_model(q=-2.5), (-3.0, 0.0))
        assert len(poles) == 1 and abs(poles[0] + 2.5) < 1e-9
        assert len(zeros) == 1 and abs(zeros[0] - (-1.0 - 4e-7)) < 1e-9

    def test_zero_weight_sum(self):
        # w = [1, -1]: the denominator (z2 - z1) / ((s - z1)(s - z2)) has no
        # zero, and r = (1/s - 3/(s - 1)) / D vanishes at s = -1/2
        model = BarycentricModel(np.array([0.0, 1.0]), np.array([1.0, 3.0 + 0j]),
                                 np.array([1.0, -1.0 + 0j]))
        zeros, poles = find_real_features(model, (-3.0, 0.0))
        assert poles == [] and len(zeros) == 1 and abs(zeros[0] + 0.5) < 1e-15
        flat = BarycentricModel(model.support, np.array([2.0, 2.0 + 0j]), model.weights)
        assert find_real_features(flat, (-3.0, 3.0)) == ([], [])

    def test_degree_one_and_linear_fits(self):
        pts = np.linspace(0, 1, 10)
        const = aaa_fit(pts, np.full(10, 2.7))
        assert const.degree == 1
        assert find_real_features(const, (-3.0, 3.0)) == ([], [])
        line = aaa_fit(pts, 3.0 * pts + 1.0)
        zeros, poles = find_real_features(line, (-3.0, 3.0))
        assert poles == [] and len(zeros) == 1 and abs(zeros[0] + 1.0 / 3.0) < 1e-12

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
        got = derivative_at(model, 0.0)
        assert abs(got - ref) < 5e-4

    def test_matches_continued_difference_quotient(self, airy, airy_fit):
        _, _, model = airy_fit
        got = derivative_at(model, 3.0)
        h = 1e-5
        ref = (continued_zeta(airy, 3.0 + h) - continued_zeta(airy, 3.0 - h)) / (2 * h)
        assert abs(got - ref) < 1e-5

    def test_matches_mp_diff_of_barycentric_form(self, airy_fit):
        _, _, model = airy_fit
        for s in (0.0, 3.0, -0.5):
            assert abs(derivative_at(model, s) - _mp_derivative(model, s)) < 1e-10
        toy = _toy_fit()
        zk = float(toy.support[1])
        assert abs(derivative_at(toy, zk) - _mp_derivative(toy, zk)) < 1e-10
        assert abs(derivative_at(toy, zk) + 1.0 / (zk + 2.0) ** 2) < 1e-10


class TestCrossValidation:
    def test_against_continued_representation(self, airy, airy_fit):
        _, _, model = airy_fit
        for s in (1.0, 0.5, 0.0, -0.5):
            assert abs(bary_eval(model, s) - continued_zeta(airy, s)) < 1e-4
