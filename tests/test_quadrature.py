import math

import numpy as np
import pytest
from scipy.integrate import quad

from zetakit import DivergenceError, airy_zeros, euler_maclaurin_tail, quad_adaptive


def _power_tail(s):
    f = lambda t: np.asarray(t, dtype=float) ** -s
    fp = lambda t: -s * t ** (-s - 1.0)
    fppp = lambda t: -s * (s + 1.0) * (s + 2.0) * t ** (-s - 3.0)
    return f, fp, fppp


class TestQuadAdaptive:
    def test_oscillatory_complex(self):
        val = quad_adaptive(lambda x: np.exp(1j * x ** 2), 0.0, 12.0, abs_tol=1e-12)
        re = quad(lambda x: math.cos(x * x), 0, 12, epsabs=1e-13, limit=400)[0]
        im = quad(lambda x: math.sin(x * x), 0, 12, epsabs=1e-13, limit=400)[0]
        assert abs(val - complex(re, im)) < 1e-11

    def test_presplit_points(self):
        val = quad_adaptive(lambda x: np.abs(x), -1.0, 1.0, abs_tol=1e-13,
                            initial_points=[0.0])
        assert val == pytest.approx(1.0, abs=1e-13)


class TestEulerMaclaurinTail:
    def test_inverse_square_oracle(self):
        # tail from 101: zeta(2) - H_100, direct-summation oracle
        f, fp, fppp = _power_tail(2.0)
        h100 = math.fsum(1.0 / k ** 2 for k in range(1, 101))
        ref = math.pi ** 2 / 6.0 - h100
        assert abs(euler_maclaurin_tail(f, fp, fppp, 101, 2.0) - ref) <= 1e-12

    def test_inverse_square_inclusive_convention(self):
        # the estimate sums n >= N: tail(100) - tail(101) = f(100)
        f, fp, fppp = _power_tail(2.0)
        t100 = euler_maclaurin_tail(f, fp, fppp, 100, 2.0)
        t101 = euler_maclaurin_tail(f, fp, fppp, 101, 2.0)
        assert abs((t100 - t101) - 100.0 ** -2) < 1e-14

    def test_zero_function(self):
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        assert euler_maclaurin_tail(zero, lambda t: 0.0, lambda t: 0.0, 10, 2.0) == 0.0

    def test_inverse_fourth_oracle(self):
        f, fp, fppp = _power_tail(4.0)
        h49 = math.fsum(1.0 / k ** 4 for k in range(1, 50))
        ref = math.pi ** 4 / 90.0 - h49
        assert abs(euler_maclaurin_tail(f, fp, fppp, 50, 4.0) - ref) <= 1e-13

    def test_divergent_tail_detected(self):
        f = lambda t: 1.0 / np.asarray(t, dtype=float)
        with pytest.raises(DivergenceError):
            euler_maclaurin_tail(f, lambda t: -t ** -2.0, lambda t: -6.0 * t ** -4.0, 5, 1.0)


N_STARTS = (2, 5, 11, 101, 2001, 10001)


def _integral(f, n, p):
    # with f' = f''' = 0 the estimate is the integral plus f(N)/2
    zero = lambda t: 0.0
    return euler_maclaurin_tail(f, zero, zero, n, p) - complex(f(np.array([float(n)]))[0]) / 2.0


def _power(tail_fn, s):
    return lambda x: np.asarray(tail_fn(np.asarray(x, dtype=float))[0], dtype=complex) ** -s


class TestPowerTailRule:
    @pytest.mark.parametrize("a", [1.0, 0.6, 2.0, 0.3 + 0.4j])
    @pytest.mark.parametrize("s", [1.3, 2.0, 3.7, 8.0, 2.5 + 3.0j, 1.6 - 0.7j])
    def test_hurwitz_exact_integral(self, a, s):
        # int_N^inf (x - 1 + a)^-s dx = (N - 1 + a)^(1-s) / (s - 1); a = 1 is Riemann
        f = _power(lambda x: (x - 1.0 + a, 1.0, 0.0, 0.0), s)
        for n in N_STARTS:
            ref = (n - 1.0 + a) ** (1.0 - s) / (s - 1.0)
            assert abs(_integral(f, n, s) - ref) <= 1e-14 * abs(ref), n

    @pytest.mark.parametrize("s", [2.0, 2.3, 3.7, 8.0])
    def test_airy_against_adaptive(self, s):
        # t = N/u maps the tail onto (0, 1]; adaptive GK15 there at 1e-16 |I|.
        # Complex s is left to the exact Hurwitz oracle: u^(i Im p) oscillates
        # without end toward u = 0 and the adaptive reference takes minutes.
        f = _power(airy_zeros(60).tail_fn, s)
        for n in N_STARTS:
            got = _integral(f, n, s / 1.5)
            ref = quad_adaptive(lambda u: n * f(n / u) / (u * u), 1e-300, 1.0,
                                abs_tol=1e-16 * abs(got), max_segments=20000)
            assert abs(got - ref) <= 1e-14 * abs(ref), n

    @pytest.mark.parametrize("p", [1.0, 0.5, 1.0 + 2.0j, -3.0])
    def test_non_integrable_decay_rejected(self, p):
        f, fp, fppp = _power_tail(2.0)
        with pytest.raises(DivergenceError):
            euler_maclaurin_tail(f, fp, fppp, 10, p)

    @pytest.mark.parametrize("p", [1.5, 2.5, 2.001, 2.0 + 0.5j])
    def test_wrong_exponent_trips_the_check(self, p):
        # f decays like x^-2: any p but 2 + (integer >= 0) leaves
        # h(u) = N f(N/u) u^-p non-smooth at u = 0, and the rules disagree
        f, fp, fppp = _power_tail(2.0)
        for n in N_STARTS:
            with pytest.raises(DivergenceError):
                euler_maclaurin_tail(f, fp, fppp, n, p)
