import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from zetakit import (DomainError, EULER_GAMMA, UnsupportedOrderError,
                     bernoulli_number, bernoulli_poly, binomial_general,
                     digamma_polygamma, gamma, log_psi, stirling_first)
from zetakit.kernels import log_psi_array

from conftest import rel_err


class TestGamma:
    def test_at_one(self):
        assert gamma(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_at_half(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_two_thirds_oracle(self):
        # 50-digit oracle value, frozen: Gamma(2/3)
        assert rel_err(gamma(2.0 / 3.0),
                       1.3541179394264004169452880281545137855193272660568) < 1e-14

    def test_grid_against_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(400):
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if abs(z) > 50:
                continue
            if z.real <= 0.5 and abs(z.imag) < 0.05 and \
                    abs(z.real - round(z.real)) < 0.05:
                continue
            worst = max(worst, rel_err(gamma(z), complex(mp.gamma(mp.mpc(z)))))
        assert worst < 1e-13

    def test_reflection_property(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z) > 10 or abs(z - round(z.real)) < 0.1 or abs(z.imag) > 8:
                continue
            lhs = gamma(z) * gamma(1.0 - z) * cmath.sin(math.pi * z) / math.pi
            assert abs(lhs - 1.0) < 1e-12

    def test_recurrence_property(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z) > 10 or (abs(z.imag) < 0.1 and z.real < 1):
                continue
            assert rel_err(gamma(z + 1.0), z * gamma(z)) < 1e-13

    def test_pole_rejected(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                gamma(z)


class TestPolygamma:
    def test_digamma_one(self):
        assert digamma_polygamma(0, 1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)

    def test_trigamma_one(self):
        assert digamma_polygamma(1, 1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)

    def test_psi2_one_direct_summation_oracle(self):
        # psi''(1) = -2 zeta(3); zeta(3) by direct summation plus the exact
        # first tail corrections
        n = np.arange(1, 200001, dtype=float)
        big_n = 200001.0
        zeta3 = math.fsum(n ** -3.0) + 0.5 * big_n ** -2.0 - 0.5 * big_n ** -3.0 \
            + 0.25 * big_n ** -4.0
        assert rel_err(digamma_polygamma(2, 1.0), -2.0 * zeta3) < 1e-12

    def test_complex_orders_against_oracle(self):
        rng = np.random.default_rng(3)
        for k in (0, 1, 2, 5, 12, 29):
            for _ in range(8):
                a = complex(rng.uniform(-4, 6), rng.uniform(-4, 4))
                if abs(a.imag) < 0.2 and a.real < 0.5:
                    continue
                ref = complex(mp.psi(k, mp.mpc(a)))
                assert rel_err(digamma_polygamma(k, a), ref) < 1e-12

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            digamma_polygamma(0, -3.0)


class TestBernoulli:
    def test_low_table_exact(self):
        table = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
                 4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
                 10: Fraction(5, 66), 12: Fraction(-691, 2730),
                 14: Fraction(7, 6), 16: Fraction(-3617, 510),
                 18: Fraction(43867, 798), 20: Fraction(-174611, 330)}
        for n, val in table.items():
            assert bernoulli_number(n) == float(val)

    def test_odd_vanish(self):
        for k in range(1, 15):
            assert bernoulli_number(2 * k + 1) == 0.0

    def test_recurrence_oracle(self):
        # independent exact recurrence: sum_k C(n+1, k) B_k = 0
        b = [Fraction(1)]
        for n in range(1, 31):
            b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n))
                     / Fraction(n + 1))
        for n in (12, 22, 30):
            assert bernoulli_number(n) == float(b[n])

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            bernoulli_number(61)


class TestBernoulliPoly:
    def test_linear(self):
        for a in (0.3, -1.7, 2.5 + 1.0j):
            assert bernoulli_poly(1, a) == pytest.approx(complex(a) - 0.5)

    def test_at_zero_is_number(self):
        assert bernoulli_poly(2, 0.0) == pytest.approx(1.0 / 6.0)

    def test_half_argument_symmetry_oracle(self):
        # B_n(1/2) = (2^{1-n} - 1) B_n, checked by direct expansion
        for n in (3, 5, 7, 9):
            direct = sum(math.comb(n, k) * bernoulli_number(k) * 0.5 ** (n - k)
                         for k in range(n + 1))
            assert abs(bernoulli_poly(n, 0.5) - direct) < 1e-15
            assert abs(bernoulli_poly(n, 0.5)) < 1e-15

    def test_difference_property(self):
        rng = np.random.default_rng(5)
        for n in range(1, 21):
            for _ in range(5):
                a = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                lhs = bernoulli_poly(n, a + 1.0) - bernoulli_poly(n, a)
                rhs = n * a ** (n - 1)
                assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


class TestStirling:
    def test_triangle_oracle(self):
        rows = {0: [1]}
        for n in range(1, 21):
            prev = rows[n - 1] + [0]
            rows[n] = [0] + [prev[k - 1] - (n - 1) * prev[k] for k in range(1, n + 1)]
            rows[n][0] = 0 if n else 1
        for n in range(21):
            for k in range(n + 1):
                assert stirling_first(n, k) == float(rows[n][k])

    def test_known_entries(self):
        assert stirling_first(3, 1) == 2.0
        assert stirling_first(4, 2) == 11.0
        for n in (1, 7, 40):
            assert stirling_first(n, n) == 1.0
            assert stirling_first(n, 0) == 0.0

    def test_range_errors(self):
        with pytest.raises(DomainError):
            stirling_first(41, 1)
        with pytest.raises(DomainError):
            stirling_first(3, 4)


class TestBinomialGeneral:
    def test_order_zero(self):
        assert binomial_general(2.7 + 1j, 0) == 1.0

    def test_three_halves(self):
        assert binomial_general(1.5, 2) == pytest.approx(3.0 / 8.0)

    def test_negative_one(self):
        assert binomial_general(-1.0, 3) == pytest.approx(-1.0)

    def test_integer_exact(self):
        for n in range(8):
            for k in range(n + 1):
                assert binomial_general(float(n), k) == float(math.comb(n, k))


class TestBranchedLog:
    def test_branch_window(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if z == 0:
                continue
            psi = rng.uniform(-math.pi, math.pi)
            theta = log_psi(z, psi).imag
            assert psi - 2 * math.pi < theta <= psi + 1e-15

    def test_exponential_inverse(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z) < 1e-3:
                continue
            psi = rng.uniform(-math.pi, math.pi)
            assert rel_err(cmath.exp(log_psi(z, psi)), z) < 1e-14

    @pytest.mark.parametrize("psi", [math.pi, 3 * math.pi / 4, 1.6, 0.0, -1.0, -math.pi])
    def test_array_form_matches_scalar(self, psi):
        # on the cut, next to it on both sides, and off it; for |psi| <= pi
        # both forms shift by at most one turn, so theta agrees exactly
        pts = [cmath.rect(r, psi + d) for r in (0.5, 2.0)
               for d in (0.0, 1e-15, -1e-15, 1e-9, -1e-9, 2.0, -2.0)]
        pts += [complex(-2.0, 0.0), complex(-2.0, -0.0), complex(-2.0, 5e-324),
                complex(-2.0, -5e-324), complex(3.0, 0.0), complex(0.0, -1.0)]
        got = log_psi_array(np.array(pts), psi)
        want = np.array([log_psi(z, psi) for z in pts])
        assert np.array_equal(got.imag, want.imag)
        assert np.max(np.abs(got.real - want.real)) <= 1e-15
        assert np.all((psi - 2 * math.pi < got.imag) & (got.imag <= psi))

    def test_array_form_wide_psi(self):
        rng = np.random.default_rng(23)
        z = rng.uniform(-5, 5, 400) + 1j * rng.uniform(-5, 5, 400)
        for psi in (5.0, -7.0, 11.0):
            got = log_psi_array(z, psi)
            want = np.array([log_psi(v, psi) for v in z])
            assert np.max(np.abs(got - want)) <= 1e-14
            assert np.all((psi - 2 * math.pi < got.imag) & (got.imag <= psi))

    def test_array_form_rejects_zero(self):
        with pytest.raises(DomainError):
            log_psi_array(np.array([1.0 + 0j, 0j]), 1.0)
