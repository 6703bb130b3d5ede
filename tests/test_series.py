import math

import mpmath as mp
import numpy as np
import pytest

from zetakit import (DomainError, PoleError, PowerSeries, UnsupportedOrderError,
                     exact_sum_rule, hadamardize, log_coeffs, zeta_int_leq_alpha,
                     zeta_via_bell)
from zetakit.series import series_exp

from conftest import rel_err


def one_minus_z(order=12):
    c = np.zeros(order + 1, dtype=complex)
    c[0], c[1] = 1.0, -1.0
    return PowerSeries(c)


class TestLogCoefficients:
    def test_geometric(self):
        b = log_coeffs(one_minus_z())
        for j in range(1, 13):
            assert b[j] == pytest.approx(-1.0 / j, rel=1e-14)

    def test_constant_function(self):
        b = log_coeffs(PowerSeries([2.5, 0.0]))
        assert b[1] == 0.0

    def test_airy_b1(self, airy):
        b = log_coeffs(airy.series)
        ref = complex(3 ** mp.mpf("1/3") * mp.gamma(mp.mpf(2) / 3) / mp.gamma(mp.mpf(1) / 3))
        assert rel_err(b[1], ref) < 1e-14

    def test_zero_at_origin_rejected(self):
        with pytest.raises(DomainError):
            PowerSeries([0.0, 1.0])

    def test_roundtrip_random(self):
        # |c_j| <= 2 with |c0| >= 0.5 lets the log-coefficients grow like
        # 4^j, which amplifies roundoff; binary64 supports ~1e-5 there.
        # A unit-scale ensemble meets 1e-12.
        rng = np.random.default_rng(23)
        for cap, tol in ((2.0, 1e-5), (0.8, 1e-12)):
            for _ in range(100):
                n = int(rng.integers(2, 31))
                c = (rng.uniform(0, cap, n + 1)
                     * np.exp(1j * rng.uniform(0, 2 * np.pi, n + 1)))
                c[0] = (1.0 if cap < 1.0 else rng.uniform(0.5, 2.0)) \
                    * np.exp(1j * rng.uniform(0, 2 * np.pi))
                s = PowerSeries(c)
                back = series_exp(log_coeffs(s))
                ref = c / c[0]
                assert np.max(np.abs(back - ref)) < tol * max(1.0, np.max(np.abs(ref)))

    def test_hadamard_fast_path(self):
        # c_1..c_floor(alpha) = 0 implies b_j = c_j exactly through 2k-1
        rng = np.random.default_rng(29)
        k = 3  # floor(alpha) + 1 for alpha in [2, 3)
        c = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
        c[0] = 1.0
        c[1:k] = 0.0
        b = log_coeffs(PowerSeries(c))
        for j in range(k, 2 * k):
            assert b[j] == c[j]


def recursion(series, n):
    """The sum rule's recursion value -n b_n, whatever the table's row at n."""
    return -n * log_coeffs(series)[n]


class TestZetaPosInt:
    """zeta(n) = -n b_n where the table's row at n is empty (every n > alpha)."""

    def test_single_root(self):
        for n in (1, 2, 5):
            assert recursion(one_minus_z(), n) == pytest.approx(1.0)

    def test_riemann_two(self, riemann):
        got = zeta_int_leq_alpha(riemann.asym, log_coeffs(riemann.series), 2)
        assert rel_err(got, math.pi ** 2 / 6) < 1e-12

    def test_airy_two(self, airy):
        ref = complex(3 ** mp.mpf("2/3") * (mp.gamma(mp.mpf(2) / 3) / mp.gamma(mp.mpf(1) / 3)) ** 2)
        got = zeta_int_leq_alpha(airy.asym, log_coeffs(airy.series), 2)
        assert rel_err(got, ref) < 1e-12
        assert got == pytest.approx(0.5314572319609994, rel=1e-12)
        assert got == recursion(airy.series, 2)

    def test_guard_below_alpha(self, airy, riemann):
        # airy's row at 1 < alpha is empty: the value is -b_1 = -c_1/c_0
        val = zeta_int_leq_alpha(airy.asym, log_coeffs(airy.series), 1)
        assert val == recursion(airy.series, 1)
        assert rel_err(val, -complex(airy.series.coeffs[1] / airy.series.coeffs[0])) < 1e-15
        # riemann's row at 1 is a pole, whatever -b_1 reads
        with pytest.raises(PoleError):
            zeta_int_leq_alpha(riemann.asym, log_coeffs(riemann.series), 1)
        assert rel_err(recursion(riemann.series, 1), 0.5772156649015329) < 1e-14

    def test_scaling_invariance(self, airy):
        # power-of-two scaling cancels exactly in the c_j/c_0 divisions
        doubled = airy.series.scaled(2.0)
        for n in (2, 5, 9):
            assert recursion(doubled, n) == recursion(airy.series, n)
        # arbitrary complex scaling agrees to a few ulp
        scaled = airy.series.scaled(3.7 - 1.2j)
        for n in (2, 5, 9):
            assert rel_err(recursion(scaled, n), recursion(airy.series, n)) < 5e-15


class TestBell:
    def test_first_order(self):
        rng = np.random.default_rng(31)
        c = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        s = PowerSeries(c)
        assert rel_err(zeta_via_bell(s, 1), -c[1] / c[0]) < 1e-14

    def test_riemann_three(self, riemann):
        # zeta_R(3) = -psi''(1)/2
        ref = complex(-mp.psi(2, 1) / 2)
        assert rel_err(zeta_via_bell(riemann.series, 3), ref) < 1e-13

    def test_airy_four(self, airy):
        g = mp.gamma
        ref = complex(3 ** mp.mpf("4/3") * (g(mp.mpf(2) / 3) / g(mp.mpf(1) / 3)) ** 4
                      - g(mp.mpf(2) / 3) / (3 ** mp.mpf("2/3") * g(mp.mpf(1) / 3)))
        assert rel_err(zeta_via_bell(airy.series, 4), ref) < 1e-12

    def test_matches_recursion_on_catalogs(self, riemann, airy, pcf_one, chf_half):
        for model in (riemann, airy, pcf_one, chf_half):
            for n in range(1, 13):
                bell = zeta_via_bell(model.series, n)
                rec = recursion(model.series, n)
                assert abs(bell - rec) <= 1e-9 * max(1.0, abs(rec))

    def test_order_cap(self, riemann):
        with pytest.raises(UnsupportedOrderError):
            zeta_via_bell(riemann.series, 21)


class TestExactSumRule:
    def test_two_term_closed_form(self):
        rng = np.random.default_rng(37)
        c = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
        s = PowerSeries(c)
        z1 = 0.3 - 0.8j
        got = exact_sum_rule(s, 2, {1: z1})
        ref = c[1] ** -2 * (c[1] ** 2 - 2 * c[2] * c[0]) * z1 ** 2
        assert rel_err(got, ref) < 1e-13

    def test_three_term_closed_form(self):
        # with zeta(2) taken consistently from the n = 2 rule, the n = 3 rule
        # collapses to zeta(2)zeta(1) - c1^-3 (c2 c1 c0 - 3 c3 c0^2) zeta(1)^3
        rng = np.random.default_rng(41)
        c = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
        s = PowerSeries(c)
        z1 = 0.4 + 0.1j
        z2 = exact_sum_rule(s, 2, {1: z1})
        got = exact_sum_rule(s, 3, {1: z1, 2: z2})
        ref = z2 * z1 - c[1] ** -3 * (c[2] * c[1] * c[0] - 3 * c[3] * c[0] ** 2) * z1 ** 3
        assert rel_err(got, ref) < 1e-12

    def test_airy_vanishing_coefficient_case(self, airy):
        # n = 2 (mod 3) has c_n = 0: leading coefficient degenerates to
        # (-1)^n / (n-1)!
        n = 5
        assert airy.series.coeffs[n] == 0.0
        zv = {1: -complex(airy.series.coeffs[1] / airy.series.coeffs[0])}
        for j in range(2, n):
            zv[j] = recursion(airy.series, j)
        got = exact_sum_rule(airy.series, n, zv)
        direct = recursion(airy.series, n)
        assert rel_err(got, direct) < 1e-12
        # and the leading term really is (-1)^n z1^n / (n-1)!
        trimmed = exact_sum_rule(airy.series, n, {**zv, **{k: 0.0 for k in range(2, n)}})
        assert rel_err(trimmed, (-1.0) ** n * zv[1] ** n / math.factorial(n - 1)) < 1e-12

    def test_c1_zero_rejected(self):
        c = np.zeros(6, dtype=complex)
        c[0], c[2] = 1.0, 0.5
        with pytest.raises(DomainError):
            exact_sum_rule(PowerSeries(c), 2, {1: 0.0})

    @pytest.mark.parametrize("fixture", ["airy", "riemann"])
    def test_matches_composition_sum(self, request, fixture):
        series = request.getfixturevalue(fixture).series
        b = log_coeffs(series)
        zv = {j: -j * b[j] for j in range(1, 16)}
        for n in range(2, 17):
            got = exact_sum_rule(series, n, zv)
            assert rel_err(got, _composition_sum(series, n, zv)) < 1e-13


def _compositions(n):
    """Ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for j in range(1, n + 1):
        for rest in _compositions(n - j):
            yield (j,) + rest


def _composition_sum(series, n, zeta_values):
    """The exact sum rule as written: the leading term plus the sum over
    compositions j_1+...+j_k = n with n > k >= 2 (2^(n-1) terms)."""
    c = series.coeffs
    cn = c[n] if n <= series.order else 0.0
    total = ((-1.0) ** n * n * (1.0 / math.factorial(n) - c[0] ** (n - 1) * cn / c[1] ** n)
             * zeta_values[1] ** n)
    for tup in _compositions(n):
        k = len(tup)
        if 2 <= k < n:
            total += ((-1.0) ** k * n / (math.factorial(k) * math.prod(tup))
                      * math.prod(zeta_values[j] for j in tup))
    return total


class TestHadamardize:
    def test_alpha_below_one_scales_only(self):
        rng = np.random.default_rng(43)
        c = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
        h = hadamardize(PowerSeries(c), 0.7)
        assert np.allclose(h.coeffs, c / c[0], rtol=0, atol=1e-15)

    def test_riemann_normalization(self, riemann):
        # result is the series of e^{gamma z}/Gamma(1-z): log-coefficients
        # are 0, -zeta(2)/2, -zeta(3)/3, ...
        h = hadamardize(riemann.series, 1.0)
        b = log_coeffs(h)
        assert abs(b[1]) <= 1e-12
        for k in (2, 3, 6):
            assert rel_err(b[k], -complex(mp.zeta(k)) / k) < 1e-12

    def test_preserves_zeta_above_alpha(self, airy):
        h = hadamardize(airy.series, airy.alpha)
        for n in range(2, 13):
            a, bb = recursion(airy.series, n), recursion(h, n)
            assert abs(a - bb) <= 1e-10 * max(1.0, abs(a))

    def test_idempotent(self, pcf_one):
        h1 = hadamardize(pcf_one.series, 2.0)
        h2 = hadamardize(h1, 2.0)
        assert np.max(np.abs(h1.coeffs - h2.coeffs)) < 1e-12

    def test_log_coefficients_cleared(self, pcf_one):
        h = hadamardize(pcf_one.series, 2.0)
        b = log_coeffs(h)
        assert abs(h.coeffs[0] - 1.0) < 1e-15
        assert abs(b[1]) <= 1e-12 and abs(b[2]) <= 1e-12
