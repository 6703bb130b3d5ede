import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from zetakit import (AsymExpansion, ConditioningWarning, DomainError, PoleError,
                     StripError, classify_poles, gamma, hurwitz_model, l_asy_eval,
                     log_coeffs, log_compose, omega_table, zeta_int_leq_alpha,
                     zeta_prime_zero)
from zetakit.asym import _laurent

from conftest import rel_err


class TestLogCompose:
    def test_zeros(self):
        d = log_compose([0.0] * 6)
        assert np.all(d == 0.0)

    def test_airy_hankel_tail(self):
        c = [(-1.5j) ** k * complex(gamma(k + 1 / 6)) * complex(gamma(k + 5 / 6))
             / (2 * math.pi * (-2.0) ** k * math.factorial(k)) for k in range(1, 7)]
        p = log_compose(c)
        assert rel_err(p[1], 5j / 48) < 1e-14
        assert rel_err(p[2], -5.0 / 64) < 1e-14
        assert rel_err(p[3], -1105j / 9216) < 1e-13
        assert rel_err(p[4], 565.0 / 2048) < 1e-13

    def test_confluent_tail_leading(self):
        a, b = 0.7 + 0.2j, 1.9 - 0.4j
        c1 = (1 - a) * (b - a)
        d = log_compose([c1, 0.0, 0.0])
        assert rel_err(d[1], (a - 1) * (a - b)) < 1e-15

    def test_brute_force_series_log_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            c = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
            c /= np.maximum(1.0, np.abs(c))  # |C| <= 1
            got = log_compose(c)
            poly = [mp.mpc(x) for x in c]
            ref = mp.taylor(
                lambda y: mp.log(1 + sum(poly[m] * y ** (m + 1) for m in range(12))),
                0, 12)
            for j in range(1, 13):
                assert abs(got[j] - complex(ref[j])) < 1e-12


def _trapezoid_laurent(asym, x0, top, radius, R=1.0, n=128):
    """c_{-k}, k = 0..top, of l_asy_eval at x0: the trapezoid rule on |s - x0| = radius."""
    z = radius * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
    vals = np.array([l_asy_eval(asym, x0 + zk, R) for zk in z])
    return [complex(np.mean(vals * z ** k)) for k in range(top + 1)]


def _synthetic(d, alpha=1.0, m=1, M=1, N=8, psi=2.0, ln_f0=0.0):
    return AsymExpansion(alpha=alpha, m=m, M=M, N=N, d=d, psi=psi, ln_f0=ln_f0)


class TestConstruction:
    def test_rejects_beyond_strip(self):
        with pytest.raises(DomainError):
            _synthetic({(9, 0): 1.0}, N=8)

    def test_rejects_bad_window(self):
        with pytest.raises(DomainError):
            AsymExpansion(alpha=3.0, m=1, M=0, N=1, d={}, psi=0.0)

    def test_json_roundtrip(self, airy):
        back = AsymExpansion.from_json(airy.asym.to_json())
        assert back.alpha == airy.asym.alpha
        assert back.m == airy.asym.m
        assert back.psi == airy.asym.psi
        assert back.d == airy.asym.d
        assert back.ln_f0 == airy.asym.ln_f0


class TestClassifyPoles:
    def test_airy_locations(self, airy):
        rep = classify_poles(airy.asym)
        locs = sorted((p.location for p in rep.poles), reverse=True)
        expect = [1.5] + [-1.5 - 3.0 * n for n in range(len(locs) - 1)]
        assert locs == pytest.approx(expect)
        assert all(p.order == 1 for p in rep.poles)
        assert rep.zeta0 == -0.25

    def test_pcf_no_poles(self, pcf_one):
        rep = classify_poles(pcf_one.asym)
        assert rep.poles == ()
        assert rep.zeta0 == pytest.approx(-1.0 - 0.5)

    def test_empty_table(self):
        rep = classify_poles(_synthetic({}, alpha=0.5, N=3))
        assert rep.poles == ()
        assert rep.zeta0 == 0.0

    def test_integer_coincidence_degradation(self):
        # alpha - j/m a nonzero integer with only a k = 0 entry: regular
        rep = classify_poles(_synthetic({(2, 0): 1.0}, M=0))
        assert rep.pole_at(-1.0) is None
        assert rep.poles == ()

    @pytest.mark.parametrize("M, d, order, residue", [
        (2, {(1, 2): 1.0}, 1, 2.0),
        (3, {(1, 2): 1.0}, 1, 2.0),
        (3, {(1, 3): 1.0}, 2, 6j * math.pi),
    ], ids=["d12-M2", "d12-M3", "d13-M3"])
    def test_pole_at_zero_log_rows(self, M, d, order, residue):
        # at s = 0 the row d_{1,k} ln^k z gives a pole of order k - 1 with
        # residue k!/(k-2)! (i pi)^(k-2), whatever M is
        rep = classify_poles(AsymExpansion(alpha=1.0, m=1, M=M, N=4, d=d, psi=2.0))
        p = rep.pole_at(0.0)
        assert p is not None and p.order == order
        assert abs(p.residue - residue) <= 1e-14 * abs(residue)
        assert rep.zeta0_is_pole and rep.zeta0 is None

    def test_orders_bounded_by_log_degree(self, riemann, airy, chf_half):
        for model in (riemann, airy, chf_half):
            rep = classify_poles(model.asym)
            for p in rep.poles:
                assert p.order <= model.asym.M + 1


class TestResidues:
    def test_airy_rightmost(self, airy):
        pole = classify_poles(airy.asym).pole_at(1.5)
        assert rel_err(pole.residue, 1.0 / math.pi) < 1e-14

    def test_airy_odd_tail(self, airy):
        # residue at -3/2 - 3n equals p_{2n+1} (3/2 + 3n) / (i pi)
        for n in (0, 1):
            pole = classify_poles(airy.asym).pole_at(-1.5 - 3.0 * n)
            p_coeff = airy.asym.entry(6 * n + 6, 0)
            ref = p_coeff * (1.5 + 3.0 * n) / (1j * math.pi)
            assert rel_err(pole.residue, ref) < 1e-14

    def test_absent_entry_is_zero(self, airy):
        assert airy.asym.max_log_power(airy.asym.j_for_location(0.5)) is None  # j = 2
        assert classify_poles(airy.asym).pole_at(0.5) is None

    def test_riemann_pole_at_one(self, riemann):
        assert classify_poles(riemann.asym).pole_at(1.0).residue == pytest.approx(1.0, abs=1e-15)

    # the steps sit within 1e-3 of each pole, where l_asy_eval warns
    @pytest.mark.filterwarnings("ignore::zetakit.errors.ConditioningWarning")
    def test_richardson_consistency_all_catalog_poles(self, riemann, airy,
                                                      hurwitz_quarter):
        # two-point extrapolation at the stated h's is curvature-limited to
        # ~1e-4 relative; pairing each h with -h and extrapolating in h^2
        # removes the quadratic term and meets 1e-7 on every catalog pole
        from zetakit import hurwitz_model
        h1, h2 = 1e-3, 1e-4
        cases = [(riemann, 0.85, True), (airy, 2.0, True),
                 (hurwitz_model(2.0), 0.85, True), (hurwitz_quarter, 0.2, False)]
        for model, R, well_conditioned in cases:
            rep = classify_poles(model.asym)
            for p in rep.poles:
                if p.location < model.asym.strip_left_edge() + 1.0:
                    continue
                f1 = h1 * l_asy_eval(model.asym, p.location + h1, R)
                f2 = h2 * l_asy_eval(model.asym, p.location + h2, R)
                if well_conditioned:
                    two_point = (h1 * f2 - h2 * f1) / (h1 - h2)
                    assert rel_err(two_point, p.residue) < 2e-4
                u1 = 0.5 * (f1 - h1 * l_asy_eval(model.asym, p.location - h1, R))
                u2 = 0.5 * (f2 - h2 * l_asy_eval(model.asym, p.location - h2, R))
                sym = (h1 * h1 * u2 - h2 * h2 * u1) / (h1 * h1 - h2 * h2)
                assert rel_err(sym, p.residue) < 1e-7


class TestZetaPrimeZero:
    def test_riemann(self, riemann):
        assert rel_err(zeta_prime_zero(riemann.asym),
                       -0.5 * math.log(2 * math.pi)) < 1e-14

    def test_airy_closed_form(self, airy):
        ref = complex(mp.log(3 ** mp.mpf("2/3") * mp.gamma(mp.mpf(2) / 3)
                             / (2 * mp.sqrt(mp.pi))))
        assert rel_err(zeta_prime_zero(airy.asym), ref) < 1e-12

    def test_no_grid_point_at_zero(self):
        a = _synthetic({(0, 0): 2.0}, alpha=0.5, N=3, ln_f0=0.7 + 0.1j)
        assert zeta_prime_zero(a) == pytest.approx(-(0.7 + 0.1j))

    def test_pole_at_zero_rejected(self):
        a = AsymExpansion(alpha=1.0, m=1, M=2, N=4, d={(1, 2): 1.0}, psi=2.0)
        with pytest.raises(PoleError):
            zeta_prime_zero(a)


class TestIntegerValues:
    def test_riemann_negatives(self, riemann):
        from zetakit import bernoulli_number
        for n in range(1, 10):
            got = zeta_int_leq_alpha(riemann.asym, None, -n)
            assert rel_err(got, -bernoulli_number(n + 1) / (n + 1)) < 1e-13 \
                or abs(got) < 1e-15

    def test_airy_trivial_zero(self, airy):
        assert zeta_int_leq_alpha(airy.asym, None, -1) == 0.0

    def test_airy_minus_three(self, airy):
        assert rel_err(zeta_int_leq_alpha(airy.asym, None, -3), 15.0 / 64.0) < 1e-14

    def test_positive_needs_logc(self, airy):
        with pytest.raises(DomainError):
            zeta_int_leq_alpha(airy.asym, None, 1)
        b = log_coeffs(airy.series)
        got = zeta_int_leq_alpha(airy.asym, b, 1)
        assert rel_err(got, -airy.series.coeffs[1] / airy.series.coeffs[0]) < 1e-14

    def test_pole_rejected(self, riemann):
        with pytest.raises(PoleError):
            zeta_int_leq_alpha(riemann.asym, log_coeffs(riemann.series), 1)

    def test_strip_guard(self, airy):
        with pytest.raises(StripError):
            zeta_int_leq_alpha(airy.asym, None, -40)


class TestLAsyEval:
    def test_vanishes_at_free_integers(self):
        a = _synthetic({(0, 0): 1.3 - 0.4j}, alpha=0.8, N=3)
        for n in (2, 3, 7):
            assert abs(l_asy_eval(a, n, 0.5)) < 1e-13

    def test_single_entry_against_quadrature_oracle(self):
        d00 = 0.7 + 0.2j
        alpha, psi, s, R = 0.8, 2.0, 2.3, 0.6
        a = _synthetic({(0, 0): d00}, alpha=alpha, psi=psi, N=3)
        got = l_asy_eval(a, s, R)

        def f(t):
            return t ** -s * d00 * cmath.exp(1j * alpha * psi) \
                * alpha * t ** (alpha - 1.0)

        re = quad(lambda t: f(t).real, R, np.inf, epsabs=1e-13)[0]
        im = quad(lambda t: f(t).imag, R, np.inf, epsabs=1e-13)[0]
        pref = cmath.exp(1j * s * (math.pi - psi)) * cmath.sin(math.pi * s) / math.pi
        assert abs(got - pref * complex(re, im)) < 1e-13

    def test_log_power_entry_against_quadrature_oracle(self):
        d01 = -0.4 + 0.9j
        alpha, psi, s, R = 0.6, 1.2, 1.9, 0.8
        a = AsymExpansion(alpha=alpha, m=1, M=1, N=2, d={(0, 1): d01}, psi=psi)
        got = l_asy_eval(a, s, R)

        def f(t):
            lt = complex(math.log(t), psi)
            return t ** -s * d01 * cmath.exp(1j * alpha * psi) \
                * t ** (alpha - 1.0) * (1.0 + alpha * lt)

        re = quad(lambda t: f(t).real, R, np.inf, epsabs=1e-13, limit=300)[0]
        im = quad(lambda t: f(t).imag, R, np.inf, epsabs=1e-13, limit=300)[0]
        pref = cmath.exp(1j * s * (math.pi - psi)) * cmath.sin(math.pi * s) / math.pi
        assert abs(got - pref * complex(re, im)) < 1e-12

    def test_airy_residue_limit(self, airy):
        h = 1e-6
        with pytest.warns(ConditioningWarning, match="within 1.0e-06 of the pole at 1.5"):
            val = (1.5 + h - 1.5) * l_asy_eval(airy.asym, 1.5 + h, 2.0)
        assert abs(val - 1.0 / math.pi) < 1e-5

    def test_pole_error_carries_residue(self, airy):
        with pytest.raises(PoleError) as exc:
            l_asy_eval(airy.asym, 1.5, 2.0)
        assert exc.value.order == 1
        assert rel_err(exc.value.residue, 1.0 / math.pi) < 1e-13

    def test_strip_error(self, airy):
        with pytest.raises(StripError):
            l_asy_eval(airy.asym, -100.0, 2.0)


class TestOneGridRule:
    """classify_poles, l_asy_eval and zeta_int_leq_alpha read a row alike."""

    def test_pole_at_zero_m2_same_everywhere(self):
        a = AsymExpansion(alpha=1.0, m=1, M=2, N=4, d={(1, 2): 1.0, (1, 1): 0.3}, psi=2.0)
        p = classify_poles(a).pole_at(0.0)
        for call in (lambda: l_asy_eval(a, 0.0, 1.0), lambda: zeta_prime_zero(a)):
            with pytest.raises(PoleError) as exc:
                call()
            got = exc.value
            assert (got.location, got.order, got.residue) == (p.location, p.order, p.residue)
        assert p.order == 1

    def test_single_log_at_zero_is_regular_for_any_m(self):
        # d_{j,1} ln z at s = 0 gives the value d_{j,1}, also when M >= 2
        a = AsymExpansion(alpha=1.0, m=1, M=2, N=4, d={(1, 1): 0.3}, psi=2.0)
        rep = classify_poles(a)
        assert rep.zeta0 == 0.3 and not rep.zeta0_is_pole
        assert l_asy_eval(a, 0.0, 1.0) == 0.3
        assert _trapezoid_laurent(a, 0.0, 1, 0.25)[0] == pytest.approx(0.3, abs=1e-14)
        with pytest.raises(DomainError, match="needs M <= 1"):
            zeta_prime_zero(a)

    @staticmethod
    def _same_integer_values(asym):
        poles = classify_poles(asym)
        n = -1
        while n > asym.strip_left_edge():
            if poles.pole_at(float(n)) is None:
                assert l_asy_eval(asym, n, 1.0) == zeta_int_leq_alpha(asym, None, n), n
            n -= 1

    @pytest.mark.parametrize("model", ["riemann", "hurwitz_quarter", "airy", "pcf_one",
                                       "chf_half"])
    def test_l_asy_eval_is_the_integer_value(self, request, model):
        self._same_integer_values(request.getfixturevalue(model).asym)

    def test_shifted_table_below_threshold_reads_zero(self):
        # Omega of hurwitz(0.3) shifted to a = 1/2 keeps roundoff-sized
        # entries where B_j(1/2) = 0; both readers take them as 0
        source = hurwitz_model(0.3).asym
        self._same_integer_values(source)
        omega = omega_table(source, 1.0, 0.2)
        self._same_integer_values(omega)
        assert [zeta_int_leq_alpha(omega, None, n) for n in (-2, -4, -6)] == [0, 0, 0]


class TestLaurentOracle:
    """Every row's order, residue and integer value against the Laurent
    coefficients of l_asy_eval, taken by the trapezoid rule on a circle."""

    @staticmethod
    def _check_rows(asym, R=1.0):
        rep = classify_poles(asym)
        radius = 0.25 / asym.m
        checked = []
        for j in sorted({jk[0] for jk in asym.d}):
            x0, c = _laurent(asym, j)
            if x0 - radius <= asym.strip_left_edge():
                continue
            order = len(c) - 1
            t = _trapezoid_laurent(asym, x0, order + 1, radius, R)
            scale = max(1.0, max(abs(v) * radius ** -k for k, v in enumerate(t)))
            tol = 1e-11 * scale
            # c_{-order} is the highest nonzero coefficient
            assert abs(t[order + 1]) * radius ** -(order + 1) <= tol, (j, x0)
            is_int = abs(x0 - round(x0)) <= 1e-9
            for k in range(0 if is_int else 1, order + 1):
                assert abs(c[k] - t[k]) * radius ** -k <= tol, (j, x0, k)
            if order:
                assert abs(c[order]) * radius ** -order > 1e3 * tol, (j, x0)
                p = rep.pole_at(x0)
                assert p.order == order and abs(p.residue - t[1]) * radius ** -1 <= tol
            else:
                assert rep.pole_at(x0) is None
                assert abs(l_asy_eval(asym, x0, R) - t[0]) <= tol, (j, x0)
            checked.append((x0, order))
        return checked

    @pytest.mark.parametrize("model", ["riemann", "hurwitz_quarter", "airy", "pcf_one",
                                       "chf_half"])
    def test_catalog_rows(self, request, model):
        asym = request.getfixturevalue(model).asym
        assert self._check_rows(asym)

    @pytest.mark.parametrize("M, d, order", [
        (2, {(1, 2): 1.0}, 1), (3, {(1, 3): 1.0}, 2), (3, {(1, 2): 1.0}, 1),
        (2, {(1, 1): 0.3}, 0), (4, {(1, 4): 0.5, (1, 2): -1.0, (0, 3): 0.2j}, 3),
    ], ids=["d12-M2", "d13-M3", "d12-M3", "d11-M2", "d14-M4"])
    def test_log_rows_at_zero(self, M, d, order):
        a = AsymExpansion(alpha=1.0, m=1, M=M, N=4, d=d, psi=2.0)
        assert (0.0, order) in self._check_rows(a)

    def test_random_tables(self):
        rng = np.random.default_rng(20)
        at_zero = 0
        for _ in range(40):
            m, M = int(rng.integers(1, 3)), int(rng.integers(0, 5))
            alpha = float(rng.integers(1, 5)) / m + (0.3 if rng.random() < 0.4 else 0.0)
            N = math.ceil(alpha * m) + int(rng.integers(1, 4))
            d = {(j, k): complex(*rng.normal(size=2))
                 for j in range(N + 1) for k in range(M + 1) if rng.random() < 0.5}
            a = AsymExpansion(alpha=alpha, m=m, M=M, N=N, d=d,
                              psi=float(rng.uniform(-1.0, 4.0)))
            at_zero += sum(x0 == 0.0 and M >= 2 for x0, _ in self._check_rows(a))
        assert at_zero >= 5
