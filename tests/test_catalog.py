import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import zetakit
from zetakit import (AccuracyError, DomainError, EULER_GAMMA, airy_model, airy_zeros,
                     chf_model, euler_maclaurin_tail, hurwitz_model, log_coeffs,
                     model_from_spec, pcf_model, riemann_model, zeta_int_leq_alpha,
                     zeta_series)
from zetakit.catalog import ZeroSequence, _airy_head, airy_eval, airy_zero_q
from zetakit.quadrature import TAIL_CIRCLE
from zetakit.shift import omega_table

from conftest import ln_f_on_ray, rel_err


def mp_log_compose(c):
    """D_1..D_N (slot 0 unused) of ln(1 + sum_m c_m y^m) from c_1..c_N, in mpmath."""
    c = [1, *c]
    d = [0] * len(c)
    for n in range(1, len(c)):
        d[n] = c[n] - sum(k * d[k] * c[n - k] for k in range(1, n)) / n
    return d


class TestRiemannModel:
    def test_first_coefficients(self, riemann):
        c = riemann.series.coeffs
        assert c[0] == 1.0
        assert rel_err(c[1], -EULER_GAMMA) < 1e-14
        assert rel_err(c[2], (6 * EULER_GAMMA ** 2 - math.pi ** 2) / 12.0) < 1e-13

    def test_coefficients_against_mpmath(self, riemann):
        with mp.workdps(40):
            ref = mp.taylor(lambda z: 1 / mp.gamma(1 - z), 0, 30)
        c = riemann.series.coeffs
        assert len(c) == 31
        assert max(abs(complex(c[k]) - complex(ref[k])) for k in range(31)) <= 1e-15

    def test_name_and_origin_values(self, riemann):
        assert (riemann.name, riemann.params) == ("riemann", {})
        assert riemann.asym.ln_f0 == 0
        assert riemann.series.coeffs[0] == 1.0

    def test_asym_entries(self, riemann):
        assert riemann.asym.entry(1, 1) == -0.5
        assert riemann.asym.entry(0, 1) == 1.0
        assert rel_err(riemann.asym.entry(2, 0),
                       1.0 / 12.0) < 1e-15  # B_2 / (2*1)

    def test_eval_matches_series_origin(self, riemann):
        f, _ = riemann.eval(0.0)
        assert abs(f - riemann.series.coeffs[0]) < 1e-12

    def test_eval_vanishes_at_zeros(self, riemann):
        for n in range(1, 6):
            f, fp = riemann.eval(float(n))
            assert abs(f) <= 1e-10 * abs(fp) * n


class TestHurwitzModel:
    PARAMS = (1.0, 0.25, 0.3, 0.8, 2.5, -1.3, 0.4 + 0.7j)

    def test_zero_shift_keeps_riemann_table(self):
        base = riemann_model().asym
        assert omega_table(base, 1.0, 0.0).d == base.d

    @pytest.mark.parametrize("a", PARAMS)
    def test_asym_against_mpmath_closed_form(self, a):
        # DLMF 5.11.8 with the Bernoulli polynomials, at the binary64 value of a
        d = hurwitz_model(a).asym.d
        with mp.workdps(40):
            am = mp.mpc(complex(a))
            ref = {(0, 1): mp.mpf(1), (0, 0): -(1 + 1j * mp.pi), (1, 1): mp.mpf(0.5) - am,
                   (1, 0): -mp.log(2 * mp.pi) / 2 + 1j * mp.pi * (am - mp.mpf(0.5))}
            ref.update({(j, 0): mp.bernpoly(j, am) / (j * (j - 1)) for j in range(2, 15)})
            ref = {jk: complex(v) for jk, v in ref.items() if v != 0}
        assert set(d) == set(ref)
        assert max(rel_err(d[jk], v) for jk, v in ref.items()) <= 1e-15

    @pytest.mark.parametrize("a", PARAMS)
    def test_taylor_against_mpmath(self, a):
        # 1/Gamma(a - z) = exp(psi(a) z - sum_n zeta(n, a) z^n / n) / Gamma(a),
        # exponentiated at 60 digits: its terms cancel like a^-n, which is the
        # loss the builder avoids by working at a + m
        with mp.workdps(60):
            am = mp.mpc(complex(a))
            b = [0, mp.digamma(am)] + [-mp.zeta(n, am) / n for n in range(2, 31)]
            h = [mp.mpf(1)]
            for j in range(1, 31):
                h.append(sum(k * b[k] * h[j - k] for k in range(1, j + 1)) / j)
            ref = [complex(x * mp.rgamma(am)) for x in h]
        c = hurwitz_model(a).series.coeffs
        err = max(abs(complex(c[n]) - ref[n]) * 3.0 ** n for n in range(31))
        assert err <= 1e-15 * sum(abs(r) * 3.0 ** n for n, r in enumerate(ref))

    @pytest.mark.parametrize("a", PARAMS)
    def test_omega_table_reproduces_closed_form(self, riemann, a):
        # the independent oracle of the general re-expansion behind ``shift``
        got = omega_table(riemann.asym, 1.0, complex(a) - 1.0)
        want = hurwitz_model(a).asym
        for j in range(15):
            for k in (0, 1):
                v = want.entry(j, k)
                assert abs(got.entry(j, k) - v) <= 1e-12 * max(1.0, abs(v))

    def test_series_against_hurwitz_zeta_oracle(self):
        for a in (0.25, 2.0):
            hm = hurwitz_model(a)
            for n in (2, 3, 6):
                got = zeta_int_leq_alpha(hm.asym, log_coeffs(hm.series), n)
                assert rel_err(got, complex(mp.zeta(n, a))) < 1e-12

    def test_excluded_parameters(self):
        for a in (0.0, -3.0):
            with pytest.raises(DomainError):
                hurwitz_model(a)

    @pytest.mark.parametrize("a", [-1.9999, 0.001, 0.5 + 5.0j, -50.5])
    def test_elements_near_zero_exact(self, a):
        # n - 1 + a, one rounding, up to n = 2|a - 1|: n (1 + (a - 1)/n) cancels
        # there (a_3 = 1e-4 at a = -1.9999 came out 3.3e-12 off); past it the
        # fill is within a few ulps
        zeros = hurwitz_model(a).zeros
        assert zeros.n_exact == math.ceil(2.0 * abs(a - 1.0))
        vals = zeros.values(4 * zeros.n_exact)
        want = np.arange(4.0 * zeros.n_exact) + a
        assert np.array_equal(vals[:zeros.n_exact], want[:zeros.n_exact])
        assert np.allclose(vals, want, rtol=1e-15, atol=0.0)

    def test_series_near_a_zero_element(self):
        # a_3 = 1e-4 dominates zeta(2, -1.9999), about 1e8
        zeros = hurwitz_model(-1.9999).zeros
        ref = complex(mp.zeta(2, -1.9999))
        for n_terms in (3, 10, 100):
            assert abs(zeta_series(zeros, 2.0, n_terms) - ref) <= 1e-14 * abs(ref), n_terms

    def test_eval_vanishes_at_zeros(self):
        hm = hurwitz_model(0.25)
        for k in range(5):
            lam = 0.25 + k
            f, fp = hm.eval(lam)
            assert abs(f) <= 1e-10 * abs(fp) * abs(lam)


class TestAiryModel:
    def test_series_values(self, airy):
        c = airy.series.coeffs
        assert rel_err(c[0], complex(1 / (3 ** mp.mpf("2/3") * mp.gamma(mp.mpf(2) / 3)))) < 1e-15
        assert c[2] == 0.0
        assert rel_err(c[1], complex(1 / (3 ** mp.mpf("1/3") * mp.gamma(mp.mpf(1) / 3)))) < 1e-15

    @pytest.mark.parametrize("depth", [8, 13])
    def test_tail_table_against_gamma_form(self, depth):
        # c_k = (-3/2 i)^k Gamma(k + 1/6) Gamma(k + 5/6) / (2 pi (-2)^k k!)
        with mp.workdps(40):
            c = [mp.mpc(0, -1.5) ** k * mp.gamma(k + mp.mpf(1) / 6)
                 * mp.gamma(k + mp.mpf(5) / 6) / (2 * mp.pi * (-2) ** k * mp.factorial(k))
                 for k in range(1, depth + 1)]
            ref = mp_log_compose(c)
        m = airy_model(depth=depth)
        for n in range(1, depth + 1):
            assert rel_err(m.asym.entry(3 * n + 3, 0), complex(ref[n])) <= 1e-15, n

    def test_tail_coefficients(self, airy):
        assert rel_err(airy.asym.entry(6, 0), 5j / 48.0) < 1e-14
        assert airy.asym.entry(3, 1) == -0.25
        assert rel_err(airy.asym.entry(0, 0), -2j / 3.0) < 1e-15

    def test_eval_origin(self, airy):
        f, fp = airy.eval(0.0)
        assert abs(f - airy.series.coeffs[0]) < 1e-12
        assert abs(fp - airy.series.coeffs[1]) < 1e-12

    def test_eval_against_oracle(self, airy):
        # the domain |arg z| <= 1.7 or |z| <= 3, drawn from both parts
        rng = np.random.default_rng(67)
        worst = 0.0
        for i in range(40):
            if i % 4:
                z = rng.uniform(0.2, 30.0) * cmath.exp(1j * rng.uniform(-1.7, 1.7))
            else:
                z = rng.uniform(0.2, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            f, fp = airy.eval(z)
            ref = complex(mp.airyai(mp.mpc(-z)))
            refp = complex(-mp.airyai(mp.mpc(-z), 1))
            worst = max(worst, abs(f - ref) / max(abs(ref), 1e-8),
                        abs(fp - refp) / max(abs(refp), 1e-8))
        assert worst < 5e-9

    @pytest.mark.parametrize("r", [3.01, 10.9, 11.05, 40.0])
    @pytest.mark.parametrize("arg", [1.72, 1.9, 2.6, -2.2, math.pi])
    def test_outside_the_domain_raises(self, airy, r, arg):
        # these points were wrong with no error before: a relative error of
        # 2.0 at |z| >= 11 for |arg z| >= 2.2, 2.7 at |z| = 10.9, arg 2.6
        z = r * cmath.exp(1j * arg)
        with pytest.raises(DomainError):
            airy.eval(z)
        with pytest.raises(DomainError):
            airy.log_deriv(np.array([1.0, z]))

    def test_seam_cross_agreement(self, airy):
        from zetakit.catalog import (_AIRY_C, _AIRY_LOG_C, _airy_asym_parts,
                                     _taylor_parts)

        def _airy_taylor_pair(z):
            _, f, fp = _taylor_parts(_AIRY_C, _AIRY_LOG_C, np.array([z]))
            return complex(f[0]), complex(fp[0])

        def _airy_asym_pair(z):
            lg, f, fp = _airy_asym_parts(np.array([z]))
            scale = cmath.exp(lg[0])
            return scale * f[0], scale * fp[0]

        for r in (6.3, 6.8, 7.2):
            a = _airy_taylor_pair(complex(r))[0]
            b = _airy_asym_pair(complex(r))[0]
            assert abs(a - b) <= 5e-10 * max(1.0, abs(a))
        for r in (10.5, 11.0, 11.5):
            z = r * cmath.exp(1.6j)
            a = _airy_taylor_pair(z)[0]
            b = _airy_asym_pair(z)[0]
            assert abs(a - b) <= 1e-11 * abs(a)

    def test_differential_relation(self, airy):
        # F(z) = Ai(-z) satisfies F''(z) = -z F(z).  The h = 1e-4 central
        # difference amplifies evaluation roundoff by 4 eps(F) / h^2 (~1e-4 near the
        # Taylor seam), which sets the attainable comparison floor in binary64.
        rng = np.random.default_rng(71)
        h = 1e-4
        for _ in range(100):
            z = rng.uniform(0.1, 8.0)
            fm = airy.eval(z - h)[0]
            f0 = airy.eval(z)[0]
            fp = airy.eval(z + h)[0]
            second = (fp - 2 * f0 + fm) / (h * h)
            assert abs(second - (-z * f0)) <= 2e-4 * max(1.0, abs(z * f0))

    def test_trivial_zeros_structural(self, airy):
        for n in (1, 2, 4, 5, 7, 8):
            assert zeta_int_leq_alpha(airy.asym, None, -n) == 0.0

    def test_eval_at_zeros(self, airy):
        zs = airy.zeros.values(5)
        for z in zs:
            f, fp = airy.eval(complex(z))
            assert abs(f) <= 1e-10 * abs(fp) * abs(z)

    def test_depth_guard(self):
        with pytest.raises(DomainError):
            airy_model(depth=20)


class TestAiryZeros:
    def test_first_zero_bisection_oracle(self, airy):
        lo, hi = 2.0, 3.0
        flo = airy.eval(lo)[0].real
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = airy.eval(mid)[0].real
            if (flo < 0) == (fm < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        first = airy.zeros.values(1)[0].real
        assert abs(first - 0.5 * (lo + hi)) < 1e-12
        assert abs(first - 2.33810741045976) < 1e-11

    def test_strictly_increasing(self, airy):
        vals = airy.zeros.values(2000).real
        assert np.all(np.diff(vals) > 0)

    def test_residual_criterion(self, airy):
        for z in airy.zeros.values(60).real:
            f, fp = airy_eval(z)
            assert abs(f) <= 1e-12 * max(1.0, abs(fp))

    def test_growth_exponent(self):
        # a_n / n^(2/3) = q(1/n) -> (3 pi / 2)^(2/3) with the 5/48 correction
        for n in (1e2, 1e4):
            t = 1.5 * math.pi * (n - 0.25)
            want = (1.5 * math.pi * (1.0 - 0.25 / n)) ** (2.0 / 3.0) * (1.0 + 5.0 / (48.0 * t * t))
            assert rel_err(airy_zero_q(1.0 / n), want) < 1e-15
        assert rel_err(airy_zero_q(0.0), (1.5 * math.pi) ** (2.0 / 3.0)) < 1e-15

    def test_q_is_the_dlmf_formula(self):
        # n^(2/3) q(1/n) is DLMF 9.9.18 to its first correction, in t = 3 pi (4n - 1)/8
        n = np.arange(1.0, 10001.0)
        t = 3.0 * math.pi * (4.0 * n - 1.0) / 8.0
        want = t ** (2.0 / 3.0) * (1.0 + 5.0 / (48.0 * t * t))
        assert np.max(np.abs(n ** (2.0 / 3.0) * airy_zero_q(1.0 / n) / want - 1.0)) < 2e-15

    def test_head_matches_oracle(self, airy):
        vals = airy.zeros.values(12).real
        for n in (1, 4, 9, 12):
            assert abs(vals[n - 1] - float(-mp.airyaizero(n))) < 5e-12

    def test_negative_n_exact_guard(self):
        with pytest.raises(DomainError):
            airy_zeros(-1)
        assert airy_zeros(0).values(3)[0] == airy_zero_q(np.array([1.0]))[0]


    @pytest.mark.parametrize("n_exact", [0, 5, 60])
    def test_values_are_the_head_then_the_formula(self, n_exact):
        n = np.arange(n_exact + 1.0, 501.0)
        want = np.r_[_airy_head(n_exact), n ** (1.0 / 1.5) * airy_zero_q(n ** -1.0)]
        assert np.array_equal(airy_zeros(n_exact).values(500), want)

    def test_seed_takes_scalars_and_arrays(self):
        # the formula behind Newton's seeds, the fill and the tail, on any array
        v = np.array([1.0, 1.0 / 7.5, 1e-4, *(0.5 * TAIL_CIRCLE[:4])])
        assert np.allclose(airy_zero_q(v), [airy_zero_q(x) for x in v], rtol=1e-15, atol=0.0)


class TestZeroSequence:
    def test_g_alone_one_call_per_fill(self):
        # a sequence given by its formula alone, g(n) = n^(1/alpha) q(n^(-1/m))
        calls = []

        def q(v):
            calls.append(np.array(v))
            return (1.0 - 0.5 * v) ** 2

        def formula(n):
            return n ** 2.0 * (1.0 - 0.5 / n) ** 2

        seq = ZeroSequence(0.5, q)
        assert np.array_equal(seq.values(10), formula(np.arange(1.0, 11.0)))
        calls.clear()
        seq.values(10)
        seq.values(4)
        seq.log_table(7)
        assert calls == []
        vals = seq.values(25)
        assert len(calls) == 1 and np.array_equal(calls[0], 1.0 / np.arange(1.0, 26.0))
        assert np.array_equal(vals, formula(np.arange(1.0, 26.0)))
        assert np.allclose(vals, (np.arange(1, 26) - 0.5) ** 2, rtol=1e-15, atol=0.0)

    def test_composed_sequence_in_v(self):
        # A a_n + B = n^(2/3) (A q(v^3) + B v^2) at v = n^(-1/3), m = 3
        seq = ZeroSequence(1.5, lambda v: 2.0 * airy_zero_q(v ** 3) + 0.3 * v * v, m=3)
        want = 2.0 * airy_zeros(0).values(3000) + 0.3
        assert np.allclose(seq.values(3000), want, rtol=4e-16, atol=0.0)

    def test_head_called_once_per_fill_for_its_prefix(self):
        heads = []

        def head(count):
            heads.append(count)
            return -np.arange(1.0, count + 1)

        seq = ZeroSequence(1.0, lambda v: 1.0 + 0.0 * v, n_exact=3, head=head)
        assert list(seq.values(2)) == [-1, -2]
        assert list(seq.values(6)) == [-1, -2, -3, 4, 5, 6]
        assert heads == [2, 3]

    def test_n_exact_needs_a_head(self):
        with pytest.raises(DomainError):
            ZeroSequence(1.0, lambda v: 1.0 + 0.0 * v, n_exact=3)
        with pytest.raises(DomainError):
            ZeroSequence(1.0, lambda v: 1.0 + 0.0 * v, n_exact=-1, head=lambda c: c)

    def test_log_q_memo(self):
        # one q call on the circle and one at v = N^(-1/m) (is q real?) per N; the
        # same arrays after
        calls = []

        def q(v):
            calls.append(np.size(v))
            return 1.0 - 0.7 * v

        seq = ZeroSequence(1.0, q, m=2)
        log_q, real = seq.log_q(100)
        assert real and calls == [TAIL_CIRCLE.size, 1]
        assert seq.log_q(100)[0] is log_q and calls == [TAIL_CIRCLE.size, 1]
        assert not log_q.flags.writeable
        assert np.allclose(np.exp(log_q), q(0.1 * TAIL_CIRCLE), rtol=1e-15, atol=0.0)
        assert not ZeroSequence(1.0, lambda v: 1.0 + (0.3j - 0.7) * v).log_q(100)[1]

    def test_log_q_is_continuous_around_the_circle(self):
        # q = 2 exp(-3i (v - 1)) has arg 3 (1 - cos theta) on |v| = 1, which passes pi:
        # the principal log jumps by 2 pi i there, the tail's log is ln 2 - 3i (v - 1)
        seq = ZeroSequence(1.0, lambda v: 2.0 * np.exp(-3j * (v - 1.0)))
        log_q, real = seq.log_q(1)
        assert not real
        assert np.max(np.abs(log_q - (math.log(2.0) - 3j * (TAIL_CIRCLE - 1.0)))) < 1e-14

    @pytest.mark.parametrize("s", [2.0, 3.0, 2.5 + 1.0j])
    def test_zero_of_q_inside_the_circle(self, s):
        # q = 1 + (a - 1) v, a = 0.5 + 5i, with no head: its zero at |v| = 0.199
        # is inside the circles from N = 2 to 5, where ln q winds and h = q^-s
        # is not analytic (at integer s it has a pole); the tail refuses them,
        # and zeta_series answers from a later start
        a = 0.5 + 5.0j
        zeros = ZeroSequence(1.0, lambda v: 1.0 + (a - 1.0) * v)
        for n in (2, 5):
            with pytest.raises(AccuracyError, match="not resolved"):
                euler_maclaurin_tail(np.exp(-s * zeros.log_q(n)[0]), n, s)
        ref = complex(mp.zeta(s, a))
        for n_terms in (1, 4, 9):
            assert abs(zeta_series(zeros, s, n_terms) - ref) <= 1e-14 * abs(ref), n_terms


class TestPcfModel:
    def test_printed_tail_coefficients(self):
        for a in (0.0, 1.0, 2.5):
            m = pcf_model(a)
            h1 = -(2 * a + 1) * (2 * a + 3) / 8.0
            h2 = (2 + a) * (1 + 2 * a) * (3 + 2 * a) / 8.0
            h3 = -(2 * a + 1) * (2 * a + 3) * (20 * a * a + 88 * a + 99) / 96.0
            assert rel_err(m.asym.entry(4, 0), h1) < 1e-13
            assert rel_err(m.asym.entry(6, 0), h2) < 1e-13
            assert rel_err(m.asym.entry(8, 0), h3) < 1e-13

    @pytest.mark.parametrize("a", [-0.45, 0.3, 1.0, 2.0, 3.7])
    def test_taylor_table_against_mpmath(self, a):
        # U'' = (z^2/4 + a) U run at 60 digits from mpmath's U(a, 0) and U'(a, 0);
        # the error is measured at |z| = 3, the Taylor branch's radius
        m = pcf_model(a, order=100)
        c = m.series.coeffs
        with mp.workdps(60):
            am = mp.mpf(a)
            ref = [mp.pcfu(am, 0), mp.diff(lambda z: mp.pcfu(am, z), 0)]
            for n in range(len(c) - 2):
                ref.append((am * ref[n] + (ref[n - 2] / 4 if n >= 2 else 0))
                           / ((n + 1) * (n + 2)))
        scale = sum(abs(x) * 3.0 ** k for k, x in enumerate(c))
        err = max(abs(complex(c[k]) - complex(ref[k])) * 3.0 ** k for k in range(len(c)))
        assert err <= 2e-16 * scale

    @pytest.mark.parametrize("a", [-0.45, 0.3, 1.0, 2.0, 3.7])
    def test_tail_table_against_gamma_form(self, a):
        # t_n = (-1)^n Gamma(2n + a + 1/2) / (2^n n! Gamma(a + 1/2))
        m = pcf_model(a)
        depth = (m.asym.N - 2) // 2
        with mp.workdps(40):
            am = mp.mpf(a)
            t = [(-1) ** n * mp.gamma(2 * n + am + 0.5)
                 / (2 ** n * mp.factorial(n) * mp.gamma(am + 0.5)) for n in range(1, depth + 1)]
            ref = mp_log_compose(t)
        for n in range(1, depth + 1):
            assert rel_err(m.asym.entry(2 * n + 2, 0), complex(ref[n])) <= 1e-15, n

    def test_c0_duplication_identity(self):
        for a in (0.0, 1.0, 2.5):
            m = pcf_model(a)
            alt = math.sqrt(math.pi) * 2.0 ** (-(2 * a + 1) / 4.0) \
                / math.gamma((2 * a + 3) / 4.0)
            assert rel_err(m.series.coeffs[0], alt) < 1e-13

    def test_eval_against_oracle(self):
        m = pcf_model(1.0)
        for z in (0.0, 0.7, 2.0, 5.0, 8.0, 20.0):
            f, _ = m.eval(z)
            assert rel_err(f, complex(mp.pcfu(1.0, z))) < 1e-11

    def test_zeta_u2_closed_form(self):
        for a in (0.0, 1.0, 2.5):
            m = pcf_model(a)
            b = log_coeffs(m.series)
            got = zeta_int_leq_alpha(m.asym, b, 2)
            g = mp.gamma
            ref = complex(-a - 0.5 + 2 * (g((2 * a + 3) / 4) / g((2 * a + 1) / 4)) ** 2)
            assert rel_err(got, ref) < 1e-12

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            pcf_model(-0.5)

    @pytest.mark.parametrize("r", [6.0, 8.0, 11.9])
    @pytest.mark.parametrize("arg", [2.36, -2.36])
    def test_laplace_branch_refuses_off_axis(self, pcf_one, r, arg):
        # past |arg z| = 1.6 the Laplace rule cancels digits: F'/F was off by
        # 8e-12 at |z| = 6, 7e-9 at 8 and 2.0 at 11.9 against mpmath
        with pytest.raises(DomainError, match="1.6"):
            pcf_one.log_deriv(r * cmath.exp(1j * arg))
        with pytest.raises(DomainError, match="1.6"):
            pcf_one.eval(r * cmath.exp(1j * arg))
        # inside |z| = 5, and up to |arg z| = 1.6 beyond it, the branch answers
        for z in (5.0 * cmath.exp(1j * arg), r * cmath.exp(1.6j * math.copysign(1.0, arg))):
            ref = complex(mp.diff(lambda w: mp.pcfu(1, w), z) / mp.pcfu(1, z))
            assert rel_err(complex(pcf_one.log_deriv(z)), ref) < 1e-12


class TestChfModel:
    def test_values(self, chf_half):
        a, b = 0.5, 1.5
        got = zeta_int_leq_alpha(chf_half.asym, log_coeffs(chf_half.series), 2)
        assert rel_err(got, a * (a - b) / (b * b * (b + 1))) < 1e-14
        got1 = zeta_int_leq_alpha(chf_half.asym, log_coeffs(chf_half.series), 1)
        assert rel_err(got1, 1 - a / b) < 1e-14

    def test_printed_f2(self):
        for (a, b) in ((0.5, 1.5), (1.2, 2.7)):
            m = chf_model(a, b)
            f2 = -0.5 * (a - 1) * (a - b) * (2 * a - b - 2)
            assert rel_err(m.asym.entry(3, 0), f2) < 1e-13

    def test_eval_origin_exact(self, chf_half):
        f, fp = chf_half.eval(0.0)
        assert f == 1.0
        assert rel_err(fp, 0.5 / 1.5) < 1e-15

    def test_taylor_ratio_property(self, chf_half):
        c = chf_half.series.coeffs
        a, b = 0.5, 1.5
        for n in range(0, 25):
            ref = (a + n) / ((b + n) * (n + 1.0))
            assert rel_err(c[n + 1] / c[n], ref) < 1e-13

    def test_excluded_parameters(self):
        with pytest.raises(DomainError):
            chf_model(-1.0, 1.5)
        with pytest.raises(DomainError):
            chf_model(0.5, 0.0)
        with pytest.raises(DomainError):
            chf_model(2.5, 1.5)  # b - a = -1

    def test_branch_note_recorded(self, chf_half):
        assert any("k = 0" in note for note in chf_half.notes)


def asym_lnf_on_ray(asym, t):
    """Truncated asymptotic value of ln F(t e^{i psi}) at real t > 0."""
    t = np.asarray(t, dtype=float)
    lt = np.log(t) + 1j * asym.psi
    out = np.zeros(t.shape, dtype=complex)
    for (j, k), djk in asym.d.items():
        x0 = asym.location(j)
        out += djk * cmath.exp(1j * x0 * asym.psi) * t ** x0 * lt ** k
    return out


class TestAsymptoticValidity:
    def test_table_matches_log_eval_on_ray(self, riemann, airy, pcf_one, chf_half):
        for model in (riemann, airy, pcf_one, chf_half):
            for t in (50.0, 100.0, 200.0):
                table_val = complex(asym_lnf_on_ray(model.asym, np.array([t]))[0])
                true_val = ln_f_on_ray(model, t)
                # bound by 5x the last retained table term
                jmax = max(j for (j, _k) in model.asym.d)
                last = max(abs(v) * t ** model.asym.location(jmax)
                           * abs(complex(math.log(t), model.asym.psi)) ** k
                           for (j, k), v in model.asym.d.items() if j == jmax)
                assert abs(table_val - true_val) <= max(5 * last, 1e-9)


class TestBuildBudget:
    """Kernel calls per model build: counts, so independent of the machine."""

    BUILDS = {"riemann": riemann_model, "hurwitz": lambda: hurwitz_model(0.3),
              "airy": airy_model, "pcf": lambda: pcf_model(1.0),
              "chf": lambda: chf_model(0.5, 1.5)}

    @staticmethod
    def _count(monkeypatch, owner, name, modules=()):
        calls = [0]
        orig = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for m in modules:
            if getattr(m, name, None) is orig:
                monkeypatch.setattr(m, name, counted)
        return calls

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_no_tail_rule(self, monkeypatch, name):
        # the Taylor and large-argument tables come from closed recurrences
        calls = self._count(monkeypatch, zetakit.quadrature, "euler_maclaurin_tail",
                            (zetakit.catalog, zetakit.evaluate))
        self.BUILDS[name]()
        assert calls[0] == 0

    @pytest.mark.parametrize("name", ["riemann", "hurwitz"])
    def test_polygamma_calls(self, monkeypatch, name):
        # psi(a) and one row of zeta(n, a), not one polygamma call per coefficient
        calls = self._count(monkeypatch, zetakit.kernels, "digamma_polygamma",
                            (zetakit.catalog,))
        self.BUILDS[name]()
        assert calls[0] <= 1

    @pytest.mark.parametrize("name", ["riemann", "hurwitz"])
    def test_no_table_re_expansion(self, monkeypatch, name):
        # both shifted-integer tables come from closed forms, not omega_table
        calls = self._count(monkeypatch, zetakit.shift, "omega_table")
        self.BUILDS[name]()
        assert calls[0] == 0

    def test_pcf_gamma_calls(self, monkeypatch):
        # U(a, 0) and U'(a, 0); the rest is the ODE recurrence and a running product
        calls = self._count(monkeypatch, math, "gamma")
        pcf_model(1.0)
        assert calls[0] <= 2


class TestModelFromSpec:
    def test_names(self):
        assert model_from_spec({"model": "riemann"}).name == "riemann"
        assert model_from_spec('{"model": "hurwitz", "a": 0.25}').params["a"] == 0.25
        assert model_from_spec({"model": "chf", "a": 0.5, "b": 1.5}).name == "chf"

    def test_user_model(self, riemann):
        import json
        spec = {"model": "user",
                "series": {"coeffs": [{"re": float(c.real), "im": float(c.imag)}
                                      for c in riemann.series.coeffs]},
                "asym": json.loads(riemann.asym.to_json())}
        m = model_from_spec(spec)
        assert m.name == "user"
        got = zeta_int_leq_alpha(m.asym, log_coeffs(m.series), 2)
        assert got == pytest.approx(math.pi ** 2 / 6)
        assert m.eval is None and m.zeros is None

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            model_from_spec({"model": "bessel"})

    MALFORMED = [('{bad', "not valid JSON"),
                 ('{"model": "airy", "depth": "x"}', "'depth'"),
                 ('{"model": "hurwitz", "a": "x"}', "'a'"),
                 ('{"model": "hurwitz", "a": NaN}', "'a'"),
                 ('{"model": "user"}', "'series'"),
                 ('{"model": "pcf", "a": null}', "'a'")]

    @pytest.mark.parametrize("spec, field", MALFORMED)
    def test_malformed_spec_names_the_field(self, spec, field):
        with pytest.raises(DomainError, match=field):
            model_from_spec(spec)

    def test_missing_parameter_rejected(self):
        for spec, key in (({"model": "hurwitz"}, "a"), ({"model": "pcf"}, "a"),
                          ({"model": "chf", "a": 0.5}, "b")):
            with pytest.raises(DomainError, match=f"'{key}'"):
                model_from_spec(spec)
