import collections
import dataclasses
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

import zetakit.asym
import zetakit.catalog
from zetakit import evaluate
from zetakit import (AccuracyError, ConditioningWarning, DomainError, PoleError,
                     SlowConvergenceError, StripError, airy_model, airy_zeros, classify_poles,
                     contour_zeta, continued_zeta, euler_maclaurin_tail, hurwitz_model,
                     log_coeffs, model_from_spec, riemann_model, zeta_int_leq_alpha,
                     zeta_series)
from zetakit.quadrature import TAIL_CIRCLE

from conftest import CATALOG_SPECS, rel_err


class TestZetaSeries:
    def test_riemann_two(self, riemann):
        got = zeta_series(riemann.zeros, 2.0, 1000)
        assert abs(got - math.pi ** 2 / 6.0) < 1e-12

    def test_airy_two_closed_form(self, airy):
        ref = complex(3 ** mp.mpf("2/3")
                      * (mp.gamma(mp.mpf(2) / 3) / mp.gamma(mp.mpf(1) / 3)) ** 2)
        got = zeta_series(airy.zeros, 2.0, 10000)
        assert abs(got - ref) < 1e-10

    def test_airy_eight_matches_recursion(self, airy):
        ref = zeta_int_leq_alpha(airy.asym, log_coeffs(airy.series), 8)
        got = zeta_series(airy.zeros, 8.0, 2000)
        assert abs(got - ref) < 1e-12

    def test_margin_guard(self, airy):
        with pytest.raises(SlowConvergenceError):
            zeta_series(airy.zeros, 1.6, 1000)

    def test_tail_robustness(self, airy):
        a = zeta_series(airy.zeros, 2.0, 4000)
        b = zeta_series(airy.zeros, 2.0, 8000)
        assert abs(a - b) < 1e-11

    def test_hurwitz_negative_parameter_branch(self):
        # sequence with negative elements: matches the reflection-computed
        # Hurwitz values (principal-branch powers)
        from zetakit import hurwitz_model
        hm = hurwitz_model(-2.5)
        got = zeta_series(hm.zeros, 4.0, 4000)
        ref = complex(mp.zeta(4, mp.mpf("-2.5")))
        assert abs(got - ref) < 1e-10

    def test_sums_on_the_model_cut(self):
        # hurwitz(-1.3) has two negative elements: the sum takes them on the
        # model's cut 3 pi/4, as the contour routes do (2.9029 + 20.805i)
        model = hurwitz_model(-1.3)
        assert model.zeros.psi == model.asym.psi
        got, want = zeta_series(model.zeros, 2.5, 200), continued_zeta(model, 2.5)
        assert abs(got - want) <= 1e-10 * abs(want)
        assert got.imag > 20.0

    def test_complex_sequence_branch(self):
        from zetakit import hurwitz_model
        hm = hurwitz_model(0.5 + 0.5j)
        got = zeta_series(hm.zeros, 3.0, 4000)
        ref = complex(mp.zeta(3, mp.mpc(0.5, 0.5)))
        assert abs(got - ref) < 1e-10

    def test_negative_terms(self, airy):
        with pytest.raises(DomainError, match="n_terms must be >= 0"):
            zeta_series(airy.zeros, 3.0, -5)
        with pytest.raises(DomainError):
            airy.zeros.values(-1)

    @pytest.mark.parametrize("a, n_terms", [(-1.3, 0), (-1.3, 2), (-0.5, 1), (0.3, 0),
                                            (0.4 + 0.7j, 0)])
    def test_tail_start_below_one_against_mpmath(self, a, n_terms):
        # Re a_N < 1 at N = n_terms + 1: the tail starts past the head of
        # n_exact elements, and the head grows while its estimate refuses
        ref = complex(mp.zeta(3, mp.mpmathify(a)))
        got = zeta_series(hurwitz_model(a).zeros, 3.0, n_terms)
        assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_tail_start_at_one_accepted(self):
        # hurwitz(-1.3) from n_terms = 3: g(4) = 1.7
        ref = complex(mp.zeta(3, -1.3))
        assert rel_err(zeta_series(hurwitz_model(-1.3).zeros, 3.0, 3), ref) < 5e-3

    @pytest.mark.parametrize("name, s, n_terms", [("riemann", 3.0, 0), ("riemann", 2.5 - 1.0j, 4),
                                                  ("hurwitz(0.5+5j)", 2.0, 5)])
    def test_start_doubles_until_the_tail_passes(self, name, s, n_terms):
        # where the tail from N is refused, zeta_series sums to 2N - 1 directly
        # and tries the tail from 2N: its value is that head plus that tail
        zeros = SEQUENCES[name]()
        n = max(n_terms, zeros.n_exact) + 1
        while True:
            head = complex(np.sum(np.exp(-s * zeros.log_table(n - 1))))
            log_q, real = zeros.log_q(n)
            try:
                tail = euler_maclaurin_tail(np.exp(-s * log_q), n, s, real=real and s.imag == 0)
                break
            except AccuracyError:
                n *= 2
        assert n > max(n_terms, zeros.n_exact) + 1
        assert zeta_series(zeros, s, n_terms) == head + tail

    @pytest.mark.parametrize("n_terms", [0, 5, 59])
    def test_refined_head_always_summed(self, airy, n_terms):
        # the tail starts past the 60 Newton-refined zeros whatever n_terms asks
        ref = complex(3 ** mp.mpf("2/3")
                      * (mp.gamma(mp.mpf(2) / 3) / mp.gamma(mp.mpf(1) / 3)) ** 2)
        assert abs(zeta_series(airy.zeros, 2.0, n_terms) - ref) < 1e-12


# fresh sequences: positive reals, integers, some negative values, complex
# values
SEQUENCES = {"airy": airy_zeros, "riemann": lambda: riemann_model().zeros,
             "hurwitz(-1.3)": lambda: hurwitz_model(-1.3).zeros,
             "hurwitz(0.4+0.7j)": lambda: hurwitz_model(0.4 + 0.7j).zeros,
             "hurwitz(0.5+5j)": lambda: hurwitz_model(0.5 + 5.0j).zeros}


class TestSeriesMemo:
    """zeta_series memoizes its s-independent work on the sequence: the same
    bits whatever the memo already holds, and that work done once."""

    N = 3000
    S = (2.5, 3.0 + 1.5j, 6.0)

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_same_bits_after_other_calls(self, name):
        # on the sequence's own cut and on another: a copy with its own psi
        # builds its own memo and leaves the original's bits alone
        for psi in (None, 2.0):
            def fresh():
                seq = SEQUENCES[name]()
                return seq if psi is None else dataclasses.replace(seq, psi=psi)

            want = [zeta_series(fresh(), s, self.N) for s in self.S]
            used = fresh()
            used.values(2 * self.N)
            zeta_series(used, self.S[0], 2 * self.N)
            zeta_series(dataclasses.replace(used, psi=math.pi), self.S[0], 2 * self.N)
            zeta_series(used, self.S[0], self.N // 2)
            assert [zeta_series(used, s, self.N) for s in self.S] == want, psi

    @pytest.mark.parametrize("name", ["airy", "hurwitz(0.4+0.7j)"])
    def test_work_done_once(self, monkeypatch, name):
        seq = SEQUENCES[name]()
        arrays = collections.Counter()       # q on arrays, by length

        def q(v):
            arrays[np.size(v)] += 1
            return seq.q(v)

        log_tables, build = [], zetakit.catalog.log_psi_array

        def count_log_tables(vals, psi):
            log_tables.append(psi)
            return build(vals, psi)

        monkeypatch.setattr(zetakit.catalog, "log_psi_array", count_log_tables)
        counted = dataclasses.replace(seq, q=q)
        for s in np.linspace(2.0, 8.0, 40):
            zeta_series(counted, s, self.N)
        assert len(log_tables) == 1
        # the fill through a_N, the circle and the point that tells whether q
        # is real, each once
        assert sorted(arrays) == [1, TAIL_CIRCLE.size, self.N - seq.n_exact]
        assert max(arrays.values()) == 1

    def test_tail_reads_the_memoized_circle(self):
        # a sequence that built its circles in another order, or for other
        # starts, gives the same bits: its head plus the tail of the memo's ln q
        for name in sorted(SEQUENCES):
            want = [zeta_series(SEQUENCES[name](), s, self.N) for s in self.S]
            used = SEQUENCES[name]()
            for n in (self.N + 1, 7 * self.N, 2 * self.N + 1):
                used.log_q(n)
            assert [zeta_series(used, s, self.N) for s in self.S] == want, name
            log_q, real = used.log_q(self.N + 1)
            for s, got in zip(self.S, want):
                s = complex(s)
                head = complex(np.sum(np.exp(-s * used.log_table(self.N))))
                tail = euler_maclaurin_tail(np.exp(-s * log_q), self.N + 1, s / used.alpha,
                                            used.m, real=real and s.imag == 0.0)
                assert got == head + tail, (name, s)


class TestContourZeta:
    def test_riemann_integers(self, riemann):
        for s in (2.0, 3.0, 4.0):
            got = contour_zeta(riemann, s, R=0.5)
            assert abs(got - complex(mp.zeta(s))) < 1e-6

    def test_airy_three(self, airy):
        g = mp.gamma
        ref = complex(0.5 - 3 * (g(mp.mpf(2) / 3) / g(mp.mpf(1) / 3)) ** 3)
        got = contour_zeta(airy, 3.0, R=1.0)
        assert abs(got - ref) < 1e-6

    def test_ray_term_vanishes_at_integers(self, airy):
        # at integer s only the circle term survives; the value must agree
        # with the recursion at quadrature tolerance
        got = contour_zeta(airy, 6.0, R=1.5)
        ref = zeta_int_leq_alpha(airy.asym, log_coeffs(airy.series), 6)
        assert abs(got - ref) < 1e-10

    def test_noninteger_default_arguments(self, riemann, airy, hurwitz_quarter):
        # the ray stops at the searched cutoff and the tail past it comes
        # from the asymptotic table, so no t_max needs to reach the far tail
        assert abs(contour_zeta(riemann, 2.5) - complex(mp.zeta(2.5))) < 1e-10
        assert abs(contour_zeta(airy, 2.5) - zeta_series(airy.zeros, 2.5, 8000)) < 1e-10
        ref = complex(mp.zeta(2.5, mp.mpf("0.25")))
        assert rel_err(contour_zeta(hurwitz_quarter, 2.5), ref) < 1e-12

    def test_airy_noninteger(self, airy):
        got = contour_zeta(airy, 2.5, R=1.5, t_max=2.0e6, quad_tol=1e-10)
        ref = zeta_series(airy.zeros, 2.5, 8000)
        assert abs(got - ref) < 1e-6

    @pytest.mark.parametrize("fixture, R", [
        ("riemann", None), ("hurwitz_quarter", None), ("airy", None),
        ("pcf_one", 0.9), ("chf_half", 0.9)])
    def test_agrees_with_continued_off_integers(self, request, fixture, R):
        model = request.getfixturevalue(fixture)
        s = model.alpha + 0.3
        got = contour_zeta(model, s, R=R)
        # PCF and CHF (R = 0.9) agree to about 2e-11 and 2e-12 here
        tol = 1e-10 if R is not None else 1e-12
        assert rel_err(got, continued_zeta(model, s, R=R)) < tol

    def test_domain_guard(self, airy):
        with pytest.raises(DomainError):
            contour_zeta(airy, 1.0)
        with pytest.raises(DomainError):
            contour_zeta(airy, 3.0, R=5.0)


class TestContinuedZeta:
    def test_airy_special_points(self, airy):
        assert abs(continued_zeta(airy, 0.0) + 0.25) < 1e-8
        assert abs(continued_zeta(airy, -1.0)) < 1e-7
        assert abs(continued_zeta(airy, -0.5) - (-0.1393)) < 2e-4

    def test_riemann_left_values(self, riemann):
        for s in (0.5, -0.5, -2.5):
            got = continued_zeta(riemann, s)
            assert abs(got - complex(mp.zeta(s))) < 1e-10

    def test_hurwitz_small_a_off_axis(self):
        # the continued ray subtracts the table only from t = 1, not from
        # R = 0.255, where its terms reach R^-13 ~ 5e7 times the value
        s = 0.3 + 2.5j
        got = continued_zeta(hurwitz_model(0.3), s)
        assert rel_err(got, complex(mp.zeta(s, mp.mpf(0.3)))) < 1e-12

    def test_representation_agreement(self, riemann, airy):
        for model in (riemann, airy):
            for s in (2.0, 3.0, 4.0):
                series = zeta_series(model.zeros, s, 4000)
                contour = contour_zeta(model, s)
                cont = continued_zeta(model, s)
                assert abs(series - contour) < 1e-6
                assert abs(series - cont) < 1e-6
                assert abs(contour - cont) < 1e-6

    def test_r_independence(self, airy):
        r1 = 0.5 * airy.first_zero_modulus
        r2 = 0.9 * airy.first_zero_modulus
        for s in (2.5, 0.0, -0.5):
            a = continued_zeta(airy, s, R=r1)
            b = continued_zeta(airy, s, R=r2)
            assert abs(a - b) < 1e-7

    def test_residue_bracketing(self, airy):
        h = 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            above = h * continued_zeta(airy, 1.5 + h)
            below = -h * continued_zeta(airy, 1.5 - h)
        target = 1.0 / math.pi
        # one-sided estimates carry the linear Laurent term ~1.0e-4 each
        assert abs(above - target) < 1.5e-4
        assert abs(below - target) < 1.5e-4
        lo, hi = min(above.real, below.real), max(above.real, below.real)
        assert lo <= target <= hi
        assert abs(0.5 * (above + below) - target) < 1e-6

    def test_pole_proximity_warns(self, airy):
        with pytest.warns(ConditioningWarning):
            continued_zeta(airy, 1.5 + 5e-4)

    def test_at_pole_raises(self, airy):
        with pytest.raises(PoleError):
            continued_zeta(airy, 1.5)

    def test_contour_near_the_abscissa_warns(self, airy):
        # the tail past T is l_asy_eval, whose row at alpha is the pole
        with pytest.warns(ConditioningWarning, match="of the pole at 1.5"):
            contour_zeta(airy, 1.5 + 5e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            contour_zeta(airy, 1.5 + 2e-3)

    def test_strip_guard(self, airy):
        with pytest.raises(StripError):
            continued_zeta(airy, -30.0)

    def test_depth_trim_consistency(self, airy):
        # depth 2 keeps the rows j <= 9 of the default table, entry for entry
        full = continued_zeta(airy, -0.5)
        trimmed = continued_zeta(airy_model(depth=2), -0.5)
        assert abs(full - trimmed) < 1e-7

    def test_quad_tol_override(self, airy):
        got = continued_zeta(airy, 0.0, quad_tol=1e-6)
        assert abs(got + 0.25) < 1e-4

    def test_zeta0_limit_consistency(self, riemann, airy):
        # the stored zeta(0) is the s -> 0 limit of the full representation
        from zetakit import classify_poles
        for model in (riemann, airy):
            z0 = classify_poles(model.asym).zeta0
            near = continued_zeta(model, 1e-6)
            assert abs(near - z0) < 1e-4


class TestPoleGuard:
    """continued_zeta leaves the pole guard to l_asy_eval, which reads each
    row by the rule of classify_poles."""

    @pytest.mark.parametrize("spec", CATALOG_SPECS + [{"model": "airy", "depth": 13}],
                             ids=json.dumps)
    def test_every_pole_raises_what_classify_poles_reports(self, spec):
        # pcf and chf have no poles
        model = model_from_spec(spec)
        for p in classify_poles(model.asym).poles:
            with pytest.raises(PoleError) as exc:
                continued_zeta(model, p.location)
            got = exc.value
            assert (got.location, got.order, got.residue) == (p.location, p.order, p.residue)

    def test_values_without_classify_poles(self, monkeypatch, riemann, airy):
        # the values before the guard moved into l_asy_eval, to the bit
        want = {-0.5: -0.13941929787927662 - 1.1764200724684315e-13j,
                -2.5: 0.008516928777924853 - 2.4102247975221758e-14j}
        before = continued_zeta(airy, -0.5), continued_zeta(riemann, -2.5)

        def refuse(asym):
            raise AssertionError("continued_zeta called classify_poles")

        monkeypatch.setattr(zetakit.asym, "classify_poles", refuse)
        monkeypatch.setattr(evaluate, "classify_poles", refuse, raising=False)
        after = continued_zeta(airy, -0.5), continued_zeta(riemann, -2.5)
        assert after == before
        for s, got in zip((-0.5, -2.5), after):
            assert rel_err(got, want[s]) <= 1e-15


class TestZeroFreeCircle:
    """With no known first zero (PCF, CHF), a given R is checked by the
    argument principle; both refused circles enclose two zeros, and gave a
    value that depends on R (4.449i for pcf(1) at R = 4 against 1.127i, and
    -1.538i for chf(0.5, 1.5) at R = 6 against -1.024i)."""

    def test_pcf_circle_with_zeros_refused(self, pcf_one):
        with pytest.raises(DomainError, match="encloses 2 zeros"):
            continued_zeta(pcf_one, -0.5, R=4.0)
        with pytest.raises(DomainError, match="encloses 2 zeros"):
            contour_zeta(pcf_one, 2.5, R=4.0)
        assert abs(continued_zeta(pcf_one, -0.5, R=2.0)
                   - continued_zeta(pcf_one, -0.5, R=0.9)) < 1e-9

    def test_chf_circle_with_zeros_refused(self, chf_half):
        with pytest.raises(DomainError, match="encloses 2 zeros"):
            continued_zeta(chf_half, 0.5, R=6.0)
        assert abs(continued_zeta(chf_half, 0.5, R=3.0)
                   - continued_zeta(chf_half, 0.5, R=0.9)) < 1e-9

    def test_count_against_the_zeros(self, pcf_one, chf_half):
        # the first zeros of each are a conjugate pair; |z| from mpmath
        with mp.workdps(20):
            pcf_first = abs(complex(mp.findroot(lambda z: mp.pcfu(1, z), mp.mpc(-1.8, 3.2))))
            chf_first = abs(complex(mp.findroot(lambda z: mp.hyp1f1(0.5, 1.5, z), mp.mpc(4, 4))))
        assert 3.7 < pcf_first < 3.72 and 5.6 < chf_first < 5.7
        inside = evaluate._zeros_inside
        for model, first in ((pcf_one, pcf_first), (chf_half, chf_first)):
            for R in (0.5, 2.0, 0.99 * first):
                assert inside(model, R) == 0
            assert inside(model, 1.01 * first) == 2


    @pytest.mark.parametrize("R", [3.0, 1.0])
    def test_circle_through_a_pole_refused(self, riemann, R):
        # a sample sits on the pole of F'/F at z = R: the mean is huge at R = 3
        # (read as -601243377843924 zeros) and NaN at R = 1, never a count
        blind = dataclasses.replace(riemann, first_zero_modulus=None)
        with pytest.raises(DomainError, match="did not settle"):
            continued_zeta(blind, 0.5, R=R)
        with pytest.raises(DomainError, match="did not settle"):
            evaluate._zeros_inside(blind, R)

    @pytest.mark.parametrize("a", [-100.5, -70.3, -63.7])
    def test_hurwitz_default_circle_far_left(self, a):
        # the zeros a + k nearest 0 lie past k = 63; a radius read off k < 64
        # alone enclosed 64, 12 and 1 of them (0.00368 + 0.00303i at -100.5)
        model = hurwitz_model(a)
        assert evaluate._zeros_inside(model, 0.85 * model.first_zero_modulus) == 0
        want = zeta_series(model.zeros, 2.5, 0)
        assert rel_err(contour_zeta(model, 2.5), want) < 1e-12


def _counting(model):
    """model with a log_deriv that counts its calls in ``calls[0]``."""
    calls = [0]

    def log_deriv(z):
        calls[0] += 1
        return model.log_deriv(z)

    return dataclasses.replace(model, log_deriv=log_deriv), calls


class TestCallBudget:
    """log_deriv calls per value: the circle, the cutoff probes and one call
    per quadrature round.  Counts, so independent of the machine."""

    BUDGET = 20

    def _check(self, model, fn, s, **kw):
        counted, calls = _counting(model)
        val = fn(counted, s, **kw)
        assert calls[0] <= self.BUDGET
        return val

    def test_airy(self, airy):
        assert abs(self._check(airy, continued_zeta, -0.5) - (-0.1393)) < 2e-4

    def test_riemann(self, riemann):
        got = self._check(riemann, continued_zeta, -0.5)
        assert abs(got - complex(mp.zeta(-0.5))) < 1e-10

    def test_hurwitz_complex(self):
        s = 0.3 + 2.5j
        got = self._check(hurwitz_model(0.3), continued_zeta, s)
        assert abs(got - complex(mp.zeta(s, mp.mpf("0.3")))) < 1e-7

    def test_pcf(self, pcf_one):
        # no closed form at -1/2: the value must not depend on the radius
        got = self._check(pcf_one, continued_zeta, -0.5, R=1.0)
        assert abs(got - continued_zeta(pcf_one, -0.5, R=0.9)) < 1e-7

    def test_chf(self, chf_half):
        got = self._check(chf_half, continued_zeta, 0.5, R=0.9)
        assert abs(got - continued_zeta(chf_half, 0.5, R=0.8)) < 1e-7

    def test_riemann_contour(self, riemann):
        got = self._check(riemann, contour_zeta, 2.5)
        assert abs(got - complex(mp.zeta(2.5))) < 1e-10
