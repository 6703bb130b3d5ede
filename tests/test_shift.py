import cmath
import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from zetakit import (AsymExpansion, ShiftParams, bernoulli_poly,
                     classify_poles, gamma, model_from_spec, omega_table, residue_at,
                     shifted_values, zeta_series)
from zetakit.asym import l_asy_eval
from zetakit.catalog import ZeroSequence, _airy_head, airy_zero_q, ln_gamma_continued

from conftest import rel_err


class TestOmegaTable:
    def test_identity_on_catalogs(self, riemann, airy, pcf_one, chf_half):
        ident = ShiftParams(1.0, 0.0)
        for model in (riemann, airy, pcf_one, chf_half):
            om = omega_table(model.asym, ident)
            for (j, k), v in model.asym.d.items():
                assert abs(om.entry(j, k) - v) <= 1e-14 * max(1.0, abs(v))
            for (j, k), v in om.d.items():
                assert abs(model.asym.entry(j, k) - v) <= 1e-14 * max(1.0, abs(v))

    def test_series_expansion_oracle(self):
        # one-entry tables d[1, k] = 1 with alpha = 1.5, m = 2 (x = 1): the
        # re-expanded sum of Omega[j, l] z^(alpha - j/m) ln^l z reproduces
        # (z - mu)^x ln^k (z - mu) at large z; k = 2 covers M = 2
        mu = 0.6 + 0.3j
        alpha, m, j = 1.5, 2, 1
        x = alpha - j / m
        for k in (0, 1, 2):
            src = AsymExpansion(alpha=alpha, m=m, M=2, N=j + 2 * 11,
                                d={(j, k): 1.0}, psi=0.0)
            om = omega_table(src, ShiftParams(1.0, mu))
            for z in (50.0 + 0j, 60.0 * cmath.exp(0.9j)):
                direct = (z - mu) ** x * cmath.log(z - mu) ** k
                acc = sum(v * z ** (alpha - jj / m) * cmath.log(z) ** l
                          for (jj, l), v in om.d.items())
                assert rel_err(acc, direct) < 1e-12

    def test_hurwitz_closed_forms(self, riemann):
        for a in (0.25, 0.5, 2.0, -2.5):
            om = omega_table(riemann.asym, ShiftParams(1.0, a - 1.0))
            assert rel_err(om.entry(0, 1), 1.0) < 1e-14
            assert abs(om.entry(0, 0) - (-(1j * math.pi + 1.0))) < 1e-14
            assert abs(om.entry(1, 1) - (0.5 - a)) < 1e-13
            ref10 = complex(-0.5 * math.log(2 * math.pi), math.pi * (a - 0.5))
            assert abs(om.entry(1, 0) - ref10) < 1e-13
            for j in range(2, 9):
                ref = complex(bernoulli_poly(j, a)) / (j * (j - 1.0))
                assert abs(om.entry(j, 0) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_shift_composition(self, riemann):
        rng = np.random.default_rng(61)
        base = riemann.asym.truncated(12)
        for _ in range(5):
            b1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.5
            b2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.5
            two_step = omega_table(omega_table(base, ShiftParams(1.0, b1)),
                                   ShiftParams(1.0, b2))
            one_step = omega_table(base, ShiftParams(1.0, b1 + b2))
            for j in range(13):
                for k in (0, 1):
                    assert abs(two_step.entry(j, k) - one_step.entry(j, k)) \
                        <= 1e-10 * max(1.0, abs(one_step.entry(j, k)))

    def test_least_squares_fit_oracle(self, riemann):
        # fit ln F(z - mu) = -log Gamma(a - z) sampled on the ray against the
        # model sum Omega z^{alpha - j} ln^k z.  The j = 4 signal sits ~1e-13
        # below the sample scale, so the samples and the solve run at 40
        # digits (binary64 sampling cannot resolve it); the comparison is the
        # double-precision table.
        a = 0.8
        mu = a - 1.0
        om = omega_table(riemann.asym, ShiftParams(1.0, mu))
        psi = riemann.asym.psi
        with mp.workdps(60):
            tgrid = [mp.mpf(50) + mp.mpf(150) * i / 39 for i in range(40)]
            zgrid = [t * mp.expjpi(mp.mpf(psi) / mp.pi) for t in tgrid]
            rhs = mp.matrix([-mp.loggamma(a - z) for z in zgrid])
            keys = [(j, k) for j in range(11) for k in (0, 1)]
            design = mp.matrix(len(zgrid), len(keys))
            for i, z in enumerate(zgrid):
                lz = mp.log(z)
                for c, (j, k) in enumerate(keys):
                    design[i, c] = z ** (1 - j) * lz ** k
            scales = []
            for c in range(len(keys)):
                sc = max(abs(design[i, c]) for i in range(len(zgrid)))
                scales.append(sc)
                for i in range(len(zgrid)):
                    design[i, c] /= sc
            fit = mp.qr_solve(design, rhs)[0]
        for c, (j, k) in enumerate(keys):
            if j > 4:
                continue
            ref = om.entry(j, k)
            got = complex(fit[c] / scales[c])
            if abs(ref) > 1e-10:
                assert rel_err(got, ref) < 1e-6
            else:
                assert abs(got) < 1e-8


class TestShiftedValues:
    def test_hurwitz_zeta0(self, riemann):
        for a in (0.25, 0.5, 2.0, -2.5):
            rep = shifted_values(riemann.asym, ShiftParams(1.0, a - 1.0))
            assert abs(rep.report.zeta0 - (0.5 - a)) < 1e-12

    def test_hurwitz_zeta_prime0_both_branches(self, riemann):
        for a in (0.25, 0.5, 2.0, -2.5):
            lnF = -ln_gamma_continued(a)
            rep = shifted_values(riemann.asym, ShiftParams(1.0, a - 1.0),
                                 ln_f_shifted=lnF)
            if a > 0:
                ref = -0.5 * math.log(2 * math.pi) + cmath.log(gamma(a))
            else:
                ref = complex(-0.5 * math.log(2 * math.pi)
                              + math.log(abs(gamma(a))),
                              -math.pi * math.floor(a))
            assert abs(rep.report.zeta_prime0 - ref) < 1e-10

    def test_hurwitz_negative_integers(self, riemann):
        for a in (0.25, 2.0, -2.5):
            rep = shifted_values(riemann.asym, ShiftParams(1.0, a - 1.0),
                                 n_values=range(-8, 0))
            for n in range(1, 9):
                ref = -complex(bernoulli_poly(n + 1, a)) / (n + 1)
                assert abs(rep.values[-n] - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_scale_prefactor_on_values(self, airy):
        # pure scaling lambda_n = A a_n: zeta values pick up A^{-n}
        A = 2.0
        rep = shifted_values(airy.asym, ShiftParams(A, 0.0), n_values=[-3])
        assert rel_err(rep.values[-3], A ** 3.0 * (15.0 / 64.0)) < 1e-12

    def test_residue_scaling(self, airy):
        rep = shifted_values(airy.asym, ShiftParams(2.0, 0.0))
        p = rep.report.pole_at(1.5)
        assert rel_err(p.residue, 2.0 ** -1.5 / math.pi) < 1e-12

    # alpha = 3/2, m = 1: row 1 carries d[1, 1], so s = 1/2 is a double pole
    DOUBLE = AsymExpansion(alpha=1.5, m=1, M=1, N=3, psi=2.0,
                           d={(0, 0): 0.7, (1, 1): 0.4 + 0.1j, (1, 0): 0.3, (2, 0): 0.2})

    def test_double_pole_residue(self):
        # the residue of A^(-s) zeta(s) at a double pole takes -ln A c_{-2} too;
        # the reference is the trapezoid rule of the test below, at 32-128 points
        rep = shifted_values(self.DOUBLE, ShiftParams(2.0, 0.0))
        p = rep.report.pole_at(0.5)
        assert p.order == 2
        assert abs(p.residue - (-0.156128617689 + 0.057235568604j)) < 1e-10

    @pytest.mark.parametrize("A, B", [(2.0, 0.0), (0.5 + 1.0j, 0.0), (3.0, 0.4 - 0.2j)])
    def test_residues_against_the_trapezoid_rule(self, A, B):
        # (1/2 pi i) of the integral of A^(-s) L_asy(s) over |s - x| = 1/4,
        # by the trapezoid rule on 64 points, is the residue at every pole
        shift = ShiftParams(A, B)
        rep = shifted_values(self.DOUBLE, shift)
        om = omega_table(self.DOUBLE, shift)
        e = 0.25 * np.exp(2j * np.pi * np.arange(64) / 64)
        for p in rep.report.poles:
            ref = np.mean([x * A ** -(p.location + x) * l_asy_eval(om, p.location + x, 1.0)
                           for x in e])
            assert abs(p.residue - ref) < 1e-10, p

    def test_simple_poles_keep_the_scaled_residue(self, riemann, airy):
        for model in (riemann, airy):
            base = classify_poles(model.asym)
            rep = shifted_values(model.asym, ShiftParams(2.0, 0.0))
            for p, q in zip(base.poles, rep.report.poles):
                assert q.residue == 2.0 ** complex(-p.location) * p.residue

    @pytest.mark.parametrize("spec, A", [({"model": "airy"}, 0.75 + 0.5j),
                                         ({"model": "hurwitz", "a": 0.3}, 2.0 - 1.0j)])
    @pytest.mark.parametrize("B", [0.0, 0.3])
    def test_residues_equal_the_rebuilt_row_route(self, spec, A, B):
        # the route before the residues read _laurent: rewrite row j of Omega
        # for ln(z/A) = ln z - ln A, take its residue_at, scale by A^(-x)
        asym, shift = model_from_spec(spec).asym, ShiftParams(A, B)
        om, ln_a = omega_table(asym, shift), cmath.log(A)
        poles = shifted_values(asym, shift).report.poles
        assert poles
        for p in poles:
            j = om.j_for_location(p.location)
            row = {(j, l): sum(math.comb(k, l) * (-ln_a) ** (k - l) * om.entry(j, k)
                               for k in range(l, om.M + 1)) for l in range(om.M + 1)}
            want = A ** complex(-p.location) * residue_at(dataclasses.replace(om, d=row), j)
            assert p.residue == want, p

    def test_zeta_prime0_needs_the_boundary_value(self, riemann):
        # B != 0 moves ln F(0) to ln F(-B/A): without it there is no zeta'(0);
        # B = 0 keeps it: zeta(s) = 2^(-s) zeta_R(s) has zeta'(0) = -ln(pi)/2
        assert shifted_values(riemann.asym, ShiftParams(1.0, -0.75)).report.zeta_prime0 is None
        assert shifted_values(riemann.asym, ShiftParams(2.0, 0.0)).report.zeta_prime0 \
            == pytest.approx(-0.5 * math.log(math.pi), rel=1e-14)

    def test_cancellation_flags_skip_exact_zeros(self):
        # the identity shift keeps the table; entries at or below 1e-14 are
        # exact zeros to every table reader, a 1e-12 entry may have lost digits
        d = {(0, 1): 1.0, (2, 0): 1e-12, (3, 0): 1.08e-19, (4, 0): 1e-14, (5, 0): 0.5}
        src = AsymExpansion(alpha=1.0, m=1, M=1, N=6, d=d, psi=0.0)
        rep = shifted_values(src, ShiftParams(1.0, 0.0))
        assert rep.flags == ("possible cancellation in Omega[2,0] = 1.00e-12",)


def test_shift_params_json_roundtrip():
    sp = ShiftParams(2.0 - 1.0j, 0.25 + 3.0j)
    doc = sp.to_json_dict()
    assert set(doc) == {"A", "B"}
    assert set(doc["A"]) == {"re", "im"}
    back = ShiftParams.from_json_dict(doc)
    assert back.A == sp.A and back.B == sp.B


def _rightmost_poles(asym, shift):
    """The pole at s = alpha before and after the shift (None where absent)."""
    return (classify_poles(asym).pole_at(asym.alpha),
            shifted_values(asym, shift).report.pole_at(asym.alpha))


class TestRightmostPole:
    def test_riemann_ratios(self, riemann):
        for A in (2.0, 1j, 1 + 1j):
            p0, p1 = _rightmost_poles(riemann.asym, ShiftParams(A, 0.3))
            assert p0.order == p1.order == 1
            assert rel_err(p1.residue / p0.residue, complex(A) ** -1.0) < 1e-10

    def test_airy_scaled_residue(self, airy):
        p0, p1 = _rightmost_poles(airy.asym, ShiftParams(2.0, 0.0))
        assert p0.order == p1.order == 1
        assert rel_err(p1.residue / p0.residue, 2.0 ** -1.5) < 1e-10

    def test_no_pole_at_alpha_stays_absent(self, pcf_one):
        assert _rightmost_poles(pcf_one.asym, ShiftParams(2.0, 0.0)) == (None, None)


class TestNegativeBinomialRelation:
    # zeta_{A,B}(s) = sum_{n<m0} lam^-s + A^-s sum_k (-1)^k/k! (B/A)^k
    #   Gamma(s+k)/Gamma(s) [zeta(s+k) - partial_{m0-1}] at real s > alpha
    A, B, S = 2.0, 0.3, 3.0

    def _shifted_by_the_relation(self, airy, m0=4):
        A, B, s = self.A, self.B, self.S
        zs = airy.zeros.values(m0 - 1)
        acc = complex(np.sum((A * zs + B) ** -s))
        ratio = 1.0
        for k in range(0, 40):
            if k > 0:
                ratio *= (s + k - 1) * (-(B / A)) / k
            zk = zeta_series(airy.zeros, s + k, 3000)
            term = A ** -s * ratio * (zk - complex(np.sum(zs ** -(s + k))))
            acc += term
            if abs(term) < 1e-14:
                break
        return acc

    def test_airy_shifted_series_oracle(self, airy):
        zs = airy.zeros.values(4000)
        direct = complex(np.sum((self.A * zs + self.B) ** -self.S))
        # crude tail completion by comparison at doubled length
        lam2 = self.A * airy.zeros.values(8000) + self.B
        direct2 = complex(np.sum(lam2 ** -self.S))
        tail_scale = abs(direct2 - direct)
        assert abs(self._shifted_by_the_relation(airy) - direct2) < max(1e-8, 10 * tail_scale)

    def test_composed_zero_sequence(self, airy):
        # A a_n + B as a sequence of its own: its head composed, and past it
        # n^(2/3) (A q(v^3) + B v^2) at v = n^(-1/3): the head's values are A zs + B
        # bit for bit, the rest up to rounding; zeta_series sums it with a tail
        # from any start past the head
        A, B = self.A, self.B
        seq = ZeroSequence(1.5, lambda v: A * airy_zero_q(v ** 3) + B * v * v, m=3,
                           n_exact=60, head=lambda c: A * _airy_head(c) + B)
        want = A * airy.zeros.values(4000) + B
        assert np.array_equal(seq.values(60), want[:60])
        assert np.allclose(seq.values(4000), want, rtol=4e-16, atol=0.0)
        want = self._shifted_by_the_relation(airy)
        for n_terms in (0, 60, 1000, 4000):
            assert abs(zeta_series(seq, self.S, n_terms) - want) < 1e-13
