"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import cmath
import math
import time

import numpy as np

from zetakit import (PowerSeries, aaa_fit, airy_zeros, bary_eval,
                     bernoulli_number, bernoulli_poly_row, chf_model,
                     classify_poles, contour_zeta, continued_zeta,
                     derivative_at, exact_sum_rule, find_real_features, gamma,
                     hadamardize, log_coeffs, omega_table, pcf_model,
                     shifted_values, zeta_int_leq_alpha, zeta_prime_zero,
                     zeta_series, zeta_via_bell)
from zetakit.catalog import ln_gamma_continued


class Checker:
    def __init__(self, label):
        self.label = label
        self.failures = []
        self.count = 0

    def check(self, name, got, want, tol, rel=True):
        self.count += 1
        got = complex(got)
        want = complex(want)
        err = abs(got - want)
        if rel:
            err /= max(abs(want), 1e-30)
        if not err <= tol:
            self.failures.append(f"{name}: got {got}, want {want}, err {err:.3e}")

    def require(self, name, cond):
        self.count += 1
        if not cond:
            self.failures.append(name)

    def finish(self):
        status = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({self.count} checks)")
        assert not self.failures, "\n".join(self.failures)


def test_criterion_1_riemann_recursion(riemann):
    c = Checker("1 riemann recursion")
    b = log_coeffs(riemann.series)
    c.check("zeta_R(2)", zeta_int_leq_alpha(riemann.asym, b, 2),
            math.pi ** 2 / 6.0, 1e-12)
    for n in range(1, 7):
        ref = abs(bernoulli_number(2 * n)) * (2 * math.pi) ** (2 * n) \
            / (2.0 * math.factorial(2 * n))
        c.check(f"zeta_R({2 * n})", zeta_int_leq_alpha(riemann.asym, b, 2 * n),
                ref, 1e-10)
    c.finish()


def test_criterion_2_riemann_continuation(riemann):
    c = Checker("2 riemann continuation")
    rep = classify_poles(riemann.asym)
    c.require("zeta_R(0) == -1/2 exactly", rep.zeta0 == -0.5)
    c.check("zeta_R'(0)", zeta_prime_zero(riemann.asym),
            -0.5 * math.log(2.0 * math.pi), 1e-13)
    for n in range(1, 10):
        ref = -bernoulli_number(n + 1) / (n + 1.0)
        got = zeta_int_leq_alpha(riemann.asym, None, -n)
        if ref == 0.0:
            c.require(f"zeta_R(-{n}) == 0", abs(got) <= 1e-12)
        else:
            c.check(f"zeta_R(-{n})", got, ref, 1e-12)
    c.finish()


def test_criterion_3_hurwitz(riemann):
    c = Checker("3 hurwitz shift")
    for a in (0.25, 0.5, 2.0, -2.5):
        om = omega_table(riemann.asym, 1.0, a - 1.0)
        bern = bernoulli_poly_row(a, 10)
        for j in range(2, 9):
            ref = complex(bern[j]) / (j * (j - 1.0))
            got = om.entry(j, 0)
            if abs(ref) < 1e-13:
                c.require(f"Omega[{j},0](a={a}) ~ 0", abs(got) <= 1e-12)
            else:
                c.check(f"Omega[{j},0](a={a})", got, ref, 1e-10)
        rep = shifted_values(riemann.asym, 1.0, a - 1.0,
                             ln_f_shifted=-ln_gamma_continued(a),
                             n_values=range(-9, 0))
        c.check(f"zeta_H(0,{a})", rep.report.zeta0, 0.5 - a, 1e-12)
        if a > 0:
            zp_ref = -0.5 * math.log(2 * math.pi) + cmath.log(gamma(a))
        else:
            zp_ref = complex(-0.5 * math.log(2 * math.pi)
                             + math.log(abs(gamma(a))),
                             -math.pi * math.floor(a))
        c.check(f"zeta_H'(0,{a})", rep.report.zeta_prime0, zp_ref, 1e-10)
        for n in range(1, 10):
            ref = -complex(bern[n + 1]) / (n + 1.0)
            got = rep.values[-n]
            if abs(ref) < 1e-13:
                c.require(f"zeta_H(-{n},{a}) ~ 0", abs(got) <= 1e-10)
            else:
                c.check(f"zeta_H(-{n},{a})", got, ref, 1e-10)
    c.finish()


def test_criterion_4_airy_exact_values(airy):
    c = Checker("4 airy exact values")
    g = math.gamma
    r = g(2.0 / 3.0) / g(1.0 / 3.0)
    closed = {
        1: -3 ** (1 / 3) * r,
        2: 3 ** (2 / 3) * r ** 2,
        3: 0.5 - 3.0 * r ** 3,
        4: 3 ** (4 / 3) * r ** 4 - 3 ** (-2 / 3) * r,
        5: -3 ** (5 / 3) * r ** 5 + 1.25 * 3 ** (-1 / 3) * r ** 2,
    }
    b = log_coeffs(airy.series)
    c.check("zeta_Ai(1)", zeta_int_leq_alpha(airy.asym, b, 1), closed[1], 1e-11)
    for n in range(2, 6):
        c.check(f"zeta_Ai({n})", zeta_int_leq_alpha(airy.asym, b, n), closed[n], 1e-11)
    # derivative-function zeros: coefficients (m+1) c_{m+1}
    cprime = airy.series.coeffs[1:] * np.arange(1, airy.series.order + 1)
    db = log_coeffs(PowerSeries(cprime))     # no table: the recursion -n b_n
    c.check("zeta_Ai'(2)", -2 * db[2], g(1.0 / 3.0) / (3 ** (1 / 3) * g(2.0 / 3.0)), 1e-11)
    c.check("zeta_Ai'(3)", -3 * db[3], 1.0, 1e-11)
    rep = classify_poles(airy.asym)
    c.check("zeta_Ai(0)", rep.zeta0, -0.25, 1e-14)
    c.check("zeta_Ai'(0)", zeta_prime_zero(airy.asym),
            math.log(3 ** (2 / 3) * g(2.0 / 3.0) / (2.0 * math.sqrt(math.pi))),
            1e-12)
    c.check("Res[3/2]", rep.pole_at(1.5).residue, 1.0 / math.pi, 1e-12)
    for n in (1, 2, 4, 5, 7, 8):
        c.require(f"zeta_Ai(-{n}) structural zero",
                  zeta_int_leq_alpha(airy.asym, None, -n) == 0.0)
    c.check("zeta_Ai(-3)", zeta_int_leq_alpha(airy.asym, None, -3),
            15.0 / 64.0, 1e-12)
    c.check("zeta_Ai(-6)", zeta_int_leq_alpha(airy.asym, None, -6),
            -6.0 * 565.0 / 2048.0, 1e-12)
    c.finish()


def test_criterion_5_parabolic_cylinder():
    c = Checker("5 parabolic cylinder")
    for a in (0.0, 1.0, 2.5):
        m = pcf_model(a)
        g = math.gamma
        r = g((2 * a + 3) / 4.0) / g((2 * a + 1) / 4.0)
        rep = classify_poles(m.asym)
        c.check(f"zeta_U(0) a={a}", rep.zeta0, -a - 0.5, 1e-12)
        b = log_coeffs(m.series)
        c.check(f"zeta_U(1) a={a}", zeta_int_leq_alpha(m.asym, b, 1),
                math.sqrt(2.0) * r, 1e-10)
        c.check(f"zeta_U(2) a={a}", zeta_int_leq_alpha(m.asym, b, 2),
                -a - 0.5 + 2.0 * r * r, 1e-10)
        closed = {
            3: 2 * math.sqrt(2) * r ** 3 - math.sqrt(2) * a * r,
            4: 4 * r ** 4 - (8 * a / 3.0) * r ** 2 + (4 * a * a - 1) / 12.0,
            5: (4 * math.sqrt(2) * r ** 5 - (10 * math.sqrt(2) * a / 3.0) * r ** 3
                + (math.sqrt(2) / 24.0) * (16 * a * a - 1) * r),
        }
        for n in (3, 4, 5):
            c.check(f"zeta_U({n}) a={a}", zeta_int_leq_alpha(m.asym, b, n),
                    closed[n], 1e-10)
        h_printed = {
            1: -(2 * a + 1) * (2 * a + 3) / 8.0,
            2: (2 + a) * (1 + 2 * a) * (3 + 2 * a) / 8.0,
            3: -(2 * a + 1) * (2 * a + 3) * (20 * a ** 2 + 88 * a + 99) / 96.0,
            4: (2 * a + 1) * (2 * a + 3)
               * (28 * a ** 3 + 200 * a ** 2 + 489 * a + 408) / 64.0,
            5: -(2 * a + 1) * (2 * a + 3)
               * (336 * a ** 4 + 3424 * a ** 3 + 13480 * a ** 2
                  + 24232 * a + 16713) / 320.0,
            6: (2 * a + 1) * (2 * a + 3)
               * (528 * a ** 5 + 7136 * a ** 4 + 39848 * a ** 3
                  + 114632 * a ** 2 + 169245 * a + 102096) / 192.0,
        }
        for k in (1, 2, 3):
            c.check(f"zeta_U(-{2 * k}) a={a}",
                    zeta_int_leq_alpha(m.asym, None, -2 * k),
                    -2.0 * k * h_printed[k], 1e-10)
        for k in range(1, 7):
            c.check(f"h_{k} a={a}", m.asym.entry(2 * k + 2, 0), h_printed[k], 1e-10)
    c.finish()


def test_criterion_6_confluent_hypergeometric():
    c = Checker("6 confluent hypergeometric")
    for (a, b) in ((0.5, 1.5), (1.2, 2.7)):
        m = chf_model(a, b)
        closed = {
            2: a * (a - b) / (b ** 2 * (b + 1)),
            3: a * (a - b) * (b - 2 * a) / (b ** 3 * (b + 1) * (b + 2)),
            4: (a * (a - b) * (a ** 2 * (5 * b + 6) - a * b * (5 * b + 6)
                               + b ** 2 * (b + 1))
                / (b ** 4 * (b + 1) ** 2 * (b + 2) * (b + 3))),
            5: (a * (a - b) * (b - 2 * a)
                * (a ** 2 * (7 * b + 12) - a * b * (7 * b + 12)
                   + b ** 2 * (b + 1))
                / (b ** 5 * (b + 1) ** 2 * (b + 2) * (b + 3) * (b + 4))),
        }
        logc = log_coeffs(m.series)
        for n in (2, 3, 4, 5):
            c.check(f"zeta_M({n}) ({a},{b})", zeta_int_leq_alpha(m.asym, logc, n),
                    closed[n], 1e-10)
        rep = classify_poles(m.asym)
        c.check(f"zeta_M(0) ({a},{b})", rep.zeta0, a - b, 1e-12)
        c.check(f"zeta_M(1) ({a},{b})", zeta_int_leq_alpha(m.asym, logc, 1),
                1.0 - a / b, 1e-12)
        f_printed = {
            1: (a - 1) * (a - b),
            2: -0.5 * (a - 1) * (a - b) * (2 * a - b - 2),
            3: (a - 1) * (a - b) * (5 * a ** 2 - a * (5 * b + 11)
                                    + b * (b + 6) + 6) / 3.0,
            4: -(a - 1) * (a - b) * (14 * a ** 3 - a ** 2 * (21 * b + 50)
                                     + a * (9 * b ** 2 + 53 * b + 60)
                                     - b * (b ** 2 + 12 * b + 34) - 24) / 4.0,
        }
        for j in (1, 2, 3, 4):
            got = zeta_int_leq_alpha(m.asym, None, -j)
            ref = -j * f_printed[j]
            if abs(ref) < 1e-13:
                c.require(f"zeta_M(-{j}) ({a},{b}) ~ 0", abs(got) <= 1e-10)
            else:
                c.check(f"zeta_M(-{j}) ({a},{b})", got, ref, 1e-10)
    c.finish()


def test_criterion_7_representation_agreement(riemann, airy):
    c = Checker("7 representation agreement")
    t0 = time.monotonic()
    for model in (riemann, airy):
        for s in (2.0, 3.0, 4.0):
            a = zeta_series(model.zeros, s, 4000)
            bb = contour_zeta(model, s)
            cc = continued_zeta(model, s)
            c.require(f"{model.name} s={s} series~contour", abs(a - bb) < 1e-6)
            c.require(f"{model.name} s={s} series~continued", abs(a - cc) < 1e-6)
            c.require(f"{model.name} s={s} contour~continued", abs(bb - cc) < 1e-6)
    v = continued_zeta(airy, -0.5)
    c.require("zeta_Ai(-1/2) near -0.1393", abs(v - (-0.1393)) < 1e-3)
    elapsed = time.monotonic() - t0
    c.require(f"runtime {elapsed:.1f}s <= 60s", elapsed <= 60.0)
    c.finish()


def test_criterion_8_aaa_pipeline(airy):
    c = Checker("8 aaa pipeline")
    t0 = time.monotonic()
    zq = airy_zeros(10 ** 3)
    pts = np.linspace(2.0, 8.0, 100)
    samples = np.array([zeta_series(zq, s, 10 ** 4) for s in pts])
    model = aaa_fit(pts, samples, rel_tol=1e-13)
    c.require(f"fit residual {model.max_residual:.2e} <= 1e-12",
              model.max_residual <= 1e-12)
    g = math.gamma
    c.check("zeta_Ai(1) to 6 digits", bary_eval(model, 1.0),
            -3 ** (1 / 3) * g(2 / 3) / g(1 / 3), 5e-7, rel=False)
    c.check("zeta_Ai(0) to 5 digits", bary_eval(model, 0.0), -0.25,
            5e-6, rel=False)
    c.check("zeta_Ai'(0) to 4 digits", derivative_at(model, 0.0),
            math.log(3 ** (2 / 3) * g(2 / 3) / (2 * math.sqrt(math.pi))),
            5e-5, rel=False)
    zeros, poles = find_real_features(model, (-3.0, 0.0))
    c.require("one zero in [-1.05, -0.95]",
              sum(1 for z in zeros if -1.05 <= z <= -0.95) == 1)
    c.require("one pole in [-1.45, -1.39]",
              sum(1 for p in poles if -1.45 <= p <= -1.39) == 1)
    vm = bary_eval(model, -0.5).real
    c.require(f"zeta(-1/2) = {vm:.5f} in [-0.141, -0.138]",
              -0.141 <= vm <= -0.138)
    elapsed = time.monotonic() - t0
    c.require(f"runtime {elapsed:.1f}s <= 120s", elapsed <= 120.0)
    c.finish()


def test_criterion_9_cross_method_invariants(riemann, airy, pcf_one, chf_half):
    c = Checker("9 cross-method invariants")

    def recursion(series, n):       # -n b_n, at pole rows such as riemann n = 1 too
        return -n * log_coeffs(series)[n]

    for model in (riemann, airy, pcf_one, chf_half):
        for n in range(1, 13):
            bell = zeta_via_bell(model.series, n)
            rec = recursion(model.series, n)
            c.require(f"{model.name} bell == recursion n={n}",
                      abs(bell - rec) <= 1e-9 * max(1.0, abs(rec)))
    zv = {1: zeta_int_leq_alpha(airy.asym, log_coeffs(airy.series), 1)}
    for n in range(2, 7):
        direct = recursion(airy.series, n)
        rule = exact_sum_rule(airy.series, n, zv)
        c.check(f"sum rule zeta_Ai({n})", rule, direct, 1e-9)
        zv[n] = direct
    for model in (riemann, airy, pcf_one, chf_half):
        h = hadamardize(model.series, model.alpha)
        lo = int(math.floor(model.alpha)) + 1
        for n in range(lo, 13):
            before, after = recursion(model.series, n), recursion(h, n)
            c.require(f"{model.name} hadamardize keeps zeta({n})",
                      abs(before - after) <= 1e-10 * max(1.0, abs(before)))
        ident = omega_table(model.asym, 1.0, 0.0)
        worst = max((abs(ident.entry(j, k) - v) for (j, k), v in model.asym.d.items()),
                    default=0.0)
        c.require(f"{model.name} omega identity exact", worst <= 1e-14)
    for model in (riemann, airy):
        for A in (2.0, 1j):
            p0 = classify_poles(model.asym).pole_at(model.alpha)
            p1 = shifted_values(model.asym, A, 0.1).report.pole_at(model.alpha)
            c.require(f"{model.name} cor4.7 order A={A}", p1.order == p0.order)
            ref = complex(A) ** complex(-model.alpha)
            c.check(f"{model.name} cor4.7 ratio A={A}", p1.residue / p0.residue, ref, 1e-10)
    c.finish()
