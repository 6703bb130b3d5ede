import heapq
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from zetakit import (AccuracyError, DivergenceError, DomainError, ZeroSequence, airy_zeros,
                     continued_zeta, euler_maclaurin_tail, hurwitz_model, quad_adaptive,
                     riemann_model, zeta_series)
from zetakit import evaluate
from zetakit.quadrature import (_WG, _WK, _XK, _end_derivatives, _legendre_rule,
                                _tail_integral, gauss_jacobi)


def _power_tail(s):
    return lambda t: np.asarray(t, dtype=float) ** -s


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


def _greedy_quad(f, a, b, abs_tol, max_segments=4096, initial_points=None):
    """Reference: one GK15 panel per call of f, always splitting the panel
    with the largest error estimate, until the total is within abs_tol, the
    cap is reached or that panel is at roundoff resolution."""
    def gk15(lo, hi):
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        y = np.asarray(f(mid + half * _XK), dtype=complex)
        k = half * np.sum(_WK * y)
        return complex(k), abs(k - half * np.sum(_WG * y[1::2]))

    pts = [a, b] if initial_points is None else sorted(
        {a, b, *(p for p in initial_points if a < p < b)})
    segments, heap = {}, []
    for i, (lo, hi) in enumerate(zip(pts[:-1], pts[1:])):
        segments[i] = (lo, hi, *gk15(lo, hi))
        heapq.heappush(heap, (-segments[i][3], i))
    counter = len(segments)
    while sum(s[3] for s in segments.values()) > abs_tol and len(segments) < max_segments:
        idx = heapq.heappop(heap)[1]
        lo, hi = segments[idx][:2]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        del segments[idx]
        for l2, h2 in ((lo, mid), (mid, hi)):
            segments[counter] = (l2, h2, *gk15(l2, h2))
            heapq.heappush(heap, (-segments[counter][3], counter))
            counter += 1
    vals = [s[2] for s in sorted(segments.values())]
    return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))


class _Recorder:
    """Wraps an integrand; records the length of each node array it gets."""

    def __init__(self, f):
        self.f, self.sizes = f, []

    def __call__(self, x):
        assert isinstance(x, np.ndarray) and x.ndim == 1
        self.sizes.append(len(x))
        return self.f(x)

    def final_panels(self, initial):
        # every split replaces one panel by two, and both are evaluated
        return (sum(self.sizes) // 15 + initial) // 2


def _airy_ray_call(airy, monkeypatch):
    """(integrand, a, b, keywords) of the ray integral in continued_zeta(airy, -0.5)."""
    calls = []

    def spy(f, a, b, **kw):
        calls.append((f, a, b, kw))
        return quad_adaptive(f, a, b, **kw)

    monkeypatch.setattr(evaluate, "quad_adaptive", spy)
    continued_zeta(airy, -0.5)
    return calls[-1]


class TestBatchedRounds:
    CASES = {
        "oscillatory": (lambda x: np.exp(1j * x ** 2), 0.0, 12.0,
                        {"abs_tol": 1e-12}),
        "kink": (np.abs, -1.0, 1.0, {"abs_tol": 1e-13}),
        "kink_presplit": (np.abs, -1.0, 1.0, {"abs_tol": 1e-13, "initial_points": [0.0]}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_agrees_with_greedy_reference(self, case):
        f, a, b, kw = self.CASES[case]
        rec = _Recorder(f)
        got = quad_adaptive(rec, a, b, **kw)
        assert abs(got - _greedy_quad(f, a, b, **kw)) <= kw["abs_tol"]
        assert rec.sizes and all(n % 15 == 0 for n in rec.sizes)
        assert got == quad_adaptive(f, a, b, **kw)      # bit-identical on a second call

    def test_airy_ray_integrand(self, airy, monkeypatch):
        f, a, b, kw = _airy_ray_call(airy, monkeypatch)
        rec, ref_rec = _Recorder(f), _Recorder(f)
        got = quad_adaptive(rec, a, b, **kw)
        assert abs(got - _greedy_quad(ref_rec, a, b, **kw)) <= kw["abs_tol"]
        assert all(n % 15 == 0 for n in rec.sizes)
        # one call per round, against one per panel in the reference
        assert 2 * len(rec.sizes) <= len(ref_rec.sizes)
        assert got == quad_adaptive(f, a, b, **kw)

    @pytest.mark.parametrize("max_segments", [1, 2, 7, 40])
    def test_segment_cap_never_exceeded(self, max_segments):
        rec = _Recorder(lambda x: np.exp(1j * x ** 2))
        with pytest.raises(AccuracyError):
            quad_adaptive(rec, 0.0, 40.0, abs_tol=1e-14, max_segments=max_segments)
        assert rec.final_panels(1) == max_segments

    def test_cap_reached_by_presplit_interval(self):
        rec = _Recorder(lambda x: np.exp(1j * x ** 2))
        with pytest.raises(AccuracyError):
            quad_adaptive(rec, 0.0, 40.0, abs_tol=1e-14, max_segments=5,
                          initial_points=[10.0, 20.0, 30.0])
        assert rec.final_panels(4) == 5

    def test_nan_names_its_panel(self):
        def f(x):
            return np.where(x > 0.8, np.nan, 1.0)

        with pytest.raises(DivergenceError, match=r"\[0\.75, 1\.0\]"):
            quad_adaptive(f, 0.0, 1.0, initial_points=[0.25, 0.5, 0.75])

    def test_nan_in_a_later_round(self):
        # finite on [0, 1]; the nan node belongs to the child [0.5, 1]
        def f(x):
            return np.where(x == 0.75 + 0.25 * _XK[3], np.nan, np.exp(30j * x * x))

        with pytest.raises(DivergenceError, match=r"\[0\.5, 1\.0\]"):
            quad_adaptive(f, 0.0, 1.0, abs_tol=1e-14)

    def test_roundoff_resolution_stop(self):
        # a jump in the middle of a one-ulp panel: its midpoint rounds onto an
        # end, so the panel cannot be split and the refinement stops at once
        rec = _Recorder(lambda x: np.where(np.arange(x.size) % 15 < 7, 0.0, 1.0) + 0j)
        with pytest.raises(AccuracyError):
            quad_adaptive(rec, 1.0, math.nextafter(1.0, 2.0), abs_tol=1e-300)
        assert rec.sizes == [15]

    def test_unsplittable_panel_below_the_top(self):
        # [1, 1 + ulp] cannot be split; a spike at x = 1 gives it an estimate
        # of 1e-13, ten times abs_tol but far below that of the oscillatory
        # panels beside it, which must go on being refined around it
        f = lambda x: np.exp(30j * x * x) + 1e4 * (x == 1.0)
        kw = {"abs_tol": 1e-14, "initial_points": [1.0, math.nextafter(1.0, 2.0)]}
        got = quad_adaptive(f, 0.0, 2.0, **kw)
        assert abs(got - _greedy_quad(f, 0.0, 2.0, **kw)) <= kw["abs_tol"]

    def test_cap_spread_over_more_panels_than_greedy(self):
        # rounds split panels that the greedy loop leaves for later, so when
        # the cap binds they can end further from abs_tol: here the greedy
        # loop ends within 100 abs_tol and the rounds do not
        c, d = 1.0 / 3.0, 0.3 * math.ulp(1.0 / 3.0)
        f = lambda x: np.abs((x - c) - d) ** -0.5 + 0j
        kw = {"abs_tol": 1e-13, "max_segments": 500}
        assert _greedy_quad(f, 0.0, 1.0, **kw) == pytest.approx(2.7876936886619945, abs=1e-13)
        rec = _Recorder(f)
        with pytest.raises(AccuracyError):
            quad_adaptive(rec, 0.0, 1.0, **kw)
        assert rec.final_panels(1) == kw["max_segments"]
        # once the cap leaves less room than a round wants, each call
        # evaluates the two halves of the panel with the largest estimate
        assert rec.sizes[-2:] == [30, 30]


class TestEulerMaclaurinTail:
    def test_inverse_square_oracle(self):
        # tail from 101: zeta(2) - H_100, direct-summation oracle
        h100 = math.fsum(1.0 / k ** 2 for k in range(1, 101))
        ref = math.pi ** 2 / 6.0 - h100
        assert abs(euler_maclaurin_tail(_power_tail(2.0), 101, 2.0) - ref) <= 1e-12

    def test_inverse_square_inclusive_convention(self):
        # the estimate sums n >= N: tail(100) - tail(101) = f(100)
        t100 = euler_maclaurin_tail(_power_tail(2.0), 100, 2.0)
        t101 = euler_maclaurin_tail(_power_tail(2.0), 101, 2.0)
        assert abs((t100 - t101) - 100.0 ** -2) < 1e-14

    def test_zero_function(self):
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        assert euler_maclaurin_tail(zero, 10, 2.0) == 0.0

    def test_inverse_fourth_oracle(self):
        h49 = math.fsum(1.0 / k ** 4 for k in range(1, 50))
        ref = math.pi ** 4 / 90.0 - h49
        assert abs(euler_maclaurin_tail(_power_tail(4.0), 50, 4.0) - ref) <= 1e-13

    def test_divergent_tail_detected(self):
        f = lambda t: 1.0 / np.asarray(t, dtype=float)
        with pytest.raises(DivergenceError):
            euler_maclaurin_tail(f, 5, 1.0)


N_STARTS = (2, 5, 11, 101, 2001, 10001)


def _integral(f, n, p):
    return _tail_integral(f, n, p)[0]


def _power(g, s):
    return lambda x: np.asarray(g(np.asarray(x, dtype=float)), dtype=complex) ** -s


class TestPowerTailRule:
    @pytest.mark.parametrize("a", [1.0, 0.6, 2.0, 0.3 + 0.4j])
    @pytest.mark.parametrize("s", [1.3, 2.0, 3.7, 8.0, 2.5 + 3.0j, 1.6 - 0.7j])
    def test_hurwitz_exact_integral(self, a, s):
        # int_N^inf (x - 1 + a)^-s dx = (N - 1 + a)^(1-s) / (s - 1); a = 1 is Riemann
        f = _power(lambda x: x - 1.0 + a, s)
        for n in N_STARTS:
            ref = (n - 1.0 + a) ** (1.0 - s) / (s - 1.0)
            assert abs(_integral(f, n, s) - ref) <= 1e-14 * abs(ref), n

    @pytest.mark.parametrize("s", [2.0, 2.3, 3.7, 8.0])
    def test_airy_against_adaptive(self, s):
        # t = N/u maps the tail onto (0, 1]; adaptive GK15 there at 1e-16 |I|.
        # Complex s is left to the exact Hurwitz oracle: u^(i Im p) oscillates
        # without end toward u = 0 and the adaptive reference takes minutes.
        f = _power(airy_zeros(60).g, s)
        for n in N_STARTS:
            got = _integral(f, n, s / 1.5)
            ref = quad_adaptive(lambda u: n * f(n / u) / (u * u), 1e-300, 1.0,
                                abs_tol=1e-16 * abs(got), max_segments=20000)
            assert abs(got - ref) <= 1e-14 * abs(ref), n

    @pytest.mark.parametrize("p", [1.0, 0.5, 1.0 + 2.0j, -3.0])
    def test_non_integrable_decay_rejected(self, p):
        with pytest.raises(DivergenceError):
            euler_maclaurin_tail(_power_tail(2.0), 10, p)

    @pytest.mark.parametrize("p", [1.5, 2.5, 2.001, 2.0 + 0.5j])
    def test_wrong_exponent_trips_the_check(self, p):
        # f decays like x^-2: any p but 2 + (integer >= 0) leaves
        # h(u) = N f(N/u) u^-p non-smooth at u = 0, and the rules disagree
        for n in N_STARTS:
            rec = _Recorder(_power_tail(2.0))
            with pytest.raises(DivergenceError):
                euler_maclaurin_tail(rec, n, p)
            # one array for the 6- and 12-node rules and N, then one per rule
            assert rec.sizes == [19, 24, 48, 96], n


def _per_level_tail(f, n_start, p):
    """Reference: the tail rule with each Legendre rule evaluated on its own,
    f called per rule and at N, every moment built up front, and the end
    corrections from the same rows and helper as the tail's.  Returns the
    estimate and the node count it stopped at."""
    p = complex(p)
    n = float(n_start)
    j = np.arange(1.0, 96.0)
    moments = np.cumprod(np.concatenate(([1.0 / (p - 1.0)], (p - 1.0 - j) / (p - 1.0 + j))))
    prev = None
    for k in (6, 12, 24, 48, 96):
        u, w = gauss_jacobi(k, 0.0)
        legendre = [np.ones(k), 2.0 * u - 1.0]
        for i in range(1, k - 1):
            legendre.append(((2 * i + 1) * legendre[1] * legendre[i]
                             - i * legendre[i - 1]) / (i + 1))
        coef = (2.0 * np.arange(k) + 1.0)[:, None] * np.array(legendre) * w
        with np.errstate(over="ignore", invalid="ignore"):
            h = n * np.asarray(f(n / u), dtype=complex) * u ** -p
        integral = complex((moments[:k] * (coef * h).sum(1)).sum())
        assert np.isfinite(integral)
        if prev is not None and abs(integral - prev) <= 1e-14 * max(1.0, abs(integral)):
            f_n = complex(f(np.array([n]))[0])
            slopes = (_legendre_rule(k)[2][k:] * h).sum(1)
            f1, f3 = _end_derivatives(slopes, f_n, n_start, p)
            return integral + f_n / 2.0 - f1 / 12.0 + f3 / 720.0, k
        prev = integral
    raise AssertionError("no two rules agree")


def _sequence_tail(zeros, s):
    """f = g^-s, nothing memoized."""
    return lambda x: np.asarray(zeros.g(x), dtype=complex) ** -s


TAIL_SEQUENCES = {
    "riemann": lambda: riemann_model().zeros,
    "hurwitz(0.3)": lambda: hurwitz_model(0.3).zeros,
    "hurwitz(0.4+0.7j)": lambda: hurwitz_model(0.4 + 0.7j).zeros,
    "airy": lambda: airy_zeros(60),
}


class TestSameBitsAsPerLevel:
    """The tail evaluates f once for its first two rules and N together; every
    value keeps the bits of the rule-by-rule evaluation."""

    @pytest.mark.parametrize("name", sorted(TAIL_SEQUENCES))
    @pytest.mark.parametrize("n", [2, 2001, 6001, 10001])   # from 2, most need 24 or 48 nodes
    def test_sequence_tails(self, name, n):
        zeros = TAIL_SEQUENCES[name]()
        for s in (2.0 + 0j, 3.7 + 0j, 8.0 + 0j, 3.0 + 1.5j):
            p = s / zeros.alpha
            want, _ = _per_level_tail(_sequence_tail(zeros, s), n, p)
            assert euler_maclaurin_tail(_sequence_tail(zeros, s), n, p) == want, s
            # the memoized integrand of zeta_series, and the sample it ends in
            head = complex(np.sum(np.exp(-s * zeros.log_table(n - 1))))
            assert zeta_series(zeros, s, n - 1) == head + want, s

    def test_one_call_of_f_when_twelve_nodes_agree(self):
        f = _sequence_tail(TAIL_SEQUENCES["airy"](), 3.0 + 0j)
        assert _per_level_tail(f, 6001, 2.0)[1] == 12
        rec = _Recorder(f)
        euler_maclaurin_tail(rec, 6001, 2.0)
        assert rec.sizes == [19]


def _squares(a):
    """a_n = (n - 1 + a)^2, given by g alone: zeta(s) is zeta_H(2s, a)."""
    return ZeroSequence(alpha=0.5, g=lambda x: (np.asarray(x) - 1.0 + a) ** 2)


class TestEndCorrections:
    """f'(N) and f'''(N) come from the tail's own Legendre expansion of f."""

    @pytest.mark.parametrize("a", [0.3, 1.0, 0.5 + 0.5j])
    @pytest.mark.parametrize("s", [1.2, 2.0, 1.5 + 1j])
    def test_sequence_given_by_g_alone(self, a, s):
        zeros = _squares(a)
        ref = complex(mp.zeta(2 * mp.mpmathify(s), mp.mpmathify(a)))
        for n_terms in (100, 101, 1000, 4000):
            assert abs(zeta_series(zeros, s, n_terms) - ref) <= 1e-14 * abs(ref), n_terms

    @pytest.mark.parametrize("a", [1.0, 0.3, -1.3])
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.7, 8.0, 3.0 + 1.5j, 1.3 - 0.7j])
    def test_small_starts_close_to_exact_derivatives(self, a, s):
        # riemann, hurwitz(0.3) and hurwitz(-1.3) from every start the guard
        # accepts: the change from exact f', f''' is far inside the truncation error
        zeros = hurwitz_model(a).zeros
        s = complex(s)
        checked = 0
        for n_terms in range(6):
            try:
                got = zeta_series(zeros, s, n_terms)
            except DomainError:
                continue
            n = n_terms + 1
            g_n = n - 1.0 + a
            f = lambda x: (np.asarray(x) - 1.0 + a + 0j) ** -s
            exact = (got - euler_maclaurin_tail(f, n, s) + _tail_integral(f, n, s)[0]
                     + g_n ** -s / 2.0 + s * g_n ** (-s - 1.0) / 12.0
                     - s * (s + 1.0) * (s + 2.0) * g_n ** (-s - 3.0) / 720.0)
            with mp.workdps(30):
                ref = complex(mp.fsum(mp.power(a + k, -s) for k in range(n_terms))
                              + mp.zeta(s, g_n))
            assert abs(got - exact) <= 1e-3 * abs(exact - ref), n_terms
            checked += 1
        assert checked >= 3
