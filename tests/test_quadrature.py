import dataclasses
import heapq
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from zetakit import (AccuracyError, DivergenceError, ZeroSequence, airy_zeros,
                     continued_zeta, euler_maclaurin_tail, hurwitz_model, quad_adaptive,
                     riemann_model, zeta_series)
from zetakit import evaluate
from zetakit.catalog import _airy_head, airy_zero_q
from zetakit.quadrature import _WG, _WK, _XK, TAIL_CIRCLE, TAIL_K


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


def _tail(h, n, p, m=1, real=False):
    """euler_maclaurin_tail of the function h of v, sampled on its circle."""
    return euler_maclaurin_tail(h(n ** (-1.0 / m) * TAIL_CIRCLE), n, p, m, real)


def _one(v):
    return np.ones_like(v)


# from N = 10 the Euler-Maclaurin terms reach roundoff for Re p <= 4;
# at p = 8 ten terms leave 1e-13 there, so those cases start at 101
def _starts(p):
    return (10, 11, 101, 2001, 10001) if complex(p).real <= 4.0 else (101, 2001, 10001)


class TestEulerMaclaurinTail:
    """The tail of n^-p h(n^(-1/m)) from N, against direct sums and mpmath."""

    def test_inverse_square_oracle(self):
        # tail from 101: zeta(2) - H_100, direct-summation oracle, to the
        # oracle's own roundoff
        h100 = math.fsum(1.0 / k ** 2 for k in range(1, 101))
        assert abs(_tail(_one, 101, 2.0, real=True) - (math.pi ** 2 / 6.0 - h100)) <= 3e-16

    def test_inverse_square_inclusive_convention(self):
        # the estimate sums n >= N: tail(100) - tail(101) = f(100)
        for p in (2.0, 3.0 + 1.5j):
            diff = _tail(_one, 100, p) - _tail(_one, 101, p)
            assert abs(diff - 100.0 ** -p) < 1e-17

    def test_zero_function(self):
        assert euler_maclaurin_tail(np.zeros(TAIL_K), 10, 2.0) == 0.0

    def test_inverse_fourth_oracle(self):
        h49 = math.fsum(1.0 / k ** 4 for k in range(1, 50))
        assert abs(_tail(_one, 50, 4.0, real=True) - (math.pi ** 4 / 90.0 - h49)) <= 3e-16

    def test_divergent_tail_detected(self):
        with pytest.raises(DivergenceError):
            _tail(_one, 5, 1.0)

    @pytest.mark.parametrize("p", [1.3, 2.0, 3.7, 8.0, 2.5 + 3.0j, 1.6 - 0.7j])
    def test_powers_are_hurwitz_zeta(self, p):
        # h = 1: the tail is zeta(p, N); two Euler-Maclaurin terms left 2e-9 at N = 10
        for n in _starts(p):
            ref = complex(mp.zeta(p, n))
            got = _tail(_one, n, p, real=isinstance(p, float))
            assert abs(got - ref) <= 5e-15 * abs(ref), n

    @pytest.mark.parametrize("p", [1.4, 2.3, 3.0 + 1.0j])
    def test_series_in_n_to_the_minus_one_half(self, p):
        # h = e^v, m = 2: sum_i zeta(p + i/2, N) / i!
        for n in (10, 100, 5000):
            with mp.workdps(30):
                ref = complex(mp.fsum(mp.zeta(mp.mpmathify(p) + mp.mpf(i) / 2, n) / mp.factorial(i)
                                      for i in range(60)))
            got = _tail(np.exp, n, p, m=2, real=isinstance(p, float))
            assert abs(got - ref) <= 5e-15 * abs(ref), n

    def test_truncation_estimate(self):
        # h = 1, p = 8: ten Euler-Maclaurin terms leave 2.9e-7 of zeta(8, N) from
        # N = 5, 1.4e-13 from 10 and 1.6e-14 from 11, all refused; from 20, 8e-16
        for n in (5, 10, 11):
            with pytest.raises(AccuracyError, match=f"N = {n} is not resolved"):
                _tail(_one, n, 8.0, real=True)
        assert abs(_tail(_one, 20, 8.0, real=True) / complex(mp.zeta(8, 20)) - 1.0) <= 5e-15

    @pytest.mark.parametrize("s", [2.0, 3.7, 2.5 + 3.0j])
    def test_unresolved_circle_refused(self, s):
        # h = (1 + (a - 1) v)^-s, a = 0.5 + 5i, has its singularity at |v| = 0.199:
        # the circle |v| = 1/6 from N = 6 misses it, and 32 points alias to 11 %
        # of the tail at s = 2 (9e-9 from N = 10); from N = 40 the tail is
        # zeta(s, N - 1 + a)
        a = 0.5 + 5.0j
        h = lambda v: (1.0 + (a - 1.0) * v) ** -s
        for n in (6, 10):
            with pytest.raises(AccuracyError, match="not resolved"):
                _tail(h, n, s)
        for n in (40, 101, 2001):
            ref = complex(mp.zeta(s, n - 1 + mp.mpmathify(a)))
            assert abs(_tail(h, n, s) - ref) <= 5e-15 * abs(ref), n

    def test_real_tail_has_no_imaginary_roundoff(self):
        h = lambda v: (1.0 - 0.7 * v) ** -2.5
        for n in (10, 101, 2001):
            real, cplx = _tail(h, n, 2.5, real=True), _tail(h, n, 2.5)
            assert real.imag == 0.0
            assert abs(real - cplx) <= 1e-15 * abs(real)


def _airy_f(s):
    """x -> (x^(2/3) q(1/x))^-s, the Airy formula's terms, in binary64."""
    return lambda x: (x ** (2.0 / 3.0) * airy_zero_q(1.0 / x) + 0j) ** -s


def _mp_airy_f(s):
    """The same terms at the working precision of mpmath."""
    t = mp.mpf(1.5) * mp.pi
    return lambda x: ((t * (x - mp.mpf(1) / 4)) ** (mp.mpf(2) / 3)
                      * (1 + 5 / (48 * (t * (x - mp.mpf(1) / 4)) ** 2))) ** -mp.mpf(s)


def _sequence_tail(zeros, s, n):
    """The tail zeta_series adds to its head when the head ends at n - 1,
    from ln q on the circle built here, not read from the sequence's memo."""
    s = complex(s)
    q = np.asarray(zeros.q(n ** (-1.0 / zeros.m) * TAIL_CIRCLE), dtype=complex)
    log_q = np.log(np.abs(q)) + 1j * np.unwrap(np.angle(q))
    real = np.isrealobj(zeros.q(np.array([n ** (-1.0 / zeros.m)])))
    return euler_maclaurin_tail(np.exp(-s * log_q), n, s / zeros.alpha, zeros.m,
                                real=real and s.imag == 0.0)


class TestPowerTailRule:
    @pytest.mark.parametrize("a", [1.0, 0.6, 2.0, 0.3 + 0.4j])
    @pytest.mark.parametrize("s", [1.3, 2.0, 3.7, 8.0, 2.5 + 3.0j, 1.6 - 0.7j])
    def test_hurwitz_exact_integral(self, a, s):
        # h = (1 + (a - 1) v)^-s: the tail of (n - 1 + a)^-s is exactly
        # zeta(s, N - 1 + a); a = 1 is Riemann.  The estimate refuses N = 2 and 5
        # (ten terms leave 2e-5 and 2e-12 of zeta(2, N) there); every start it
        # accepts is within 5e-15, and it accepts every start from N = 10 for
        # Re p <= 4, from N = 101 for all
        real = isinstance(a, float) and isinstance(s, float)
        for n in (2, 5, 10, 11, 101, 2001, 10001):
            ref = complex(mp.zeta(s, n - 1 + mp.mpmathify(a)))
            try:
                got = _tail(lambda v: (1.0 + (a - 1.0) * v) ** -s, n, s, real=real)
            except AccuracyError:
                assert n < (10 if complex(s).real <= 4.0 else 101), n
                continue
            assert abs(got - ref) <= 5e-15 * abs(ref), n

    @pytest.mark.parametrize("s", [2.0, 2.3, 3.7, 8.0])
    def test_airy_against_adaptive(self, s):
        # the Euler-Maclaurin sum with an independent integral, adaptive GK15 of
        # the tail mapped onto (0, 1] by t = N/u at 1e-16 |I|, and the first and
        # third derivatives at N by mpmath; from N = 2001 the next correction
        # is below 1e-19 of the tail
        zeros, f, f_mp = airy_zeros(60), _airy_f(s), _mp_airy_f(s)
        for n in (2001, 6001, 10001):
            got = _sequence_tail(zeros, s, n)
            integral = quad_adaptive(lambda u: n * f(n / u) / (u * u), 1e-300, 1.0,
                                     abs_tol=1e-16 * abs(got), max_segments=20000)
            with mp.workdps(30):
                d1, d3 = (complex(mp.diff(f_mp, n, k)) for k in (1, 3))
            ref = integral + complex(f(np.array([float(n)]))[0]) / 2.0 - d1 / 12.0 + d3 / 720.0
            assert abs(got - ref) <= 1e-14 * abs(ref), n

    @pytest.mark.parametrize("s", [2.0, 2.3, 3.7, 8.0])
    def test_airy_small_starts(self, s):
        # the Airy formula's tail from N = 2, 5, 11 and 101 against its
        # Taylor-Hurwitz sum at 30 digits: refused from N = 2 and 5, where ten
        # Euler-Maclaurin terms do not reach 1e-14, and within 5e-15 from 11
        zeros = airy_zeros(0)
        for n in (2, 5, 11, 101):
            try:
                got = _sequence_tail(zeros, s, n)
            except AccuracyError:
                assert n < 11, n
                continue
            ref = _mp_airy_tail(n, s)
            assert abs(got - ref) <= 5e-15 * abs(ref), n

    @pytest.mark.parametrize("p", [1.0, 0.5, 1.0 + 2.0j, -3.0])
    def test_non_integrable_decay_rejected(self, p):
        with pytest.raises(DivergenceError):
            euler_maclaurin_tail(np.ones(TAIL_K), 10, p)


def _mp_airy_tail(n, s):
    """sum_i phi_i zeta(2s/3 + i, N), phi_i the Taylor coefficients of q^-s for
    the Airy formula's q, at 30 digits."""
    with mp.workdps(30):
        t = mp.mpf(1.5) * mp.pi
        q = lambda v: (t * (1 - v / 4)) ** (mp.mpf(2) / 3) * (1 + 5 * v * v / (48 * (t * (1 - v / 4)) ** 2))
        sm = mp.mpmathify(s)
        phi = mp.taylor(lambda v: q(v) ** -sm, 0, 24)
        return complex(mp.fsum(c * mp.zeta(sm * 2 / 3 + i, n) for i, c in enumerate(phi)))


TAIL_S = (2.0, 3.7, 8.0, 3.0 + 1.5j)
SHIFTS = {"riemann": 1.0, "hurwitz(0.3)": 0.3, "hurwitz(0.4+0.7j)": 0.4 + 0.7j}
TAIL_SEQUENCES = {
    "riemann": lambda: riemann_model().zeros,
    "hurwitz(0.3)": lambda: hurwitz_model(0.3).zeros,
    "hurwitz(0.4+0.7j)": lambda: hurwitz_model(0.4 + 0.7j).zeros,
    "airy": lambda: airy_zeros(60),
}


class TestSameBitsAsPerLevel:
    """zeta_series is its head plus the tail from ln q built afresh, to the
    bit, and that tail is the sequence's exact tail to 5e-15."""

    @pytest.mark.parametrize("name", sorted(TAIL_SEQUENCES))
    @pytest.mark.parametrize("n", [2, 2001, 6001, 10001])
    def test_sequence_tails(self, name, n):
        # from N = 2 (3 past the Hurwitz heads) the tail is refused at every s,
        # and zeta_series, which then starts it later, is within 1e-14 of mpmath
        zeros = TAIL_SEQUENCES[name]()
        n = max(n, zeros.n_exact + 1)        # the refined head is always summed
        for s in TAIL_S:
            if name == "airy":
                ref = _mp_airy_tail(n, s)
            elif n < 10:
                with pytest.raises(AccuracyError, match="not resolved"):
                    _sequence_tail(zeros, s, n)
                want = complex(mp.zeta(s, mp.mpmathify(SHIFTS[name])))
                assert abs(zeta_series(zeros, s, n - 1) - want) <= 1e-14 * abs(want), s
                continue
            else:
                ref = complex(mp.zeta(s, n - 1 + mp.mpmathify(SHIFTS[name])))
            tail = _sequence_tail(zeros, s, n)
            head = complex(np.sum(np.exp(-complex(s) * zeros.log_table(n - 1))))
            assert zeta_series(zeros, s, n - 1) == head + tail, s
            assert abs(tail - ref) <= 5e-15 * abs(ref), s


# the Legendre product-integration tail that preceded this one, at starts where
# its rules agreed to 1e-14 (from N = 61 they left 5e-14 to 5e-11 on these)
RECORDED_TAILS = {
    ("airy", 2001): [0.03013734459113857, 2.1449482900605523e-07, 2.9367020276085263e-19,
                     -1.3878961609358244e-05 + 7.7969291248287e-06j],
    ("airy", 10001): [0.017625013564005906, 2.024531454408266e-08, 2.749021569719795e-22,
                      1.6653511914122307e-06 + 2.7139160248435687e-06j],
    ("hurwitz(0.3)", 2001): [0.0005000499945807087, 4.528688691814249e-10,
                             1.1168523395377323e-24,
                             8.671636903713135e-08 + 4.9842467429865367e-08j],
    ("hurwitz(0.3)", 10001): [0.00010000199995666248, 5.870291752824003e-12,
                              1.4287714112330573e-29,
                              -1.2652051905163775e-09 - 3.794803794649595e-09j],
}


class TestSequenceTails:
    @pytest.mark.parametrize("key", sorted(RECORDED_TAILS))
    def test_against_the_recorded_legendre_tail(self, key):
        zeros = TAIL_SEQUENCES[key[0]]()
        for s, want in zip(TAIL_S, RECORDED_TAILS[key]):
            assert abs(_sequence_tail(zeros, s, key[1]) - want) <= 5e-15 * abs(want), s

    @pytest.mark.parametrize("name", sorted(SHIFTS))
    @pytest.mark.parametrize("n_terms", [9, 59, 199])
    def test_shifted_integers_against_mpmath(self, name, n_terms):
        # s right of alpha + 1/4 that zeta_series accepts, real and complex
        zeros = TAIL_SEQUENCES[name]()
        for s in (1.26, 1.5, 2.0, 3.7, 8.0, 20.0, 3.0 + 1.5j, 2.5 - 4.0j, 1.3 + 10.0j):
            ref = complex(mp.zeta(s, mp.mpmathify(SHIFTS[name])))
            assert abs(zeta_series(zeros, s, n_terms) - ref) <= 1e-14 * max(1.0, abs(ref)), s

    @pytest.mark.parametrize("a", [0.3, 0.4 + 0.7j, 0.5 + 5.0j])
    def test_small_starts_against_mpmath(self, a):
        # n_terms 0 to 9, Re a_N < 1 at N = n_terms + 1 included: within 1e-14
        # of mpmath.  For a = 0.5 + 5i q's zero at |v| = 0.199 lies close
        # outside the first circles past the head, and the tail refuses them
        # (test_unresolved_circle_refused)
        zeros = hurwitz_model(a).zeros
        for s in (1.5, 2.0, 3.7, 8.0, 3.0 + 1.5j, 1.3 - 0.7j):
            ref = complex(mp.zeta(s, mp.mpmathify(a)))
            for n_terms in range(10):
                got = zeta_series(zeros, s, n_terms)
                assert abs(got - ref) <= 1e-14 * abs(ref), (s, n_terms)

    @pytest.mark.parametrize("s", [3.0, 2.2 + 1.0j, 1.8])
    def test_composed_airy_sequence_from_its_head(self, s):
        # 2 a_n + 0.3: B/(A g) adds powers n^(-2/3) to the decay, so m = 3; the
        # Legendre tail raised DivergenceError from N = 61 at all three s
        zeros = ZeroSequence(1.5, lambda v: 2.0 * airy_zero_q(v ** 3) + 0.3 * v * v, m=3,
                             n_exact=60, head=lambda c: 2.0 * _airy_head(c) + 0.3)
        want = zeta_series(zeros, s, 3000)
        for n_terms in (0, 60, 100, 300, 1000, 10000):
            assert abs(zeta_series(zeros, s, n_terms) - want) <= 1e-14, n_terms


def _squares(a):
    """a_n = (n - 1 + a)^2, q(v) = (1 + (a - 1) v)^2: zeta(s) is zeta_H(2s, a)."""
    return ZeroSequence(alpha=0.5, q=lambda v: (1.0 + (a - 1.0) * v) ** 2)


class TestEndCorrections:
    """The Euler-Maclaurin corrections of each power n^-c are closed forms:
    N^-c/2 and B_2j/(2j)! (c)_(2j-1) N^(1-c-2j)."""

    @pytest.mark.parametrize("a", [0.3, 1.0, 0.5 + 0.5j])
    @pytest.mark.parametrize("s", [1.2, 2.0, 1.5 + 1j])
    def test_sequence_given_by_g_alone(self, a, s):
        # a sequence given by its formula alone, g(n) = n^(1/alpha) q(1/n), no head
        zeros = _squares(a)
        ref = complex(mp.zeta(2 * mp.mpmathify(s), mp.mpmathify(a)))
        for n_terms in (9, 100, 101, 1000, 4000):
            assert abs(zeta_series(zeros, s, n_terms) - ref) <= 1e-14 * abs(ref), n_terms

    @pytest.mark.parametrize("a", [1.0, 0.3, -1.3])
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.7, 8.0, 3.0 + 1.5j, 1.3 - 0.7j])
    def test_small_starts_close_to_exact_derivatives(self, a, s):
        # riemann, hurwitz(0.3) and hurwitz(-1.3) from every start N <= 10,
        # Re a_N < 1 included: within 1e-14 of mpmath.  The tail's estimate
        # refuses N < 10 here; zeta_series then sums directly to 2N - 1,
        # 4N - 1, ... until it accepts.  mpmath takes the negative elements on
        # the principal branch, so the sequence does too
        zeros = dataclasses.replace(hurwitz_model(a).zeros, psi=math.pi)
        ref = complex(mp.zeta(s, a))
        for n_terms in range(10):
            assert abs(zeta_series(zeros, s, n_terms) - ref) <= 1e-14 * abs(ref), n_terms
