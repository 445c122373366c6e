"""Derivatives in the exponent: log-moments, closed forms, inequalities."""

import itertools
import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import mpf_log

from lehmer import (
    DomainError,
    UsageError,
    fd_second_derivative,
    find_inflections,
    first_derivative,
    k_constant,
    lehmer,
    log_moment,
    make_spec,
    n3_inequalities,
    second_derivative,
    second_derivative_n2,
    second_derivative_n3,
    tilde_l,
    tilde_l_prime,
)
from lehmer import calculus, cli, core
from lehmer.calculus import (
    _CANCELLATION_LIMIT,
    _EXTENDED_DPS,
    _mp_constants,
    _mp_lehmer,
    _mp_terms,
    _second_derivative_mp,
)
from lehmer.core import _lehmer_value

# cross-checked at 60 digits
K_123 = -0.948153180075108
K_POSITIVE_TRIPLE = [1.0, 1.1, 4.0]
K_POSITIVE = 10.494062461537057


class TestLogMoment:
    def test_zeroth_moment_is_exactly_one(self, rng, random_spec):
        for _ in range(50):
            spec = random_spec(rng, weighted=True)
            assert log_moment(spec, float(rng.uniform(-50.0, 50.0)), 0) == 1.0

    def test_first_moment_reference_value(self):
        # softmax-weighted average of log(1), log(2), log(3) at p=1:
        # (0 + 2 log 2 + 3 log 3) / 6
        expected = (2.0 * math.log(2.0) + 3.0 * math.log(3.0)) / 6.0
        got = log_moment(make_spec([1.0, 2.0, 3.0]), 1.0, 1)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.7803552045207033, rel=1e-15)

    def test_moment_bounded_by_log_extremes(self, rng, random_spec):
        for _ in range(50):
            spec = random_spec(rng, weighted=True)
            m = log_moment(spec, float(rng.uniform(-30.0, 30.0)), 1)
            logs = [math.log(v) for v in spec.values]
            assert min(logs) - 1e-12 <= m <= max(logs) + 1e-12

    @pytest.mark.parametrize("bad_k", [-1, 3, 1.5, True, "2"])
    def test_order_validation(self, bad_k):
        with pytest.raises(UsageError):
            log_moment(make_spec([1.0, 2.0]), 1.0, bad_k)


class TestFirstDerivative:
    def test_nonnegative_everywhere(self, rng, random_spec):
        for _ in range(200):
            spec = random_spec(rng, weighted=bool(rng.integers(0, 2)))
            assert first_derivative(spec, float(rng.uniform(-30.0, 30.0))) >= 0.0

    def test_zero_for_constant(self):
        assert first_derivative(make_spec([4.0, 4.0]), 3.0) == 0.0

    def test_matches_finite_difference(self, rng, random_spec):
        h = 1e-5
        for _ in range(100):
            spec = random_spec(rng, weighted=True)
            p = float(rng.uniform(-10.0, 10.0))
            d1 = first_derivative(spec, p)
            fd = (float(lehmer(spec, p + h)) - float(lehmer(spec, p - h))) / (2.0 * h)
            assert abs(d1 - fd) <= 1e-4 * abs(d1) + 1e-9 * max(1.0, float(lehmer(spec, p)))

    def test_no_underflow_at_extreme_exponents(self):
        spec = make_spec([1.0, 2.0, 3.0])
        # slope decays toward the asymptotes but must stay a clean zero-or-positive
        for p in (-1e5, -500.0, 500.0, 1e5):
            assert first_derivative(spec, p) >= 0.0

    def test_near_equal_values_keep_their_digits(self):
        # log x_i - log x_j keeps about four digits of a log ratio near 1e-12;
        # the reference is L (m_1(p) - m_1(p-1)) at 60 digits
        spec = make_spec([3.0, 3.0 * (1.0 + 3e-12), 3.0 * (1.0 - 2e-12)])
        with mp.workdps(60):
            xs = [mp.mpf(v) for v in spec.values]

            def m1(e):
                return mp.fsum(x**e * mp.log(x) for x in xs) / mp.fsum(x**e for x in xs)

            half = mp.mpf(0.5)
            want = mp.fsum(x**half for x in xs) / mp.fsum(x ** (half - 1) for x in xs) * (m1(half) - m1(half - 1))
        assert first_derivative(spec, 0.5) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_subnormal_ratio_keeps_its_digits(self):
        # L'/L is subnormal here while L' itself is a normal double; the
        # reference is L (m_1(p) - m_1(p-1)) in 400-digit arithmetic
        spec = make_spec([1e-50, 1.0, 1e50])
        assert first_derivative(spec, 7.5) == pytest.approx(1.1512925464970224e-273, rel=1e-12)


class TestSecondDerivative:
    def test_pair_sign_structure(self):
        spec = make_spec([0.5, 2.5])
        assert second_derivative(spec, 0.0) > 0.0
        assert second_derivative(spec, 1.0) == 0.0
        assert second_derivative(spec, 2.0) < 0.0

    def test_triple_value_at_one(self):
        spec = make_spec([1.0, 2.0, 3.0])
        k = k_constant(spec)
        assert second_derivative(spec, 1.0) == pytest.approx(k / 27.0, rel=1e-9)

    def test_constant_is_exactly_zero(self):
        assert second_derivative(make_spec([5.0, 5.0]), 2.0) == 0.0

    def test_precision_modes_agree(self, rng, random_spec):
        for _ in range(30):
            spec = random_spec(rng, weighted=True)
            p = float(rng.uniform(-5.0, 5.0))
            standard = second_derivative(spec, p, precision="standard")
            extended = second_derivative(spec, p, precision="extended")
            scale = max(abs(standard), abs(extended), 1e-300)
            assert abs(standard - extended) <= 1e-6 * scale + 1e-30

    def test_unknown_precision_rejected(self):
        with pytest.raises(UsageError):
            second_derivative(make_spec([1.0, 2.0]), 1.0, precision="exact")

    def test_matches_extended_oracle(self, rng, random_spec):
        for _ in range(100):
            spec = random_spec(rng, weighted=bool(rng.integers(0, 2)))
            p = float(rng.uniform(-10.0, 10.0))
            d2 = second_derivative(spec, p)
            oracle = fd_second_derivative(spec, p, h=1e-6, dps=40)
            assert abs(d2 - oracle) <= max(1e-5 * abs(oracle), 1e-8), (spec.values, p)


def _separate_moments_bracket(spec, pm):
    """The bracket and the largest of its terms from four separately computed
    log-moments, as mpf objects at the working precision, for the mpf p pm;
    or None where the bracket is below its noise floor."""

    def moment(q, k):
        u = [mp.mpf(w) * mp.power(mp.mpf(v), q) for v, w in zip(spec.values, spec.weights)]
        logs = [mp.log(mp.mpf(v)) for v in spec.values]
        return mp.fsum(ui * li**k for ui, li in zip(u, logs)) / mp.fsum(u)

    m1p, m1q = moment(pm, 1), moment(pm - 1, 1)
    m2p, m2q = moment(pm, 2), moment(pm - 1, 2)
    bracket = m2p - m2q - 2 * m1q * (m1p - m1q)
    scale = max(abs(m2p), abs(m2q), abs(2 * m1q * m1p), abs(2 * m1q * m1q))
    if abs(bracket) < mp.mpf(10) ** (8 - mp.mp.dps) * scale:
        return None
    return bracket


def _separate_moments_l2(spec, p, dps=_EXTENDED_DPS):
    """50-digit L'' from four separately computed log-moments and L, or None
    where the bracket cancels below the working precision."""
    with mp.workdps(dps):
        pm = mp.mpf(p)
        bracket = _separate_moments_bracket(spec, pm)
        return None if bracket is None else float(_mp_lehmer(spec, pm) * bracket)


def _ref_sign_precisions(spec, p):
    """The digits _mp_sign takes the bracket at: 50, then 50 more than the
    decades its terms spread over."""
    l, lw = spec.log_values, spec.log_weights
    spread = max(abs(p), abs(p - 1.0)) * (max(l) - min(l)) + (max(lw) - min(lw))
    return (_EXTENDED_DPS, _EXTENDED_DPS + math.ceil(spread / math.log(10.0)))


def _ref_mp_sign(spec, p):
    """_mp_sign from mpf objects: (sign, the digits that decided it or None)."""
    for dps in _ref_sign_precisions(spec, p):
        with mp.workdps(dps):
            bracket = _separate_moments_bracket(spec, mp.mpf(p))
            if bracket is not None:
                return int(mp.sign(bracket)), dps
    return 0, None


def _hex(value):
    return None if value is None else value.hex()


def _ref_log_ratio(a, b):
    """log(a / b) to a few ulps: log1p of the exact difference where Sterbenz
    makes it exact, else the log of the quotient while that is normal."""
    if b / 2 <= a <= 2 * b:
        return math.log1p((a - b) / b)
    if sys.float_info.min <= a / b < math.inf:
        return math.log(a / b)
    return math.log(a) - math.log(b)


def _ref_pairwise_second_derivative(spec, p):
    """L'' in doubles from the pairwise form, or None where it keeps under
    ten digits; 0.0 where every term and its rounding are exactly 0.

    Written out on its own: the log ratios, the exponents of p - 1 over the
    largest, every pair term and the rounding each term can carry are
    recomputed here.
    """
    x, lw, n = spec.values, spec.log_weights, spec.n
    q = p - 1.0
    r = [[_ref_log_ratio(xi, xk) for xk in x] for xi in x]
    top = max(range(n), key=lambda k: q * r[k][0] + lw[k])
    b = [q * r[k][top] + (lw[k] - lw[top]) for k in range(n)]
    v = [math.exp(bk) for bk in b]
    ulps = [1.0 + abs(q * r[k][top]) + abs(lw[k]) + abs(lw[top]) for k in range(n)]
    ts, sums, sizes = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            if x[i] == x[j]:
                continue
            qr = q * r[j][i]
            gap = qr + (lw[j] - lw[i])
            big, small = (i, j) if gap <= 0.0 else (j, i)
            diff = math.copysign(v[big] * math.expm1(-abs(gap)), gap)
            terms, rounding = [r[i][j] * diff], 0.0
            for k in range(n):
                if k not in (i, j):
                    terms += [v[k] * r[i][k], v[k] * r[j][k]]
                    rounding += v[k] * ulps[k] * (abs(r[i][k]) + abs(r[j][k]))
            # the gap carries the rounding of log w_i and log w_j, unless they are equal and cancel
            gap_ulps = abs(qr) + abs(lw[i]) + abs(lw[j]) if spec.weights[i] != spec.weights[j] else abs(qr)
            own = abs(r[i][j]) * (abs(diff) * (ulps[big] + 1.0) + v[small] * gap_ulps)
            sums.append(math.fsum(terms))
            sizes.append(own + rounding)
            ts.append(b[i] + b[j] + (math.log(abs(x[i] - x[j])) + math.log(abs(r[i][j]))))
    if not ts:
        return None
    t_max = max(ts)
    e = [math.exp(t - t_max) for t in ts]
    s = math.fsum(ek * sk for ek, sk in zip(e, sums))
    size = math.fsum(ek * mk for ek, mk in zip(e, sizes))
    if abs(s) <= _CANCELLATION_LIMIT * size:
        return 0.0 if size == 0.0 else None
    return math.copysign(math.exp(t_max + math.log(abs(s)) - 3.0 * math.log(math.fsum(v))), s)


class TestExtendedBracket:
    """The 50-digit path shares its powers and logs and still rounds the same."""

    def test_one_pass_is_bit_identical(self, rng, random_spec):
        checked = 0
        for _ in range(40):
            spec = random_spec(rng, n=int(rng.integers(2, 6)), weighted=bool(rng.random() < 0.4))
            big = float(rng.choice([-1.0, 1.0]) * rng.uniform(100.0, 1000.0))
            for p in (1.0, 0.0, float(rng.integers(-20, 21)), float(rng.uniform(-30.0, 30.0)), big):
                assert _hex(_second_derivative_mp(spec, p)) == _hex(_separate_moments_l2(spec, p)), (spec, p)
                checked += 1
        assert checked == 200

    def test_integer_and_half_integer_exponents(self, rng, random_spec):
        # mpmath's power takes its own path there, not exp(p log x)
        specs = [make_spec(v) for v in ([0.5, 2.5], [1.0, 2.0, 3.0], [1.0259, 1.0241, 1.0244, 0.96], [1e-5, 1e5])]
        specs += [random_spec(rng, n=n, weighted=True) for n in range(2, 7)]
        exponents = (-40.0, -7.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 13.0, 39.5, 600.5, -1000.0)
        undecided = 0
        for spec in specs:
            for p in exponents:
                for dps in (_EXTENDED_DPS, 80):
                    got = _second_derivative_mp(spec, p, dps)
                    assert _hex(got) == _hex(_separate_moments_l2(spec, p, dps)), (spec, p, dps)
                    undecided += got is None
        assert undecided < len(specs) * len(exponents)

    def test_sign_at_the_retry_precision(self):
        # the terms of these spread over more than 50 decades at most of the
        # exponents: the 50-digit bracket is noise, and the retry decides
        specs = [
            make_spec([1e-5, 1e5]),
            make_spec([1e-5, 1.0, 1e5], [2.0, 1.0, 0.5]),
            make_spec([0.1, 10.0], [1.0, 3.0]),
            make_spec([0.5, 2.5]),
        ]
        retried = 0
        for spec in specs:
            for p in (-40.0, -25.5, -12.0, -3.25, 0.3, 1.0, 2.7, 7.5, 13.0, 20.0, 40.0, 17.123):
                sign, dps = _ref_mp_sign(spec, p)
                assert calculus._mp_sign(spec, p) == sign, (spec, p)
                if dps is not None and dps > _EXTENDED_DPS:
                    retried += 1
                    # the bracket itself, and L, at the retry precision
                    assert _hex(_second_derivative_mp(spec, p, dps)) == _hex(_separate_moments_l2(spec, p, dps)), (spec, p)
        assert retried >= 15, retried


# Separate-pass reference for the double path: each helper recomputes its
# own shifted terms, as the calculus layer did before it shared one table of
# powers per exponent. The shared table must round exactly the same.


def _ref_moment(spec, p, k):
    if k == 0:
        return 1.0
    l = spec.log_values
    a = [lwi + p * li for lwi, li in zip(spec.log_weights, l)]
    m = max(a)
    u = [math.exp(ai - m) for ai in a]
    return math.fsum(ui * li**k for ui, li in zip(u, l)) / math.fsum(u)


def _ref_shifted(spec, p):
    a = [lwi + p * li for lwi, li in zip(spec.log_weights, spec.log_values)]
    m = max(a)
    return m, math.fsum(math.exp(ai - m) for ai in a)


def _ref_lehmer(spec, p):
    lo, hi = min(spec.values), max(spec.values)
    if lo == hi:
        return lo
    l, lw = spec.log_values, spec.log_weights
    num = [lwi + p * li for lwi, li in zip(lw, l)]
    den = [lwi + (p - 1.0) * li for lwi, li in zip(lw, l)]
    ia = max(range(len(num)), key=num.__getitem__)
    ib = max(range(len(den)), key=den.__getitem__)
    sa = math.fsum(math.exp(a - num[ia]) for a in num)
    sb = math.fsum(math.exp(b - den[ib]) for b in den)
    if ia == ib and sa == 1.0 and sb == 1.0:
        return spec.values[ia]
    if ia == ib:
        shift = l[ia]
    elif max(abs(num[ia]), abs(den[ib])) < 1e3:
        shift = num[ia] - den[ib]
    else:
        shift = (lw[ia] - lw[ib]) + p * (l[ia] - l[ib]) + l[ib]
    return min(max(math.exp(shift) * (sa / sb), lo), hi)


def _ref_first_derivative(spec, p):
    if spec.is_constant:
        return 0.0
    x, l, lw = spec.values, spec.log_values, spec.log_weights
    mu, su = _ref_shifted(spec, p)
    mv, sv = _ref_shifted(spec, p - 1.0)
    ts = []
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            if x[i] != x[j]:
                lr = math.log(abs(x[i] - x[j])) + math.log(abs(_ref_log_ratio(x[i], x[j])))
                ts.append(lw[i] + lw[j] + (p - 1.0) * (l[i] + l[j]) + lr)
    t_max = max(ts)
    shift = t_max - mu - mv
    s = math.fsum(math.exp(t - t_max) for t in ts)
    delta = math.exp(shift) * s / (su * sv)
    value = _ref_lehmer(spec, p)
    if delta < sys.float_info.min:
        return math.exp(shift + math.log(value)) * s / (su * sv)
    return value * delta


def _double_bracket(spec, p):
    """The double-precision moment bracket and the largest of its terms."""
    m1p, m1q = _ref_moment(spec, p, 1), _ref_moment(spec, p - 1.0, 1)
    m2p, m2q = _ref_moment(spec, p, 2), _ref_moment(spec, p - 1.0, 2)
    terms = (m2p, -m2q, -2.0 * m1q * m1p, 2.0 * m1q * m1q)
    return math.fsum(terms), max(abs(t) for t in terms)


def _ref_second_derivative(spec, p, precision):
    if spec.is_constant:
        return 0.0
    bracket, scale = _double_bracket(spec, p)
    if scale > 0.0 and abs(bracket) < _CANCELLATION_LIMIT * scale:
        value = _ref_pairwise_second_derivative(spec, p)
        if value is not None:
            return value
        if precision == "auto":
            value = _second_derivative_mp(spec, p)
            return 0.0 if value is None else value
    return _ref_lehmer(spec, p) * bracket


def _one_pass_specs(rng):
    """Unit and weighted specs, n = 2..6: ordinary, wide, near-equal, with duplicates."""
    specs = []
    for k in range(60):
        n = 2 + k % 5
        kind = (k // 5) % 4
        if kind == 0:
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
        elif kind == 1:
            values = np.exp(rng.uniform(-300.0, 300.0, n))
        elif kind == 2:
            values = 1.0 + 1e-6 * rng.standard_normal(n)
        else:
            values = np.exp(rng.uniform(-5.0, 5.0, n))
            values[-1] = values[0]
        weights = np.exp(rng.uniform(-2.0, 2.0, n)).tolist() if k % 2 else None
        specs.append(make_spec(values.tolist(), weights))
    return specs


def _one_pass_exponents(rng):
    return (
        0.0,
        1.0,
        float(rng.integers(-40, 41)),
        float(rng.integers(-81, 82)) / 2.0,
        float(rng.uniform(-30.0, 30.0)),
        float(rng.choice([-1.0, 1.0]) * rng.uniform(500.0, 2000.0)),
        float(rng.choice([-2000.0, 2000.0])),
    )


class TestOnePassDoublePath:
    """L, L' and L'' from one table of powers per exponent round exactly as
    the separate passes did."""

    def test_bit_identical_to_separate_passes(self, rng):
        checked = 0
        for spec in _one_pass_specs(rng):
            for p in _one_pass_exponents(rng):
                assert _lehmer_value(spec, p).hex() == _ref_lehmer(spec, p).hex(), (spec, p)
                assert first_derivative(spec, p).hex() == _ref_first_derivative(spec, p).hex(), (spec, p)
                for precision in ("standard", "auto"):
                    got = second_derivative(spec, p, precision=precision)
                    want = _ref_second_derivative(spec, p, precision)
                    assert got.hex() == want.hex(), (spec, p, precision)
                for k in (1, 2):
                    assert log_moment(spec, p, k).hex() == _ref_moment(spec, p, k).hex(), (spec, p, k)
                checked += 1
        assert checked == 420

    def test_curve_grid_is_bit_identical(self, rng):
        # the benchmark's curve inputs: its five fixed specs, and weighted
        # specs of n = 2..6 with values within a factor 1.25 of 1
        specs = [make_spec(v) for v in ([0.5, 2.5], [1.0, 2.0, 3.0], [1.0259, 1.0241, 1.0244, 0.96])]
        specs += [make_spec(v) for v in _WIDE_FIXED[1:]]
        for n in range(2, 7):
            values = np.exp(rng.uniform(np.log(0.8), np.log(1.25), n)).tolist()
            specs.append(make_spec(values, rng.uniform(0.5, 2.0, n).tolist()))
        for spec in specs:
            for p in _CURVE_GRID:
                got = [lehmer(spec, p), first_derivative(spec, p)]
                got += [second_derivative(spec, p, precision) for precision in ("standard", "auto")]
                got += [log_moment(spec, p, k) for k in (1, 2)]
                want = [_ref_lehmer(spec, p), _ref_first_derivative(spec, p)]
                want += [_ref_second_derivative(spec, p, precision) for precision in ("standard", "auto")]
                want += [_ref_moment(spec, p, k) for k in (1, 2)]
                assert [x.hex() for x in got] == [x.hex() for x in want], (spec, p)


class TestOnePoint:
    """L, L' and L'' at one (spec, p) share one pair of power tables, and each
    exponent's table and moments are built once while one spec is in use
    (core._point)."""

    CALLS = {
        "L": lehmer,
        "L'": first_derivative,
        "L''": second_derivative,
    }

    @pytest.mark.parametrize("order", list(itertools.permutations(("L", "L'", "L''"))), ids=",".join)
    def test_two_tables_per_point(self, monkeypatch, order):
        spec = make_spec([1.0259, 1.0241, 1.0244, 0.96], [1.0, 2.0, 0.5, 1.5])
        calls = []
        powers = core._powers

        def counted(spec, p):
            calls.append(p)
            return powers(spec, p)

        monkeypatch.setattr(core, "_powers", counted)
        monkeypatch.setattr(calculus, "_powers", counted)
        for p in (0.5, -7.25, 13.0):
            lehmer(make_spec([2.0, 3.0]), p)  # another spec in between: a cold slot
            calls.clear()
            values = {name: self.CALLS[name](spec, p) for name in order}
            assert sorted(calls) == [p - 1.0, p], (order, p)
            assert values["L"] == _ref_lehmer(spec, p)
            # the shared tables cannot be changed by a caller
            for a, _, u, _ in core._point(spec, p)[:2]:
                assert type(a) is tuple and type(u) is tuple

    @pytest.mark.parametrize("precision", ["standard", "auto", "extended"])
    def test_one_point_per_second_derivative(self, monkeypatch, precision):
        # second_derivative hands the point it holds to the double steps
        calls = []
        point = core._point

        def counted(spec, p):
            calls.append(p)
            return point(spec, p)

        monkeypatch.setattr(calculus, "_point", counted)
        # a plain bracket, the pairwise form (the bracket cancels), an exact zero
        for values, p in (([1.0259, 1.0241, 1.0244, 0.96], 0.5), ([1e-5, 1e5], -40.0), ([0.5, 2.5], 1.0)):
            spec = make_spec(values)
            lehmer(make_spec([2.0, 3.0]), p)  # another spec in between: a cold slot
            calls.clear()
            second_derivative(spec, p, precision)
            assert calls == [p], (values, p)

    @staticmethod
    def _cold(fn, spec, p, *args):
        lehmer(make_spec([2.0, 3.0]), 0.25)  # another spec in between: a cold slot
        return fn(spec, p, *args).hex()

    def test_bit_identical_to_a_cold_slot(self, rng):
        specs = _one_pass_specs(rng) + [make_spec(v) for v in _WIDE_FIXED]
        specs.append(make_spec([1.0, 1.0 + 2**-50, 1.0 + 2**-49]))  # pairwise and 50-digit paths
        checked = 0
        for spec in specs:
            for p in (0.0, -0.0, 1.0, float(rng.uniform(-30.0, 30.0)), -600.0, 1500.5):
                for precision in ("auto", "standard", "extended"):
                    warm = (
                        lehmer(spec, p).hex(),
                        first_derivative(spec, p).hex(),
                        second_derivative(spec, p, precision).hex(),
                        lehmer(spec, p).hex(),
                    )
                    cold = (
                        self._cold(lehmer, spec, p),
                        self._cold(first_derivative, spec, p),
                        self._cold(second_derivative, spec, p, precision),
                        self._cold(lehmer, spec, p),
                    )
                    assert warm == cold, (spec, p, precision)
                    checked += 1
        assert checked == 64 * 6 * 3
        # grids walked up, down and shuffled, so that the table of p - 1 and
        # its moments come from an earlier point, a later one or neither
        grid = [-12.0 + 0.5 * k for k in range(49)]
        walks = (grid, grid[::-1], [grid[k] for k in rng.permutation(len(grid))])
        for spec in specs[::6]:
            for precision in ("auto", "standard", "extended"):
                cold = {p: self._values(spec, p, precision, cold=True) for p in grid}
                for walk in walks:
                    lehmer(make_spec([2.0, 3.0]), 0.25)
                    for p in walk:
                        assert self._values(spec, p, precision) == cold[p], (spec, p, precision)
                        checked += 1
        assert checked == 64 * 6 * 3 + 11 * 3 * 3 * 49

    def _values(self, spec, p, precision, cold=False):
        def call(fn, *args):
            return self._cold(fn, spec, *args) if cold else fn(spec, *args).hex()

        return (
            call(lehmer, p),
            call(first_derivative, p),
            call(second_derivative, p, precision),
            call(log_moment, p, 1),
            call(log_moment, p - 1.0, 2),
            call(lehmer, p),
        )

    def test_threads_get_the_sequential_values(self):
        # more threads than cores, each on its own spec, switching every microsecond
        specs = [
            make_spec([0.5, 2.5], [1.0, 3.0]),
            make_spec([1.0259, 1.0241, 1.0244, 0.96]),
            make_spec([1.0, 2.0, 3.0]),
            make_spec([1e-5, 1.0, 1e5], [2.0, 1.0, 0.5]),
        ]
        grid = [-40.0 + 0.25 * k for k in range(321)]

        def curve(spec):
            return [(lehmer(spec, p), first_derivative(spec, p), second_derivative(spec, p)) for p in grid]

        sequential = [curve(spec) for spec in specs]
        results = [None] * len(specs)

        def run(k):
            results[k] = [curve(specs[k]) for _ in range(30)]

        self._in_threads(run, len(specs))
        for k in range(len(specs)):
            assert results[k] == [sequential[k]] * 30, specs[k]

    def test_two_threads_share_a_spec_on_one_grid(self):
        # both threads walk the same grid of the same spec at once, so each
        # reads tables and moments that the other is building; they switch
        # specs together, and a thread that switches first resets the slot
        specs = [make_spec([1.0259, 1.0241, 1.0244, 0.96], [1.0, 2.0, 0.5, 1.5]), make_spec([0.5, 2.5], [1.0, 3.0])]

        def values(spec, p):
            got = (lehmer(spec, p), first_derivative(spec, p), second_derivative(spec, p), log_moment(spec, p - 1.0, 2))
            return [x.hex() for x in got]

        sequential = {(k, p): values(spec, p) for k, spec in enumerate(specs) for p in _CURVE_GRID}
        results = [[], []]

        def run(t):
            for _ in range(30):
                for k, spec in enumerate(specs):
                    results[t].extend(((k, p), values(spec, p)) for p in _CURVE_GRID)

        self._in_threads(run, 2)
        for t in range(2):
            assert len(results[t]) == 30 * 2 * 161
            for key, got in results[t]:
                assert got == sequential[key], key

    @staticmethod
    def _in_threads(run, count):
        """run(k) for k < count in as many threads, started together and
        switching every microsecond."""
        start = threading.Barrier(count)

        def started(k):
            start.wait()
            run(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=started, args=(k,)) for k in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

    @staticmethod
    def _count_tables(monkeypatch):
        """The exponent of each table built from here on, in order."""
        calls = []
        powers = core._powers

        def counted(spec, p):
            calls.append(p)
            return powers(spec, p)

        monkeypatch.setattr(core, "_powers", counted)
        lehmer(make_spec([2.0, 3.0]), 0.25)  # another spec in between: a cold slot
        calls.clear()
        return calls

    def test_one_table_per_exponent_on_the_curve_grid(self, monkeypatch):
        spec = make_spec([1.0259, 1.0241, 1.0244, 0.96], [1.0, 2.0, 0.5, 1.5])
        calls = self._count_tables(monkeypatch)
        for p in _CURVE_GRID:
            lehmer(spec, p), first_derivative(spec, p), second_derivative(spec, p)
        # -41 ... 40 in steps of 0.5
        assert len(calls) == len(set(calls)) == 163

    def test_p_minus_one_from_an_earlier_point(self, monkeypatch):
        # figure 1's grid: 0.05 is not exact in binary, so p - 1.0 is an
        # earlier grid point exactly at only some points; there one table is built
        values, p_range = cli._FIGURES[1]
        spec = make_spec(values)
        calls = self._count_tables(monkeypatch)
        built, seen = [], set()
        for p in cli._range_points(*p_range):
            calls.clear()
            lehmer(spec, p), second_derivative(spec, p)
            built.append(len(calls))
            assert len(calls) == (1 if p - 1.0 in seen else 2), p
            seen.add(p)
        assert len(built) == 181 and built[:20] == [2] * 20
        assert built[20:].count(1) == 132

    def test_bounded_on_a_long_grid(self):
        values, p_range = cli._FIGURES[3]
        spec = make_spec(values)
        grid = cli._range_points(*p_range)
        sizes = []
        # up the grid (one new table per point), then shuffled (two per point)
        for p in grid + [grid[k] + 0.5 for k in np.random.default_rng(3).permutation(len(grid))]:
            lehmer(spec, p), second_derivative(spec, p)
            sizes.append(len(core._held[3]))
        assert len(sizes) == 2 * 3001 and max(sizes) == core._MAX_TABLES

    def test_moments_once_per_exponent(self, monkeypatch):
        made = []
        moments = calculus._moments

        def counted(spec, entry):
            made.append(entry[0][0])  # the exponent's a_i
            return moments(spec, entry)

        monkeypatch.setattr(calculus, "_moments", counted)
        spec = make_spec([1.0259, 1.0241, 1.0244, 0.96], [1.0, 2.0, 0.5, 1.5])
        lehmer(make_spec([2.0, 3.0]), 0.25)
        for p in _CURVE_GRID:
            lehmer(spec, p)
        assert made == []
        for p in _CURVE_GRID:
            lehmer(spec, p), first_derivative(spec, p), second_derivative(spec, p)
            log_moment(spec, p, 1), log_moment(spec, p - 1.0, 2)
        assert len(made) == len(set(made)) == 163

    def test_log_moment_reads_the_held_tables(self, monkeypatch):
        spec = make_spec([1.0259, 1.0241, 1.0244, 0.96], [1.0, 2.0, 0.5, 1.5])
        calls = self._count_tables(monkeypatch)
        second_derivative(spec, 2.5)
        assert sorted(calls) == [1.5, 2.5]
        for p, k in ((2.5, 1), (1.5, 2), (2.5, 2), (11.0, 0)):
            log_moment(spec, p, k)
        assert sorted(calls) == [1.5, 2.5]
        log_moment(spec, 7.0, 1), log_moment(spec, 7.0, 2), lehmer(spec, 8.0)
        assert sorted(calls) == [1.5, 2.5, 7.0, 8.0]
        other = make_spec([1.0, 2.0, 3.0])
        log_moment(other, 2.5, 2)  # another spec: its own tables
        assert sorted(calls) == [1.5, 2.5, 2.5, 7.0, 8.0]


class TestNonFiniteExponent:
    """Every public call at one point rejects a non-finite p, as lehmer does."""

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("values", [[0.5, 2.5], [2.0, 2.0]])
    def test_rejected(self, p, values):
        spec = make_spec(values)
        calls = [lehmer, first_derivative] + [
            lambda s, p, precision=precision: second_derivative(s, p, precision)
            for precision in ("standard", "extended", "auto")
        ]
        calls += [lambda s, p, k=k: log_moment(s, p, k) for k in (0, 1, 2)]
        for fn in calls:
            with pytest.raises(DomainError):
                fn(spec, p)
        # nothing of the rejected point is kept
        assert second_derivative(spec, 1.0) == 0.0
        assert lehmer(spec, 1.0) == _ref_lehmer(spec, 1.0)


_CURVE_GRID = tuple(-40.0 + 0.5 * k for k in range(161))
_WIDE_FIXED = ([0.5, 2.5], [1e-5, 1e5], [1e-50, 1.0, 1e50])


def _mp_moment_second_derivative(spec, p, hint):
    """L''(p) from the moment bracket in mpmath, with no code of the package.

    The digits grow until the bracket keeps 20 of them, or until |L''| is
    certainly below 1e-301 (then 0.0). hint, an estimate of |L''|, only picks
    the next precision: it changes the cost, not the result.
    """
    dps = 40
    while True:
        with mp.workdps(dps):
            xs = [mp.mpf(v) for v in spec.values]
            logs = [mp.log(x) for x in xs]

            def moments(e):
                u = [mp.mpf(w) * mp.power(x, e) for x, w in zip(xs, spec.weights)]
                s = mp.fsum(u)
                return s, mp.fsum(ui * li for ui, li in zip(u, logs)) / s, mp.fsum(ui * li**2 for ui, li in zip(u, logs)) / s

            sp, m1p, m2p = moments(mp.mpf(p))
            sq, m1q, m2q = moments(mp.mpf(p) - 1)
            bracket = m2p - m2q - 2 * m1q * (m1p - m1q)
            scale = max(abs(m2p), abs(m2q), abs(2 * m1q * m1p), abs(2 * m1q * m1q))
            noise = mp.mpf(10) ** (20 - dps) * scale
            if abs(bracket) > noise:
                return float(sp / sq * bracket)
            if sp / sq * noise < mp.mpf("1e-301"):
                return 0.0
            need = 21 + int(mp.log10(sp / sq * scale / max(abs(hint), 1e-301)))
        dps = max(2 * dps, need)


class TestPairwiseFallback:
    """Where the moment bracket cancels, L'' comes from the pairwise double
    form, and only points near a root of L'' reach 50 digits."""

    @staticmethod
    def _tolerance(spec, p, handed_on):
        # x^(p-1) from a rounded log carries a relative error of about
        # |p| log x * eps; a bracket that cancels to |bracket|/scale
        # multiplies its rounding by scale/|bracket|
        cond = 1.0 + (abs(p) + 1.0) * max(map(abs, spec.log_values)) + max(map(abs, spec.log_weights))
        if handed_on:
            return max(1e-12, 4.0 * sys.float_info.epsilon * cond)
        bracket, scale = _double_bracket(spec, p)
        return 4.0 * sys.float_info.epsilon * cond * scale / abs(bracket)

    def test_agrees_with_mp_moment_bracket(self, rng):
        wide = [spec for k, spec in enumerate(_one_pass_specs(rng)) if (k // 5) % 4 == 1]
        handed_on = 0
        for spec in [make_spec(v) for v in _WIDE_FIXED] + wide:
            for p in _CURVE_GRID:
                got = second_derivative(spec, p)
                want = _mp_moment_second_derivative(spec, p, got)
                bracket, scale = _double_bracket(spec, p)
                cancelled = abs(bracket) < _CANCELLATION_LIMIT * scale
                handed_on += cancelled
                tol = self._tolerance(spec, p, cancelled)
                assert abs(got - want) <= tol * abs(want) + 1e-300, (spec.values, p, got, want)
        assert handed_on >= 2500, handed_on

    def test_values_a_few_ulps_apart(self, rng):
        # log x_i - log x_k keeps only a few digits here; the log ratios keep them all
        for centre in (3.0, 5.7, 0.37):
            for n in (3, 4, 5):
                spec = make_spec((centre * (1.0 + 1e-12 * rng.standard_normal(n))).tolist())
                for p in _CURVE_GRID[::8]:
                    got = second_derivative(spec, p)
                    want = _mp_moment_second_derivative(spec, p, got)
                    assert abs(got - want) <= 1e-9 * abs(want), (spec.values, p, got, want)

    @pytest.mark.parametrize("centre", [2.0, 1e300])
    def test_near_equal_values_at_large_exponents(self, rng, centre):
        # exponents taken as p log x_k round to about eps |p log x|, which is
        # the whole of (p - 1) log(x_j / x_i) here; log ratios do not
        handed_on = 0
        for n in (2, 3):
            for spacing in (1e-12, 8 * 2.0**-52):
                values = (centre * (1.0 + spacing * rng.standard_normal(n))).tolist()
                spec = make_spec(values)
                for p in (-1000.0, -640.5, -300.0, -100.0, 100.0, 213.25, 500.0, 1000.0):
                    handed_on += calculus._pairwise_second_derivative(spec, p) is not None
                    want = _mp_moment_second_derivative(spec, p, second_derivative(spec, p))
                    for precision in ("auto", "extended"):
                        got = second_derivative(spec, p, precision=precision)
                        assert abs(got - want) <= 1e-10 * abs(want), (values, p, precision, got, want)
        assert handed_on >= 28, handed_on

    def test_pair_a_few_ulps_apart(self):
        # (x_2/x_1)^(p-1) - 1 is 4e-15 (p-1) here; expm1 of the log ratio keeps it
        spec = make_spec([2.0, 2.0 + 8 * 2.0**-51])
        for p, value in ((0.0, 2.4892061111444e-60), (3.0, -4.9784122222888e-60)):
            want = _mp_moment_second_derivative(spec, p, value)
            assert want == pytest.approx(value, rel=1e-12)
            for precision in ("auto", "extended"):
                assert second_derivative(spec, p, precision=precision) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_extended_hands_on_below_its_noise_floor(self):
        handed_on = 0
        for values in _WIDE_FIXED:
            spec = make_spec(values)
            for p in _CURVE_GRID:
                got = second_derivative(spec, p, precision="extended")
                want = _mp_moment_second_derivative(spec, p, got)
                with mp.workdps(_EXTENDED_DPS):
                    bracket, scale, _ = map(mp.make_mpf, calculus._mp_curvature(spec, mp.mpf(p)._mpf_))
                    left = abs(bracket) / scale
                if left < mp.mpf(10) ** (8 - _EXTENDED_DPS):
                    handed_on += 1
                    tol = self._tolerance(spec, p, True)
                else:
                    # the 50-digit bracket keeps what its own cancellation leaves
                    tol = 1e-12 + float(mp.mpf(10) ** (2 - _EXTENDED_DPS) / left)
                assert abs(got - want) <= tol * abs(want) + 1e-300, (values, p, got, want)
        assert handed_on >= 250, handed_on

    @pytest.mark.parametrize(
        "values, weights",
        [
            ([1.0, 2.0, 3.0], None),
            ([6.481392263791841, 6.423811479776065, 0.15677167515095947], [0.8399342483029403, 4.791011776132837, 0.7239843357893481]),
            ([1e-5, 1.0, 7.0, 1e5], [1.0, 3.0, 0.5, 2.0]),
        ],
    )
    def test_near_a_root_keeps_ten_digits(self, values, weights):
        # near a root the pairwise sum cancels too; what it hands on goes to
        # 50 digits, and what it keeps must have lost at most ten digits
        spec = make_spec(values, weights)
        kept = handed_on = 0
        for root in find_inflections(spec).roots:
            for k in range(3, 14):
                for sign in (-1.0, 1.0):
                    p = root.p_star * (1.0 + sign * 10.0**-k)
                    if calculus._pairwise_second_derivative(spec, p) is None:
                        handed_on += 1
                    else:
                        kept += 1
                    got = second_derivative(spec, p)
                    want = _mp_moment_second_derivative(spec, p, got)
                    assert abs(got - want) <= 1e-5 * abs(want), (values, p, got, want)
        assert kept and handed_on, (kept, handed_on)

    @pytest.mark.parametrize(
        "values, ps, least",
        [
            ([0.5, 2.5], [k / 2.0 for k in range(-120, 121)], 180),
            ([1e-200, 1e-150, 1e305], [1.2, -2.0], 2),
        ],
    )
    def test_standard_takes_the_pairwise_form(self, values, ps, least):
        # "standard" once returned L * bracket here: exactly 0.0 at 145 of the
        # pair's points (-40 among them) and at both of the triple's, where
        # the true values are 1.139e-28, -1.0976e220 and 1.3255e-296
        spec = make_spec(values)
        handed_on = 0
        for p in ps:
            got = second_derivative(spec, p, precision="standard")
            bracket, scale = _double_bracket(spec, p)
            if abs(bracket) >= _CANCELLATION_LIMIT * scale:
                continue
            if calculus._pairwise_second_derivative(spec, p) is None:
                # the pairwise form cancels too: "standard" stops before 50
                # digits, with 0.0 where every pairwise term is exactly 0
                # (the pair at p = 1)
                exact_zero = calculus._pairwise_parts(spec, p)[1] == 0.0
                assert got == (0.0 if exact_zero else _ref_lehmer(spec, p) * bracket), (values, p)
                continue
            handed_on += 1
            want = _mp_moment_second_derivative(spec, p, got)
            assert want != 0.0 and abs(got - want) <= self._tolerance(spec, p, True) * abs(want), (values, p, got, want)
        assert handed_on >= least, handed_on

    @pytest.mark.parametrize("values", [[0.5, 2.5], [3.0, 7.0], [1e-5, 1e5]])
    def test_a_unit_pair_is_exactly_flat_at_one(self, values, monkeypatch):
        # every pairwise term is exactly 0 there, and so is L''(1) by the
        # closed form: each precision gives 0.0, and none takes 50 digits
        # for it but "extended"
        self._assert_flat_at_one(make_spec(values), monkeypatch)

    @pytest.mark.parametrize("weight", [2.0, 0.3])
    def test_an_equal_weight_pair_is_exactly_flat_at_one(self, weight, monkeypatch):
        # log w_j - log w_i is exactly 0, so the gaps carry no rounding of the weights
        self._assert_flat_at_one(make_spec([0.5, 2.5], [weight, weight]), monkeypatch)

    @staticmethod
    def _assert_flat_at_one(spec, monkeypatch):
        assert calculus._pairwise_parts(spec, 1.0)[:2] == (0.0, 0.0)
        assert calculus._double_second_derivative(spec, 1.0, core._point(spec, 1.0)) == (0.0, None)
        taken = []
        mp_path = calculus._second_derivative_mp

        def counted(*args, **kwargs):
            taken.append(args[1])
            return mp_path(*args, **kwargs)

        monkeypatch.setattr(calculus, "_second_derivative_mp", counted)
        for precision in ("auto", "standard"):
            assert second_derivative(spec, 1.0, precision=precision) == 0.0, precision
        assert not taken
        assert second_derivative(spec, 1.0, precision="extended") == 0.0
        assert calculus._fifty_digit_second_derivative(spec, 1.0) == 0.0  # what "auto" took before

    def test_beyond_the_largest_double(self):
        # L'' of this pair near p = 1 exceeds 1.8e308: infinite, as L * bracket gives it
        spec = make_spec([1e-300, 1.7e308])
        for p in (0.99, 1.001):
            value = calculus._pairwise_second_derivative(spec, p)
            assert value == second_derivative(spec, p, precision="standard")
            assert math.isinf(value)

    def test_few_points_reach_50_digits(self, monkeypatch):
        reached = []
        mp_path = calculus._second_derivative_mp

        def counted(spec, p, *args):
            reached.append((spec.values, p))
            return mp_path(spec, p, *args)

        monkeypatch.setattr(calculus, "_second_derivative_mp", counted)
        for values in _WIDE_FIXED:
            spec = make_spec(values)
            for p in _CURVE_GRID:
                second_derivative(spec, p)
        assert len(reached) <= 2, reached


def _values_from_tiny_to_huge(rng):
    return [1e-300, 1e300, 1.0] + np.exp(rng.uniform(-690.0, 690.0, 5)).tolist()


class TestCachedPowers:
    """The 50-digit powers read cached values and logs and still equal mp.power."""

    EXPONENTS = ("0", "1", "-1", "7", "-13", "0.5", "-2.5", "41.5", "0.37", "-3.1", "1000", "-1000.5",
                 "1234.567", "-2000.25", "1e-9")

    @staticmethod
    def _direct(spec, p):
        return [mp.mpf(w) * mp.power(mp.mpf(v), p) for v, w in zip(spec.values, spec.weights)]

    @staticmethod
    def _terms(spec, p):
        """_mp_terms at the mpf p, as mpf values."""
        return [mp.make_mpf(t) for t in _mp_terms(spec, p._mpf_)]

    def test_equal_to_mp_power(self, rng):
        spec = make_spec(_values_from_tiny_to_huge(rng), np.exp(rng.uniform(-3.0, 3.0, 8)).tolist())
        # alternate the precision between calls: each call must use the constants of its own
        for text in self.EXPONENTS:
            for dps in (40, 50, 60, 50):
                with mp.workdps(dps):
                    p = mp.mpf(text)
                    assert repr(self._terms(spec, p)) == repr(self._direct(spec, p)), (text, dps)
                    assert repr(self._terms(spec, p - 1)) == repr(self._direct(spec, p - 1)), (text, dps)

    def test_shared_logs_equal_mp_power_at_the_sign_precisions(self, rng):
        # 50 digits, and the retry precision of _mp_sign for that spec and p
        for _ in range(6):
            n = int(rng.integers(2, 6))
            spec = make_spec(np.exp(rng.uniform(-30.0, 30.0, n)).tolist(), np.exp(rng.uniform(-2.0, 2.0, n)).tolist())
            big = max(abs(v) for v in spec.log_values)
            ps = rng.uniform(-60.0, 60.0, 4).tolist()
            ps += rng.integers(-40, 40, 2).astype(float).tolist()
            ps += (rng.integers(-80, 80, 2) + 0.5).tolist()
            ps += (np.array([-1.0, 1.0]) * rng.uniform(701.0, 3000.0, 2) / big).tolist()  # |p log x| > 700
            l, lw = spec.log_values, spec.log_weights
            for p in ps:
                spread = max(abs(p), abs(p - 1.0)) * (max(l) - min(l)) + (max(lw) - min(lw))
                for dps in (_EXTENDED_DPS, _EXTENDED_DPS + math.ceil(spread / math.log(10.0))):
                    with mp.workdps(dps):
                        q = mp.mpf(p)
                        for t in (q, q - 1):
                            assert repr(self._terms(spec, t)) == repr(self._direct(spec, t)), (spec.values, p, dps)

    def test_keyed_on_precision(self):
        spec = make_spec([0.3, 7.0, 1e-300])
        held = {}
        for dps in (40, 60, 50, 40):
            with mp.workdps(dps):
                const = held.setdefault(dps, _mp_constants(spec))
                assert _mp_constants(spec) is const
                _, cached_weights, cached_logs, cached_squares, power_logs = const
                logs = [mp.log(mp.mpf(v)) for v in spec.values]
                assert cached_weights == tuple(mp.mpf(w)._mpf_ for w in spec.weights), dps
                assert cached_logs == tuple(li._mpf_ for li in logs), dps
                assert cached_squares == tuple((li**2)._mpf_ for li in logs), dps
                # the logs mpmath's power takes: 10 more bits, raw
                prec, rnd = mp.mp._prec_rounding
                assert power_logs == tuple(mpf_log(mp.mpf(v)._mpf_, prec + 10, rnd) for v in spec.values), dps
        assert held[40][2][0] != held[60][2][0]

    def test_evicted_spec_gives_the_same_results(self, rng, random_spec):
        spec = make_spec(_values_from_tiny_to_huge(rng))
        p = mp.mpf("0.37")
        with mp.workdps(50):
            first = repr(self._terms(spec, p)), repr(_mp_lehmer(spec, p))
            held = _mp_constants(spec)
            for _ in range(20):
                _mp_terms(random_spec(rng), p._mpf_)
            assert _mp_constants(spec) is not held
            assert (repr(self._terms(spec, p)), repr(_mp_lehmer(spec, p))) == first
            assert first[0] == repr(self._direct(spec, p))


class TestPairClosedForm:
    def test_agrees_with_general_formula(self, rng):
        for _ in range(200):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)).tolist()
            spec = make_spec(values)
            p = float(rng.uniform(-10.0, 10.0))
            closed = second_derivative_n2(spec, p)
            general = second_derivative(spec, p, precision="extended")
            assert abs(closed - general) <= 1e-10 * max(abs(closed), abs(general)) + 1e-35

    def test_exact_zero_at_one(self, rng):
        for _ in range(50):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)).tolist()
            assert second_derivative_n2(make_spec(values), 1.0) == 0.0

    def test_equal_values_give_zero(self):
        assert second_derivative_n2(make_spec([2.0, 2.0]), 5.0) == 0.0

    def test_near_one(self):
        # log(a / a^p) must be one rounding of s (1 - p), and 1 - e^(-d) an
        # expm1: log1p(-e^(-d)) with e^(-d) rounded next to 1 leaves the
        # domain of log1p at this point
        spec = make_spec([1.0, 1.001])
        p = 1.000000000000001
        want = _second_derivative_mp(spec, p, 80)
        assert abs(second_derivative_n2(spec, p) - want) <= 1e-13 * abs(want)
        checked = 0
        for x in (0.1, 0.37, 1.0, 2.5, 9.99):
            for gap in (1e-6, 1e-5, 1e-4, 1e-2, 0.3, 3.0):
                y = x * (1.0 + gap) if x * (1.0 + gap) <= 10.0 else x / (1.0 + gap)
                for values in ([x, y], [y, x]):
                    spec = make_spec(values)
                    for k in range(1, 16):
                        for p in (1.0 - 10.0**-k, 1.0 + 10.0**-k):
                            want = _second_derivative_mp(spec, p, 80)
                            got = second_derivative_n2(spec, p)
                            assert abs(got - want) <= 1e-13 * abs(want), (values, p, got, want)
                            checked += 1
        assert checked == 5 * 6 * 2 * 15 * 2

    def test_requires_unweighted_pair(self):
        with pytest.raises(UsageError):
            second_derivative_n2(make_spec([1.0, 2.0, 3.0]), 1.0)
        with pytest.raises(UsageError):
            second_derivative_n2(make_spec([1.0, 2.0], [2.0, 1.0]), 1.0)


class TestTripleClosedForm:
    def test_constant_reference_values(self):
        assert k_constant(make_spec([1.0, 2.0, 3.0])) == pytest.approx(K_123, rel=1e-13)
        assert k_constant(make_spec(K_POSITIVE_TRIPLE)) == pytest.approx(K_POSITIVE, rel=1e-13)

    def test_constant_is_plain_float(self):
        assert type(k_constant(make_spec([1.0, 2.0, 3.0]))) is float

    @pytest.mark.parametrize(
        "values", [[1e-160, 1.0, 1e160], [1e200, 2e200, 3e200], [1e-200, 1e-150, 1e305], [1e-150, 1e150, 2e150]]
    )
    def test_constant_beyond_the_double_range_of_products(self, values):
        # x_i x_j, x_k^2 or their quotient leaves the double range; K's sign stays right
        spec = make_spec(values)
        with mp.workdps(60):
            x = [mp.mpf(v) for v in values]
            reference = mp.fsum(
                (x[i] - x[j]) * mp.log(x[i] / x[j]) * mp.log(x[i] * x[j] / (x[k] * x[k]))
                for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0))
            )
        k = k_constant(spec)
        assert mp.sign(reference) == math.copysign(1.0, k)
        if abs(reference) < sys.float_info.max:
            assert k == pytest.approx(float(reference), rel=1e-12)

    def test_constant_bit_identical_in_range(self, rng):
        # every product and quotient is a normal double: K is the plain formula
        for _ in range(300):
            x1, x2, x3 = np.exp(rng.uniform(-150.0, 150.0, 3) * rng.choice([1e-6, 1e-2, 1.0])).tolist()
            plain = math.fsum(
                (
                    (x1 - x2) * math.log(x1 / x2) * math.log(x1 * x2 / (x3 * x3)),
                    (x1 - x3) * math.log(x1 / x3) * math.log(x1 * x3 / (x2 * x2)),
                    (x2 - x3) * math.log(x2 / x3) * math.log(x2 * x3 / (x1 * x1)),
                )
            )
            assert k_constant(make_spec([x1, x2, x3])) == plain

    def test_scaled_curvature_at_one_equals_constant(self, rng):
        for _ in range(100):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3)).tolist()
            spec = make_spec(values)
            assert tilde_l(spec, 1.0) == k_constant(spec)

    def test_agrees_with_general_formula(self, rng):
        for _ in range(200):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3)).tolist()
            spec = make_spec(values)
            p = float(rng.uniform(-10.0, 10.0))
            closed = second_derivative_n3(spec, p)
            general = second_derivative(spec, p, precision="extended")
            assert abs(closed - general) <= 1e-10 * max(abs(closed), abs(general)) + 1e-35

    def test_scaled_curvature_strictly_decreasing(self, rng):
        for _ in range(100):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3)).tolist()
            spec = make_spec(values)
            p = float(rng.uniform(-10.0, 9.0))
            q = p + float(rng.uniform(0.1, 1.0))
            assert tilde_l(spec, q) < tilde_l(spec, p) + 1e-12

    def test_slope_nonpositive(self, rng):
        for _ in range(300):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3)).tolist()
            spec = make_spec(values)
            assert tilde_l_prime(spec, float(rng.uniform(-20.0, 20.0))) <= 1e-12

    def test_slope_of_near_equal_values(self, rng, monkeypatch):
        # log(x_i / x_j) of values an ulp apart keeps no digit in doubles: the
        # double sum was +1.16e-11 for the first case, against -2.554e-26.
        # Where the double sum is within its rounding bound, the slope is
        # taken again in mpmath and must have every digit of a double.
        retaken = []
        slope_mp = calculus._slope_mp
        monkeypatch.setattr(calculus, "_slope_mp", lambda spec, q: retaken.append(q) or slope_mp(spec, q))
        cases = [([7.0, 0.1, 0.10000000000000002], -19.0)]
        for _ in range(300):
            values = rng.uniform(0.1, 10.0, 3).tolist()
            values[2] = float(np.nextafter(values[1], 20.0)) if rng.random() < 0.5 else values[1] * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0))
            cases.append((values, float(rng.uniform(-20.0, 20.0))))
        checked = 0
        for values, p in cases:
            before = len(retaken)
            got = tilde_l_prime(make_spec(values), p)
            assert got < 0.0, (values, p, got)
            if len(retaken) > before:
                want = float(_mp_n3(values, p)[1][0])
                assert abs(got - want) <= 1e-12 * abs(want), (values, p, got, want)
                checked += 1
        assert retaken[0] == -20.0 and checked >= 5, checked

    def test_slope_matches_finite_difference(self, rng):
        h = 1e-6
        for _ in range(100):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3)).tolist()
            spec = make_spec(values)
            p = float(rng.uniform(-10.0, 10.0))
            slope = tilde_l_prime(spec, p)
            fd = (tilde_l(spec, p + h) - tilde_l(spec, p - h)) / (2.0 * h)
            if abs(slope) > 1e-4:
                assert fd == pytest.approx(slope, rel=1e-5)

    def test_requires_unweighted_triple(self):
        for fn in (k_constant, lambda s: tilde_l(s, 1.0), lambda s: tilde_l_prime(s, 1.0),
                   lambda s: second_derivative_n3(s, 1.0), lambda s: n3_inequalities(s, 1.0)):
            with pytest.raises(UsageError):
                fn(make_spec([1.0, 2.0]))
            with pytest.raises(UsageError):
                fn(make_spec([1.0, 2.0, 3.0], [1.0, 2.0, 1.0]))


def _plain_n3(values, p):
    """tilde_l, tilde_l' and the slacks with every quotient taken in doubles."""
    x1, x2, x3 = values
    q = p - 1.0
    log, fsum = math.log, math.fsum
    k = fsum(
        (
            (x1 - x2) * log(x1 / x2) * log(x1 * x2 / (x3 * x3)),
            (x1 - x3) * log(x1 / x3) * log(x1 * x3 / (x2 * x2)),
            (x2 - x3) * log(x2 / x3) * log(x2 * x3 / (x1 * x1)),
        )
    )
    t = fsum(
        (
            (pow(x2 / x3, q) - pow(x1 / x3, q)) * (x1 - x2) * log(x1 / x2) ** 2,
            (pow(x3 / x2, q) - pow(x1 / x2, q)) * (x1 - x3) * log(x1 / x3) ** 2,
            (pow(x3 / x1, q) - pow(x2 / x1, q)) * (x2 - x3) * log(x2 / x3) ** 2,
            k,
        )
    )
    g1 = log(x2 / x1) * log(x2 / x3) * (pow(x2 / x3, q) * (x1 - x2) * log(x2 / x1) + pow(x2 / x1, q) * (x2 - x3) * log(x3 / x2))
    g2 = log(x2 / x1) * log(x3 / x1) * (pow(x1 / x3, q) * (x1 - x2) * log(x2 / x1) + pow(x1 / x2, q) * (x1 - x3) * log(x3 / x1))
    g3 = log(x3 / x1) * log(x3 / x2) * (pow(x3 / x2, q) * (x1 - x3) * log(x3 / x1) + pow(x3 / x1, q) * (x2 - x3) * log(x3 / x2))
    lhs_a = pow(x2 / x3, q) * (x1 - x2) * log(x2 / x1) + pow(x2 / x1, q) * (x2 - x3) * log(x3 / x2)
    lhs_b = pow(x1 / x3, q) * (x1 - x2) * log(x2 / x1) + pow(x1 / x2, q) * (x1 - x3) * log(x3 / x1)
    lhs_c = pow(x3 / x2, q) * (x1 - x3) * log(x3 / x1) + pow(x3 / x1, q) * (x2 - x3) * log(x3 / x2)
    slacks = ((x1 - x3) * log(x1 / x3) - lhs_a, (x2 - x3) * log(x2 / x3) - lhs_b, (x1 - x2) * log(x1 / x2) - lhs_c)
    return (t, fsum((g1, g2, g3))) + slacks


def _mp_n3(values, p):
    """(value, size) at 80 digits of tilde_l, tilde_l' and each slack, where
    size is the sum of the absolute terms: the scale of the rounding."""
    with mp.workdps(80):
        x1, x2, x3 = (mp.mpf(v) for v in values)
        q = mp.mpf(p) - 1

        def lg(a, b):
            return mp.log(a / b)

        def pw(a, b):
            return mp.power(a / b, q)

        k_terms = [
            (x1 - x2) * lg(x1, x2) * lg(x1 * x2, x3 * x3),
            (x1 - x3) * lg(x1, x3) * lg(x1 * x3, x2 * x2),
            (x2 - x3) * lg(x2, x3) * lg(x2 * x3, x1 * x1),
        ]
        t_terms = k_terms + [
            (pw(x2, x3) - pw(x1, x3)) * (x1 - x2) * lg(x1, x2) ** 2,
            (pw(x3, x2) - pw(x1, x2)) * (x1 - x3) * lg(x1, x3) ** 2,
            (pw(x3, x1) - pw(x2, x1)) * (x2 - x3) * lg(x2, x3) ** 2,
        ]
        # tilde_l' and the slacks: every left side, term by term
        lhs = [
            [pw(x2, x3) * (x1 - x2) * lg(x2, x1), pw(x2, x1) * (x2 - x3) * lg(x3, x2)],
            [pw(x1, x3) * (x1 - x2) * lg(x2, x1), pw(x1, x2) * (x1 - x3) * lg(x3, x1)],
            [pw(x3, x2) * (x1 - x3) * lg(x3, x1), pw(x3, x1) * (x2 - x3) * lg(x3, x2)],
        ]
        weights = [lg(x2, x1) * lg(x2, x3), lg(x2, x1) * lg(x3, x1), lg(x3, x1) * lg(x3, x2)]
        g_terms = [w * t for w, terms in zip(weights, lhs) for t in terms]
        rhs = [(x1 - x3) * lg(x1, x3), (x2 - x3) * lg(x2, x3), (x1 - x2) * lg(x1, x2)]
        slacks = [[r] + [-t for t in terms] for r, terms in zip(rhs, lhs)]
        return [(mp.fsum(terms), mp.fsum(abs(t) for t in terms)) for terms in [t_terms, g_terms] + slacks]


def _n3_values(spec, p):
    return (tilde_l(spec, p), tilde_l_prime(spec, p)) + tuple(n3_inequalities(spec, p))


class TestTriplesBeyondTheDoubleRange:
    """tilde_l, tilde_l' and the slacks where a quotient x_i / x_j or a term
    leaves the double range."""

    @pytest.mark.parametrize(
        "values, p, expected",
        [
            ([1e-160, 1.0, 1e160], 0.999, 8.452682740272058e165),
            ([1e-160, 1.0, 1e160], 1.001, -8.934898624024435e164),
        ],
    )
    def test_quotient_past_the_double_range(self, values, p, expected):
        # the plain formula gives 9.102e165 and -inf: pow(inf, q) drops a term
        assert tilde_l(make_spec(values), p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [0.999, 1.0, 1.001])
    def test_value_past_the_double_range(self, p):
        # the plain formula raises ZeroDivisionError or ValueError here
        values = [1e-200, 1e-150, 1e305]
        got = _n3_values(make_spec(values), p)
        for g, (value, _) in zip(got, _mp_n3(values, p)):
            if abs(value) > sys.float_info.max:
                assert g == math.copysign(math.inf, value)
            else:
                assert g == pytest.approx(float(value), rel=1e-12)

    def test_bit_identical_in_range(self, rng):
        for _ in range(300):
            values = np.exp(rng.uniform(-10.0, 10.0, 3) * rng.choice([1e-6, 1e-2, 1.0])).tolist()
            p = float(rng.uniform(-20.0, 20.0))
            assert _n3_values(make_spec(values), p) == _plain_n3(values, p), (values, p)

    def test_against_80_digits(self, rng):
        tiny = sys.float_info.min
        beyond = 0
        for _ in range(300):
            values = (10.0 ** rng.uniform(-320.0, 308.0, 3)).tolist()
            if rng.random() < 0.3:
                values[1] = values[0] * float(rng.uniform(0.5, 2.0))
            spec = make_spec(values)
            spread = max(spec.log_values) - min(spec.log_values)
            p = 1.0 + float(rng.uniform(-1.0, 1.0)) * min(5.0, 600.0 / spread)
            for g, (value, size) in zip(_n3_values(spec, p), _mp_n3(values, p)):
                if abs(value) > sys.float_info.max:
                    assert g == math.copysign(math.inf, value), (values, p)
                    beyond += 1
                else:
                    assert math.isfinite(g), (values, p)
                    assert abs(g - float(value)) <= 1e-12 * float(size) + 2 * tiny * sys.float_info.epsilon, (values, p)
        assert beyond > 0

    def test_constant_still_the_value_at_one(self, rng):
        for _ in range(100):
            spec = make_spec((10.0 ** rng.uniform(-320.0, 308.0, 3)).tolist())
            assert tilde_l(spec, 1.0) == k_constant(spec)

    def test_powers_past_the_double_range(self, rng):
        # (x_i / x_j)^(p - 1) past the largest double: {1, 2, 3} at p = 700
        # raised OverflowError
        cases = [([1.0, 2.0, 3.0], p) for p in (700.0, -700.0, 1000.0, -1000.0)]
        for _ in range(100):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3)).tolist()
            spread = max(values) / min(values)
            cases.append((values, 1.0 + float(rng.choice([-1.0, 1.0]) * rng.uniform(710.0, 2000.0)) / math.log(spread)))
        finite = beyond = 0
        for values, p in cases:
            for g, (value, size) in zip(_n3_values(make_spec(values), p), _mp_n3(values, p)):
                if abs(value) > sys.float_info.max:
                    assert g == math.copysign(math.inf, value), (values, p)
                    beyond += 1
                else:
                    assert abs(g - float(value)) <= 1e-12 * float(size), (values, p)
                    finite += 1
        assert finite > 100 and beyond > 100

    @pytest.mark.parametrize("p", [700.0, -700.0, 1000.0, -1000.0])
    def test_curvature_at_large_p(self, p):
        # the prefactor underflows and tilde_l overflows; their logs do not
        spec = make_spec([1.0, 2.0, 3.0])
        assert second_derivative_n3(spec, p) == pytest.approx(second_derivative(spec, p), rel=1e-9)


class TestInequalities:
    def test_slacks_nonnegative(self, rng):
        for _ in range(500):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3)).tolist()
            slacks = n3_inequalities(make_spec(values), float(rng.uniform(-20.0, 20.0)))
            assert min(slacks) >= -1e-12, (values, slacks)

    def test_named_fields(self):
        slacks = n3_inequalities(make_spec([1.0, 2.0, 3.0]), 0.5)
        assert slacks.slack_a >= -1e-12
        assert slacks.slack_b >= -1e-12
        assert slacks.slack_c >= -1e-12


class TestFiniteDifferenceOracle:
    def test_double_path_reasonable(self):
        spec = make_spec([1.0, 3.0])
        got = fd_second_derivative(spec, 3.0, h=1e-4)
        want = second_derivative(spec, 3.0)
        assert got == pytest.approx(want, rel=1e-5)

    def test_extended_path_tracks_small_curvature(self, rng, random_spec):
        for _ in range(30):
            spec = random_spec(rng)
            p = float(rng.uniform(-5.0, 5.0))
            oracle = fd_second_derivative(spec, p, h=1e-6, dps=40)
            d2 = second_derivative(spec, p, precision="extended")
            assert abs(d2 - oracle) <= max(1e-6 * abs(oracle), 1e-12)

    def test_step_validation(self):
        with pytest.raises(UsageError):
            fd_second_derivative(make_spec([1.0, 2.0]), 1.0, h=0.0)
        with pytest.raises(UsageError):
            fd_second_derivative(make_spec([1.0, 2.0]), 1.0, h=-1e-4)
