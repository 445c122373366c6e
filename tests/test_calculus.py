"""Derivatives in the exponent: log-moments, closed forms, inequalities."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from lehmer import (
    LogMoment,
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
from lehmer import calculus
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

    def test_record_type_carries_inputs(self):
        m = LogMoment.compute(make_spec([2.0, 8.0]), 0.5, 2)
        assert m.p == 0.5 and m.k == 2
        assert float(m) == m.value


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
        k = k_constant(spec).k
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


def _separate_moments_l2(spec, p, dps=_EXTENDED_DPS):
    """50-digit L'' from four separately computed log-moments and L, or None
    where the bracket cancels below the working precision."""
    with mp.workdps(dps):
        pm = mp.mpf(p)

        def moment(q, k):
            u = [mp.mpf(w) * mp.power(mp.mpf(v), q) for v, w in zip(spec.values, spec.weights)]
            logs = [mp.log(mp.mpf(v)) for v in spec.values]
            return mp.fsum(ui * li**k for ui, li in zip(u, logs)) / mp.fsum(u)

        m1p, m1q = moment(pm, 1), moment(pm - 1, 1)
        m2p, m2q = moment(pm, 2), moment(pm - 1, 2)
        bracket = m2p - m2q - 2 * m1q * (m1p - m1q)
        scale = max(abs(m2p), abs(m2q), abs(2 * m1q * m1p), abs(2 * m1q * m1q))
        if abs(bracket) < mp.mpf(10) ** (8 - dps) * scale:
            return None
        return float(_mp_lehmer(spec, pm) * bracket)


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
    """L'' in doubles from the pairwise form, or None where it keeps under ten digits.

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
            own = abs(r[i][j]) * (abs(diff) * (ulps[big] + 1.0) + v[small] * (abs(qr) + abs(lw[i]) + abs(lw[j])))
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
        return None
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
    if precision == "auto" and scale > 0.0 and abs(bracket) < _CANCELLATION_LIMIT * scale:
        value = _ref_pairwise_second_derivative(spec, p)
        if value is None:
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
                    bracket, scale = calculus._mp_bracket(spec, mp.mpf(p))
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

    def test_equal_to_mp_power(self, rng):
        spec = make_spec(_values_from_tiny_to_huge(rng), np.exp(rng.uniform(-3.0, 3.0, 8)).tolist())
        # alternate the precision between calls: each call must use the constants of its own
        for text in self.EXPONENTS:
            for dps in (40, 50, 60, 50):
                with mp.workdps(dps):
                    p = mp.mpf(text)
                    assert repr(_mp_terms(spec, p)) == repr(self._direct(spec, p)), (text, dps)
                    assert repr(_mp_terms(spec, p - 1)) == repr(self._direct(spec, p - 1)), (text, dps)

    def test_keyed_on_precision(self):
        spec = make_spec([0.3, 7.0, 1e-300])
        held = {}
        for dps in (40, 60, 50, 40):
            with mp.workdps(dps):
                const = held.setdefault(dps, _mp_constants(spec))
                assert _mp_constants(spec) is const
                _, _, cached_logs, cached_squares = const
                logs = [mp.log(mp.mpf(v)) for v in spec.values]
                assert repr(cached_logs) == repr(tuple(logs)), dps
                assert repr(cached_squares) == repr(tuple(li**2 for li in logs)), dps
        assert held[40][2][0] != held[60][2][0]

    def test_evicted_spec_gives_the_same_results(self, rng, random_spec):
        spec = make_spec(_values_from_tiny_to_huge(rng))
        p = mp.mpf("0.37")
        with mp.workdps(50):
            first = repr(_mp_terms(spec, p)), repr(_mp_lehmer(spec, p))
            held = _mp_constants(spec)
            for _ in range(20):
                _mp_terms(random_spec(rng), p)
            assert _mp_constants(spec) is not held
            assert (repr(_mp_terms(spec, p)), repr(_mp_lehmer(spec, p))) == first
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

    def test_requires_unweighted_pair(self):
        with pytest.raises(UsageError):
            second_derivative_n2(make_spec([1.0, 2.0, 3.0]), 1.0)
        with pytest.raises(UsageError):
            second_derivative_n2(make_spec([1.0, 2.0], [2.0, 1.0]), 1.0)


class TestTripleClosedForm:
    def test_constant_reference_values(self):
        assert k_constant(make_spec([1.0, 2.0, 3.0])).k == pytest.approx(K_123, rel=1e-13)
        assert k_constant(make_spec(K_POSITIVE_TRIPLE)).k == pytest.approx(K_POSITIVE, rel=1e-13)

    def test_constant_is_float_like(self):
        k = k_constant(make_spec([1.0, 2.0, 3.0]))
        assert float(k) == k.k

    def test_scaled_curvature_at_one_equals_constant(self, rng):
        for _ in range(100):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3)).tolist()
            spec = make_spec(values)
            assert tilde_l(spec, 1.0) == k_constant(spec).k

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
