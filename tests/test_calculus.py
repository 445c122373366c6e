"""Derivatives in the exponent: log-moments, closed forms, inequalities."""

import math

import mpmath as mp
import numpy as np
import pytest

from lehmer import (
    LogMoment,
    UsageError,
    fd_second_derivative,
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
from lehmer.calculus import _EXTENDED_DPS, _mp_lehmer, _second_derivative_mp

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
    """50-digit L'' from four separately computed log-moments and L."""
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
            return 0.0
        return float(_mp_lehmer(spec, pm) * bracket)


class TestExtendedBracket:
    """The 50-digit path shares its powers and logs and still rounds the same."""

    def test_one_pass_is_bit_identical(self, rng, random_spec):
        checked = 0
        for _ in range(40):
            spec = random_spec(rng, n=int(rng.integers(2, 6)), weighted=bool(rng.random() < 0.4))
            big = float(rng.choice([-1.0, 1.0]) * rng.uniform(100.0, 1000.0))
            for p in (1.0, 0.0, float(rng.integers(-20, 21)), float(rng.uniform(-30.0, 30.0)), big):
                assert _second_derivative_mp(spec, p).hex() == _separate_moments_l2(spec, p).hex(), (spec, p)
                checked += 1
        assert checked == 200


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
