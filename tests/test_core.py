"""Mean evaluation: construction, identities, bounds, stability."""

import math

import numpy as np
import pytest

from lehmer import (
    DomainError,
    InvalidSpecError,
    MeanSpec,
    asymptotes,
    lehmer,
    make_spec,
    merge_equal_values,
    scale_spec,
)


class TestMakeSpec:
    def test_values_coerced_to_floats(self):
        spec = make_spec([1, 2, 3])
        assert spec.values == (1.0, 2.0, 3.0)
        assert all(isinstance(v, float) for v in spec.values)

    def test_default_weights_are_unit(self):
        spec = make_spec([1.5, 2.5])
        assert spec.weights == (1.0, 1.0)
        assert spec.has_unit_weights

    def test_zero_values_dropped_with_their_weights(self):
        spec = make_spec([0.0, 1.0, 0.0, 2.0], [5.0, 3.0, 7.0, 4.0])
        assert spec.values == (1.0, 2.0)
        assert spec.weights == (3.0, 4.0)

    def test_all_zero_values_rejected(self):
        with pytest.raises(InvalidSpecError):
            make_spec([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidSpecError):
            make_spec([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidSpecError):
            make_spec([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_value_rejected(self, bad):
        with pytest.raises(DomainError):
            make_spec([1.0, bad])

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf")])
    def test_bad_weight_rejected(self, bad):
        with pytest.raises(DomainError):
            make_spec([1.0, 2.0], [1.0, bad])

    def test_single_value_is_constant(self):
        spec = make_spec([3.0])
        assert spec.n == 1
        assert spec.is_constant

    def test_equal_values_are_constant(self):
        assert make_spec([2.0, 2.0, 2.0]).is_constant
        assert not make_spec([2.0, 2.0001]).is_constant


class TestEvaluation:
    def test_arithmetic_mean_at_one(self):
        assert float(lehmer(make_spec([1.0, 2.0, 3.0]), 1.0)) == pytest.approx(2.0, rel=1e-15)

    def test_harmonic_mean_at_zero(self):
        # 3 / (1/1 + 1/2 + 1/3) = 18/11
        assert float(lehmer(make_spec([1.0, 2.0, 3.0]), 0.0)) == pytest.approx(18.0 / 11.0, rel=1e-15)

    def test_contraharmonic_at_two(self):
        assert float(lehmer(make_spec([1.0, 2.0, 3.0]), 2.0)) == pytest.approx(14.0 / 6.0, rel=1e-15)

    def test_weighted_arithmetic(self):
        spec = make_spec([0.5, 2.5], [2.0, 1.0])
        assert float(lehmer(spec, 1.0)) == pytest.approx(3.5 / 3.0, rel=1e-15)

    def test_pair_midpoint(self):
        assert float(lehmer(make_spec([0.5, 2.5]), 1.0)) == 1.5

    def test_returns_plain_float(self):
        assert type(lehmer(make_spec([1.0, 4.0]), 2.0)) is float

    def test_constant_spec_is_flat(self):
        spec = make_spec([3.0, 3.0], [1.0, 5.0])
        for p in (-1e6, -7.0, 0.0, 1.0, 13.0, 1e6):
            assert float(lehmer(spec, p)) == 3.0

    def test_non_finite_exponent_rejected(self):
        with pytest.raises(DomainError):
            lehmer(make_spec([1.0, 2.0]), float("nan"))
        with pytest.raises(DomainError):
            lehmer(make_spec([1.0, 2.0]), float("inf"))

    def test_extreme_exponents_no_overflow(self):
        spec = make_spec([0.1, 5.0, 10.0])
        assert float(lehmer(spec, 1e6)) == 10.0
        assert float(lehmer(spec, -1e6)) == 0.1

    def test_monotone_in_p(self, rng, random_spec):
        for _ in range(100):
            spec = random_spec(rng, weighted=bool(rng.integers(0, 2)))
            p = float(rng.uniform(-30.0, 25.0))
            q = p + float(rng.uniform(0.1, 10.0))
            lp, lq = float(lehmer(spec, p)), float(lehmer(spec, q))
            assert lq >= lp - 1e-12 * max(lp, lq), f"{spec.values} at {p} vs {q}"

    def test_bounded_by_extremes(self, rng, random_spec):
        for _ in range(100):
            spec = random_spec(rng, weighted=True)
            lo, hi = asymptotes(spec)
            value = float(lehmer(spec, float(rng.uniform(-50.0, 50.0))))
            assert lo <= value <= hi


class TestAsymptotes:
    def test_limits_are_extremes(self):
        lo, hi = asymptotes(make_spec([2.0, 7.0, 0.3]))
        assert (lo, hi) == (0.3, 7.0)

    def test_approach_at_large_p(self):
        spec = make_spec([0.5, 1.0, 2.0])
        lo, hi = asymptotes(spec)
        assert abs(float(lehmer(spec, 100.0)) - hi) < 1e-6
        assert abs(float(lehmer(spec, -100.0)) - lo) < 1e-6


class TestTransforms:
    def test_scale_spec_homogeneous(self, rng, random_spec):
        for _ in range(50):
            spec = random_spec(rng, weighted=True)
            c = float(rng.uniform(0.01, 100.0))
            p = float(rng.uniform(-20.0, 20.0))
            direct = float(lehmer(scale_spec(spec, c), p))
            assert direct == pytest.approx(c * float(lehmer(spec, p)), rel=1e-12)

    def test_scale_spec_rejects_bad_factor(self):
        spec = make_spec([1.0, 2.0])
        for c in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                scale_spec(spec, c)

    def test_merge_equal_values_sums_weights(self):
        spec = make_spec([2.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        merged = merge_equal_values(spec)
        assert merged.values == (2.0, 1.0)  # first-occurrence order
        assert merged.weights == (4.0, 2.0)

    def test_merge_preserves_mean(self, rng):
        values = [1.0, 3.0, 1.0, 3.0, 2.0]
        weights = [1.0, 2.0, 0.5, 1.5, 1.0]
        spec = make_spec(values, weights)
        merged = merge_equal_values(spec)
        for p in (-5.0, 0.0, 1.0, 4.0):
            assert float(lehmer(merged, p)) == pytest.approx(float(lehmer(spec, p)), rel=1e-14)

    def test_spec_is_immutable(self):
        spec = make_spec([1.0, 2.0])
        with pytest.raises(AttributeError):
            spec.values = (3.0, 4.0)
