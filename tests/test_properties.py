"""Property-based invariants over randomized inputs."""

import math

from hypothesis import assume, example, given, settings, strategies as st

from lehmer import (
    calculus,
    count_bound,
    first_derivative,
    lehmer,
    log_moment,
    make_spec,
    n3_inequalities,
    scale_spec,
    second_derivative,
    second_derivative_n2,
    tilde_l_prime,
    weighted_n2_inflection,
)

values_st = st.lists(
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=6,
)
weights_st = st.floats(min_value=0.5, max_value=2.0, allow_nan=False, allow_infinity=False)
p_st = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False)


@given(values_st, p_st, p_st)
@settings(max_examples=200, deadline=None)
def test_monotone_in_exponent(values, p, q):
    spec = make_spec(values)
    lo, hi = sorted((p, q))
    assert float(lehmer(spec, lo)) <= float(lehmer(spec, hi)) + 1e-12


@given(values_st, p_st)
@settings(max_examples=200, deadline=None)
def test_bounded_by_extremes(values, p):
    spec = make_spec(values)
    value = float(lehmer(spec, p))
    assert min(values) <= value <= max(values)


@given(values_st, p_st, st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_homogeneous_degree_one(values, p, factor):
    spec = make_spec(values)
    scaled = scale_spec(spec, factor)
    a = factor * float(lehmer(spec, p))
    b = float(lehmer(scaled, p))
    assert math.isclose(a, b, rel_tol=1e-12)


@given(values_st, p_st)
@settings(max_examples=200, deadline=None)
def test_first_derivative_nonnegative(values, p):
    spec = make_spec(values)
    assert first_derivative(spec, p) >= 0.0


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    p_st,
)
@example(1.0, 0.99609375, 0.99999)  # log1p(-exp(-d)) lost digits here
@settings(max_examples=200, deadline=None)
def test_pair_closed_form_matches_general(x1, x2, p):
    assume(abs(x1 - x2) > 1e-6 * max(x1, x2))
    spec = make_spec([x1, x2])
    closed = second_derivative_n2(spec, p)
    general = second_derivative(spec, p, precision="extended")
    assert math.isclose(closed, general, rel_tol=1e-9, abs_tol=1e-30)


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    p_st,
)
@example(7.0, 0.1, 0.10000000000000002, -19.0)  # the double sum was +1.16e-11 here
@settings(max_examples=200, deadline=None)
def test_triple_inequalities_and_slope(x1, x2, x3, p):
    spec = make_spec([x1, x2, x3])
    assume(spec.n == 3)
    slacks = n3_inequalities(spec, p)
    assert slacks.slack_a >= -1e-12
    assert slacks.slack_b >= -1e-12
    assert slacks.slack_c >= -1e-12
    assert tilde_l_prime(spec, p) <= 1e-12


@given(st.integers(min_value=2, max_value=100))
@settings(max_examples=99, deadline=None)
def test_count_bound_odd_and_strictly_below_terms(n):
    bound = count_bound(n)
    assert bound.j % 2 == 1
    assert bound.j < bound.n_terms


@given(values_st, p_st)
@settings(max_examples=100, deadline=None)
def test_zeroth_log_moment_is_one(values, p):
    assert log_moment(make_spec(values), p, 0) == 1.0


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    weights_st,
    weights_st,
)
@settings(max_examples=200, deadline=None)
def test_weighted_pair_inflection_hits_midpoint(x1, x2, w1, w2):
    assume(abs(x1 - x2) > 1e-3 * max(x1, x2))
    spec = make_spec([x1, x2], [w1, w2])
    p_star = weighted_n2_inflection(spec)
    midpoint = (x1 + x2) / 2.0
    assert math.isclose(float(lehmer(spec, p_star)), midpoint, rel_tol=1e-9)


@given(
    values_st,
    st.one_of(st.none(), st.lists(st.one_of(st.just(1.0), weights_st), min_size=6, max_size=6)),
    st.one_of(st.just(1.0), p_st),
)
@example([0.5, 2.5], None, 1.0)
@example([0.5, 2.5], [2.0] * 6, 1.0)
@example([0.5, 2.5, 0.5], None, 1.0)
@settings(max_examples=300, deadline=None)
def test_pairwise_size_is_zero_only_for_an_equal_weight_pair_at_one(values, weights, p):
    # there L''(1) = 0 exactly, and second_derivative gives 0.0 without 50 digits
    spec = make_spec(values, None if weights is None else weights[: len(values)])
    parts = calculus._pairwise_parts(spec, p)
    if parts is not None and parts[1] == 0.0:
        assert spec.n == 2 and spec.weights[0] == spec.weights[1] and p == 1.0, (values, weights, p)
        assert spec.values[0] != spec.values[1] and parts[0] == 0.0
