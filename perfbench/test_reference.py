"""Fast checks of the reference module against closed forms.

    python3 -m pytest perfbench/test_reference.py
"""

import math

import mpmath as mp
import pytest

import reference as ref

VALUES = (0.5, 2.5, 4.0)
WEIGHTS = (1.0, 2.0, 0.5)


def test_l0_is_the_harmonic_mean():
    lam = ref.derivatives(VALUES, WEIGHTS, 0.0)[0]
    harmonic = sum(WEIGHTS) / sum(w / x for x, w in zip(VALUES, WEIGHTS))
    assert float(lam) == pytest.approx(harmonic, rel=1e-15)


def test_l1_is_the_arithmetic_mean():
    lam = ref.derivatives(VALUES, WEIGHTS, 1.0)[0]
    arithmetic = sum(x * w for x, w in zip(VALUES, WEIGHTS)) / sum(WEIGHTS)
    assert float(lam) == pytest.approx(arithmetic, rel=1e-15)


def test_unit_pair_inflects_at_one():
    pair = (0.5, 2.5)
    _, _, d2, _, err2 = ref.derivatives(pair, None, 1.0)
    assert abs(d2) <= err2
    assert ref.second_derivative_sign(pair, None, 1.0 - 1e-6) == 1
    assert ref.second_derivative_sign(pair, None, 1.0 + 1e-6) == -1


def test_first_derivative_matches_a_central_difference():
    h = mp.mpf("1e-20")
    with mp.workdps(80):
        lo = ref.derivatives(VALUES, WEIGHTS, 0.5 - h, 80)[0]
        hi = ref.derivatives(VALUES, WEIGHTS, 0.5 + h, 80)[0]
        d1 = ref.derivatives(VALUES, WEIGHTS, 0.5, 80)[1]
        assert abs((hi - lo) / (2 * h) - d1) < mp.mpf("1e-30")


def test_weighted_pair_root_is_a_sign_change():
    x, w = (0.5, 2.5), (1.0, 3.0)
    root = float(ref.weighted_pair_root(*x, *w))
    assert root == pytest.approx(1.0 - math.log(1.0 / 3.0) / math.log(0.5 / 2.5))
    assert ref.second_derivative_sign(x, w, root - 1e-6) == 1
    assert ref.second_derivative_sign(x, w, root + 1e-6) == -1


def test_k_sign_is_the_curvature_sign_at_one():
    for triple in ((1.0, 2.0, 3.0), (0.3, 0.5, 7.0), (1.0, 1.0001, 1.0002)):
        k = ref.k_constant(*triple)
        assert int(mp.sign(k)) == ref.second_derivative_sign(triple, None, 1.0)
    assert float(ref.k_constant(1.0, 2.0, 3.0)) == pytest.approx(-0.948153180075108, rel=1e-12)


def test_count_bound():
    assert [ref.count_bound(n) for n in (2, 3, 4, 5)] == [1, 5, 15, 29]
