"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
"[criterion N] PASS/FAIL" line directly to the terminal, then asserts.
Random draws use fixed seeds so reruns are bit-identical.
"""

import math
import time

import numpy as np
import pytest

from lehmer import (
    LogUniform,
    SearchConfig,
    classify_n3_side,
    count_bound,
    fd_second_derivative,
    find_inflections,
    k_constant,
    lehmer,
    log_moment,
    make_spec,
    n3_inequalities,
    search_multi_inflection,
    second_derivative,
    second_derivative_n2,
    second_derivative_n3,
    tilde_l_prime,
)

_SEED = 20260817


@pytest.fixture
def report(capsys):
    def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {name}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def _rng(criterion: int) -> np.random.Generator:
    return np.random.default_rng((_SEED, criterion))


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n)).tolist()


def test_criterion_1_unit_pair_root_at_one(report):
    rng = _rng(1)
    start = time.perf_counter()
    worst = 0.0
    bad = 0
    for _ in range(1000):
        values = _log_uniform(rng, 0.1, 10.0, 2)
        while values[0] == values[1]:
            values = _log_uniform(rng, 0.1, 10.0, 2)
        rep = find_inflections(make_spec(values))
        if len(rep.roots) != 1:
            bad += 1
            continue
        worst = max(worst, abs(rep.roots[0].p_star - 1.0))
    elapsed = time.perf_counter() - start
    ok = bad == 0 and worst <= 1e-8 and elapsed <= 10.0
    report(1, "1000 unit-weight pairs inflect exactly at p = 1",
           ok, f"worst |p*-1| = {worst:.3g}, {elapsed:.2f}s")


def test_criterion_2_weighted_pair_closed_form(report):
    rng = _rng(2)
    worst_root = 0.0
    worst_mean = 0.0
    for _ in range(200):
        x1, x2 = _log_uniform(rng, 0.1, 10.0, 2)
        while x1 == x2:
            x1, x2 = _log_uniform(rng, 0.1, 10.0, 2)
        w1, w2 = rng.uniform(0.5, 2.0, 2).tolist()
        spec = make_spec([x1, x2], [w1, w2])
        closed = 1.0 - math.log(w1 / w2) / math.log(x1 / x2)
        rep = find_inflections(spec)
        assert len(rep.roots) == 1
        worst_root = max(worst_root, abs(rep.roots[0].p_star - closed))
        midpoint = (x1 + x2) / 2.0
        worst_mean = max(worst_mean, abs(float(lehmer(spec, closed)) - midpoint) / midpoint)
    ok = worst_root <= 1e-8 and worst_mean <= 1e-10
    report(2, "200 weighted pairs match the closed form and halve the sum",
           ok, f"worst root err {worst_root:.3g}, worst mean rel err {worst_mean:.3g}")


def test_criterion_3_reference_triple(report):
    spec = make_spec([1.0, 2.0, 3.0])
    rep = find_inflections(spec)
    k = k_constant(spec)
    ok = (
        len(rep.roots) == 1
        and abs(rep.roots[0].p_star - 0.707) <= 5e-3
        and abs(k - (-0.94)) <= 0.01
        and classify_n3_side(spec) == "below_one"
    )
    detail = f"p* = {rep.roots[0].p_star:.6f}, K = {k:.6f}" if rep.roots else "no roots"
    report(3, "{1,2,3} has one inflection near 0.707 with K near -0.94", ok, detail)


def test_criterion_4_triple_uniqueness_and_side(report):
    rng = _rng(4)
    start = time.perf_counter()
    bad = 0
    negative_k = 0
    for _ in range(1000):
        values = _log_uniform(rng, 0.1, 10.0, 3)
        while len(set(values)) < 3:
            values = _log_uniform(rng, 0.1, 10.0, 3)
        spec = make_spec(values)
        rep = find_inflections(spec)
        k = k_constant(spec)
        if k < 0.0:
            negative_k += 1
        side_ok = (k < 0.0 and rep.roots[0].p_star < 1.0) or (k > 0.0 and rep.roots[0].p_star > 1.0)
        if len(rep.roots) != 1 or not side_ok:
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed <= 60.0
    report(4, "1000 distinct triples give one root on the side sign(K) predicts",
           ok, f"{negative_k} with K < 0, {elapsed:.2f}s")


def test_criterion_5_three_root_instance(report):
    start = time.perf_counter()
    spec = make_spec([1.0259, 1.0241, 1.0244, 0.96])
    rep = find_inflections(spec)
    expected = (-15.8075, 203.9186, 401.3897)
    roots_ok = len(rep.roots) == 3 and all(
        abs(r.p_star - e) <= 0.5 for r, e in zip(rep.roots, expected)
    )
    interior_max = 0.0
    if roots_ok:
        lo, hi = rep.roots[1].p_star, rep.roots[2].p_star
        for p in np.linspace(lo, hi, 2003)[1:-1]:
            interior_max = max(interior_max, abs(second_derivative(spec, float(p))))
    elapsed = time.perf_counter() - start
    scale_ok = 1e-11 <= interior_max <= 1e-8
    ok = roots_ok and scale_ok and elapsed <= 30.0
    found = ", ".join(f"{r.p_star:.4f}" for r in rep.roots)
    report(5, "the four-value instance has three roots at the published curvature scale",
           ok, f"roots [{found}], interior max |L''| = {interior_max:.3g}, {elapsed:.2f}s")


def test_criterion_6_count_bound_values(report):
    ok = (
        count_bound(2).j == 1
        and count_bound(3).j == 5
        and count_bound(4).j == 15
        and all(count_bound(n).j % 2 == 1 for n in range(2, 101))
    )
    report(6, "count bound gives J = 1, 5, 15 and stays odd", ok)


def test_criterion_7_parity(report):
    rng = _rng(7)
    terminated = 0
    odd = 0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        values = _log_uniform(rng, 0.5, 2.0, n)
        rep = find_inflections(make_spec(values))
        terminated += 1
        if len(rep.roots) % 2 == 1:
            odd += 1
    ok = terminated == 500 and odd == terminated
    report(7, "500 random specs all report an odd root count",
           ok, f"{odd}/{terminated} odd")


def test_criterion_8_derivative_oracles(report):
    rng = _rng(8)
    worst_fd = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        values = _log_uniform(rng, 0.1, 10.0, n)
        weights = rng.uniform(0.5, 2.0, n).tolist() if rng.random() < 0.5 else None
        spec = make_spec(values, weights)
        p = float(rng.uniform(-10.0, 10.0))
        value = second_derivative(spec, p)
        oracle = fd_second_derivative(spec, p, h=1e-6, dps=40)
        tol = max(1e-5 * abs(oracle), 1e-8)
        worst_fd = max(worst_fd, abs(value - oracle) / tol)

    worst_closed = 0.0
    for _ in range(2000):
        values = _log_uniform(rng, 0.1, 10.0, 2)
        while values[0] == values[1]:
            values = _log_uniform(rng, 0.1, 10.0, 2)
        spec = make_spec(values)
        p = float(rng.uniform(-10.0, 10.0))
        a = second_derivative_n2(spec, p)
        b = second_derivative(spec, p, precision="extended")
        tol = 1e-10 * max(abs(a), abs(b)) + 1e-35
        worst_closed = max(worst_closed, abs(a - b) / tol)
    for _ in range(2000):
        values = _log_uniform(rng, 0.1, 10.0, 3)
        while len(set(values)) < 3:
            values = _log_uniform(rng, 0.1, 10.0, 3)
        spec = make_spec(values)
        p = float(rng.uniform(-10.0, 10.0))
        a = second_derivative_n3(spec, p)
        b = second_derivative(spec, p, precision="extended")
        tol = 1e-10 * max(abs(a), abs(b)) + 1e-35
        worst_closed = max(worst_closed, abs(a - b) / tol)

    ok = worst_fd <= 1.0 and worst_closed <= 1.0
    report(8, "analytic curvature agrees with finite differences and closed forms",
           ok, f"worst fd ratio {worst_fd:.3g}, worst closed ratio {worst_closed:.3g}")


def test_criterion_9_inequality_suites(report):
    rng = _rng(9)
    worst_slack = math.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        values = _log_uniform(rng, 0.1, 10.0, n)
        weights = rng.uniform(0.5, 2.0, n).tolist() if rng.random() < 0.5 else None
        spec = make_spec(values, weights)
        p = float(rng.uniform(-20.0, 20.0))
        worst_slack = min(worst_slack, log_moment(spec, p, 1) - log_moment(spec, p - 1, 1))

    worst_triple = math.inf
    worst_slope = -math.inf
    for _ in range(10_000):
        values = _log_uniform(rng, 0.1, 10.0, 3)
        while len(set(values)) < 3:
            values = _log_uniform(rng, 0.1, 10.0, 3)
        spec = make_spec(values)
        p = float(rng.uniform(-20.0, 20.0))
        worst_triple = min(worst_triple, min(n3_inequalities(spec, p)))
        worst_slope = max(worst_slope, tilde_l_prime(spec, p))

    ok = worst_slack >= -1e-12 and worst_triple >= -1e-12 and worst_slope <= 1e-12
    report(9, "moment and triple inequalities hold with nonnegative slack",
           ok, f"worst slacks {worst_slack:.3g} / {worst_triple:.3g}, worst slope {worst_slope:.3g}")


def test_criterion_10_negative_search_controls(report):
    hits_n2 = search_multi_inflection(SearchConfig(
        n=2, trials=10_000, seed=_SEED, min_roots=2, values=LogUniform(0.5, 2.0)))
    hits_n3 = search_multi_inflection(SearchConfig(
        n=3, trials=10_000, seed=_SEED + 1, min_roots=2, values=LogUniform(0.5, 2.0)))
    ok = hits_n2 == [] and hits_n3 == []
    report(10, "10000-trial searches find no extra roots for pairs or triples",
           ok, f"{len(hits_n2)} + {len(hits_n3)} hits")
