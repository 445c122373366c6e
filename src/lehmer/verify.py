"""Randomized self-checks of the library's mathematical guarantees.

Each check draws fresh instances from a seeded generator and tests one
documented property. These are the same properties the test suite pins
down; here they are runnable from the command line against any seed.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calculus import (
    fd_second_derivative,
    first_derivative,
    k_constant,
    n3_inequalities,
    second_derivative,
    second_derivative_n2,
    second_derivative_n3,
    tilde_l,
    tilde_l_prime,
)
from .core import MeanSpec, asymptotes, lehmer, make_spec, scale_spec
from .errors import UsageError
from .inflection import (
    InflectionReport,
    _scan_many,
    classify_n3_side,
    count_bound,
    find_inflections,
    weighted_n2_inflection,
)
from .search import LogUniform, SearchConfig, search_multi_inflection


__all__ = ["CheckResult", "available_scopes", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    samples: int
    detail: str = ""


# frozen reference values, independently cross-checked at 60 digits
_K_123 = -0.948153180075108
_P_STAR_123 = 0.7077750011119827
_FIG3_VALUES = (1.0259, 1.0241, 1.0244, 0.96)
_FIG3_ROOTS = (-15.80746359940527, 203.918544293744, 401.3896861793917)


def _random_spec(rng: np.random.Generator, n: int | None = None, weighted: bool | None = None) -> MeanSpec:
    if n is None:
        n = int(rng.integers(2, 7))
    values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
    if weighted is None:
        weighted = bool(rng.integers(0, 2))
    weights = rng.uniform(0.5, 2.0, n).tolist() if weighted else None
    return make_spec(values.tolist(), weights)


def _random_triple(rng: np.random.Generator) -> MeanSpec:
    values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3))
    return make_spec(values.tolist())


def _fail(name: str, samples: int, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=False, samples=samples, detail=detail)


def _ok(name: str, samples: int) -> CheckResult:
    return CheckResult(name=name, passed=True, samples=samples)


def _scanned(specs: list[MeanSpec]):
    """The reports of find_inflections on specs, scanned together, in order;
    raises where find_inflections would, once the reports before it are used."""
    for outcome in _scan_many(specs):
        if not isinstance(outcome, InflectionReport):
            raise outcome
        yield outcome


def check_monotonicity(rng: np.random.Generator, samples: int) -> CheckResult:
    name = "monotonicity"
    for _ in range(samples):
        spec = _random_spec(rng)
        p = float(rng.uniform(-30.0, 25.0))
        q = p + float(rng.uniform(0.5, 10.0))
        lp = float(lehmer(spec, p))
        lq = float(lehmer(spec, q))
        if lq - lp < -1e-12 * max(abs(lp), abs(lq)):
            return _fail(name, samples, f"L decreased: values={spec.values} p={p} q={q} L(p)={lp} L(q)={lq}")
    return _ok(name, samples)


def check_core(rng: np.random.Generator, samples: int) -> CheckResult:
    name = "core"
    for _ in range(samples):
        spec = _random_spec(rng)
        p = float(rng.uniform(-20.0, 20.0))

        value = float(lehmer(spec, p))
        lo, hi = asymptotes(spec)
        if not (lo <= value <= hi):
            return _fail(name, samples, f"bounding violated: values={spec.values} p={p} L={value}")

        c = float(rng.uniform(0.1, 10.0))
        scaled = float(lehmer(scale_spec(spec, c), p))
        if abs(scaled - c * value) > 1e-12 * abs(c * value):
            return _fail(name, samples, f"homogeneity violated: values={spec.values} c={c} p={p}")

        w = np.asarray(spec.weights)
        x = np.asarray(spec.values)
        arith = float(np.sum(w * x) / np.sum(w))
        harm = float(np.sum(w) / np.sum(w / x))
        if abs(float(lehmer(spec, 1.0)) - arith) > 1e-12 * arith:
            return _fail(name, samples, f"arithmetic identity violated: values={spec.values}")
        if abs(float(lehmer(spec, 0.0)) - harm) > 1e-12 * harm:
            return _fail(name, samples, f"harmonic identity violated: values={spec.values}")

        # convergence toward an asymptote is governed by the log gap between
        # the two extreme distinct values at that end, so pick the probe
        # exponent from the gap instead of assuming a fixed one
        distinct = sorted(set(spec.values))
        if len(distinct) >= 2:
            gap_lo = math.log(distinct[1] / distinct[0])
            gap_hi = math.log(distinct[-1] / distinct[-2])
            h_lo = max(64.0, 25.0 / gap_lo)
            h_hi = max(64.0, 25.0 / gap_hi)
            if abs(float(lehmer(spec, h_hi)) - hi) > 1e-6 or abs(float(lehmer(spec, -h_lo)) - lo) > 1e-6:
                return _fail(name, samples, f"asymptote approach violated: values={spec.values}")
    return _ok(name, samples)


def check_derivatives(rng: np.random.Generator, samples: int) -> CheckResult:
    name = "derivatives"
    for _ in range(samples):
        spec = _random_spec(rng)
        p = float(rng.uniform(-10.0, 10.0))

        d1 = first_derivative(spec, p)
        if d1 < 0.0:
            return _fail(name, samples, f"negative slope: values={spec.values} p={p} L'={d1}")
        h = 1e-5
        fd1 = (float(lehmer(spec, p + h)) - float(lehmer(spec, p - h))) / (2.0 * h)
        value = float(lehmer(spec, p))
        if abs(d1 - fd1) > 1e-4 * abs(d1) + 1e-9 * max(1.0, value):
            return _fail(name, samples, f"L' vs finite difference: values={spec.values} p={p} {d1} vs {fd1}")

        d2 = second_derivative(spec, p)
        oracle = fd_second_derivative(spec, p, h=1e-6, dps=40)
        if abs(d2 - oracle) > max(1e-5 * abs(oracle), 1e-8):
            return _fail(name, samples, f"L'' vs oracle: values={spec.values} p={p} {d2} vs {oracle}")
    return _ok(name, samples)


def check_n2(rng: np.random.Generator, samples: int) -> CheckResult:
    name = "n2"
    for _ in range(samples):
        values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)).tolist()
        spec = make_spec(values)
        p = float(rng.uniform(-10.0, 10.0))
        closed = second_derivative_n2(spec, p)
        # extended-precision reference: the plain double bracket loses digits
        # to cancellation near the root, the closed form does not
        general = second_derivative(spec, p, precision="extended")
        if abs(closed - general) > 1e-10 * max(abs(closed), abs(general)) + 1e-35:
            return _fail(name, samples, f"closed form mismatch: values={values} p={p} {closed} vs {general}")
        if second_derivative_n2(spec, 1.0) != 0.0:
            return _fail(name, samples, f"curvature at p=1 not exactly zero: values={values}")

        weights = rng.uniform(0.5, 2.0, 2).tolist()
        wspec = make_spec(values, weights)
        p_star = weighted_n2_inflection(wspec)
        arith = (values[0] + values[1]) / 2.0
        at_root = float(lehmer(wspec, p_star))
        if abs(at_root - arith) > 1e-10 * arith:
            return _fail(name, samples, f"mean at p* is not the midpoint: values={values} weights={weights}")
    return _ok(name, samples)


def check_n3(rng: np.random.Generator, samples: int) -> CheckResult:
    name = "n3"
    for _ in range(samples):
        spec = _random_triple(rng)
        p = float(rng.uniform(-10.0, 10.0))

        k = k_constant(spec).k
        d2_at_1 = second_derivative(spec, 1.0)
        if abs(d2_at_1 - k / 27.0) > 1e-9 * max(abs(k) / 27.0, 1e-300):
            return _fail(name, samples, f"L''(1) != K/27: values={spec.values} {d2_at_1} vs {k / 27.0}")
        if tilde_l(spec, 1.0) != k:
            return _fail(name, samples, f"scaled curvature at 1 differs from K: values={spec.values}")

        closed = second_derivative_n3(spec, p)
        general = second_derivative(spec, p, precision="extended")
        if abs(closed - general) > 1e-10 * max(abs(closed), abs(general)) + 1e-35:
            return _fail(name, samples, f"n=3 closed form mismatch: values={spec.values} p={p}")

        slope = tilde_l_prime(spec, p)
        if slope > 1e-12:
            return _fail(name, samples, f"scaled curvature not decreasing: values={spec.values} p={p} slope={slope}")
        h = 1e-6
        fd = (tilde_l(spec, p + h) - tilde_l(spec, p - h)) / (2.0 * h)
        if abs(slope) > 1e-4 and abs(slope - fd) > 1e-5 * abs(slope):
            return _fail(name, samples, f"slope vs finite difference: values={spec.values} p={p} {slope} vs {fd}")
    return _ok(name, samples)


def check_n3_roots(rng: np.random.Generator, samples: int) -> CheckResult:
    name = "n3-roots"
    specs = [spec for spec in (_random_triple(rng) for _ in range(samples)) if not spec.is_constant]
    for spec, report in zip(specs, _scanned(specs)):
        if len(report.roots) != 1:
            return _fail(name, samples, f"triple without unique root: values={spec.values} roots={len(report.roots)}")
        side = classify_n3_side(spec)
        p_star = report.roots[0].p_star
        if side == "below_one" and not p_star < 1.0:
            return _fail(name, samples, f"root not below 1: values={spec.values} p*={p_star}")
        if side == "above_one" and not p_star > 1.0:
            return _fail(name, samples, f"root not above 1: values={spec.values} p*={p_star}")
    return _ok(name, samples)


def check_inequalities(rng: np.random.Generator, samples: int) -> CheckResult:
    name = "inequalities"
    for _ in range(samples):
        spec = _random_triple(rng)
        slacks = n3_inequalities(spec, float(rng.uniform(-10.0, 10.0)))
        if min(slacks) < -1e-12:
            return _fail(name, samples, f"inequality slack negative: values={spec.values} slacks={slacks}")
    return _ok(name, samples)


def check_parity(rng: np.random.Generator, samples: int) -> CheckResult:
    name = "parity"
    specs = [_random_spec(rng, n=int(rng.integers(2, 6)), weighted=False) for _ in range(samples)]
    for spec, report in zip(specs, _scanned(specs)):
        if not report.parity_ok:
            return _fail(name, samples, f"even root count: values={spec.values} roots={len(report.roots)}")
        if len(report.roots) > report.bound_j:
            return _fail(name, samples, f"count bound exceeded: values={spec.values}")
    return _ok(name, samples)


def check_bounds(rng: np.random.Generator, samples: int) -> CheckResult:
    name = "bounds"
    expected = {2: 1, 3: 5, 4: 15}
    for n, j in expected.items():
        if count_bound(n).j != j:
            return _fail(name, samples, f"bound mismatch at n={n}: got {count_bound(n).j}, want {j}")
    for n in range(2, 40):
        bound = count_bound(n)
        if bound.j % 2 == 0 or bound.j >= bound.n_terms:
            return _fail(name, samples, f"bound structure broken at n={n}: {bound}")
        if bound.n_terms != n * (n + 4) * (n - 1) // 6:
            return _fail(name, samples, f"term count broken at n={n}: {bound}")
    return _ok(name, samples)


def check_figures(rng: np.random.Generator, samples: int) -> CheckResult:
    name = "figures"
    pair = make_spec([0.5, 2.5])
    if float(lehmer(pair, 1.0)) != 1.5:
        return _fail(name, samples, "pair mean at p=1 is not 1.5")
    report = find_inflections(pair)
    if len(report.roots) != 1 or abs(report.roots[0].p_star - 1.0) > 1e-8:
        return _fail(name, samples, f"pair root not at 1: {report.roots}")

    triple = make_spec([1.0, 2.0, 3.0])
    k = k_constant(triple).k
    if abs(k - _K_123) > 1e-12 * abs(_K_123):
        return _fail(name, samples, f"constant for (1,2,3) drifted: {k}")
    report = find_inflections(triple)
    if len(report.roots) != 1 or abs(report.roots[0].p_star - _P_STAR_123) > 1e-6:
        return _fail(name, samples, f"triple root drifted: {report.roots}")
    if classify_n3_side(triple) != "below_one":
        return _fail(name, samples, "triple side is not below_one")

    quad = make_spec(list(_FIG3_VALUES))
    report = find_inflections(quad)
    if len(report.roots) != 3:
        return _fail(name, samples, f"four-value instance root count: {len(report.roots)}")
    for root, expected in zip(report.roots, _FIG3_ROOTS):
        if abs(root.p_star - expected) > 1e-6 * max(1.0, abs(expected)):
            return _fail(name, samples, f"four-value root drifted: {root.p_star} vs {expected}")
    for p in np.linspace(-500.0, 2500.0, 601):
        value = float(lehmer(quad, float(p)))
        if not (0.96 <= value <= 1.0259):
            return _fail(name, samples, f"four-value mean out of bounds at p={p}: {value}")
    return _ok(name, samples)


def check_search(rng: np.random.Generator, samples: int) -> CheckResult:
    name = "search"
    trials = max(1, samples)
    for n in (2, 3):
        config = SearchConfig(n=n, trials=trials, seed=int(rng.integers(0, 2**31)), min_roots=2,
                              values=LogUniform(0.1, 10.0))
        hits = search_multi_inflection(config)
        if hits:
            spec = hits[0].spec
            return _fail(name, samples, f"n={n} trial claims several roots: values={spec.values}")
    pinned = SearchConfig(n=4, trials=1, seed=0, min_roots=3, pinned_values=_FIG3_VALUES)
    if len(search_multi_inflection(pinned)) != 1:
        return _fail(name, samples, "pinned four-value instance not found")
    return _ok(name, samples)


_CHECKS: dict[str, tuple[tuple[Callable[[np.random.Generator, int], CheckResult], int], ...]] = {
    "monotonicity": ((check_monotonicity, 300),),
    "core": ((check_core, 200),),
    "derivatives": ((check_derivatives, 150),),
    "n2": ((check_n2, 300),),
    "n3": ((check_n3, 300), (check_n3_roots, 100)),
    "inequalities": ((check_inequalities, 500),),
    "parity": ((check_parity, 100),),
    "bounds": ((check_bounds, 1),),
    "figures": ((check_figures, 1),),
    "search": ((check_search, 200),),
}


def available_scopes() -> tuple[str, ...]:
    return ("all",) + tuple(_CHECKS)


def run_checks(scope: str = "all", seed: int = 0, samples: int | None = None) -> list[CheckResult]:
    """Run one scope (or all) and return per-check results."""
    if scope == "all":
        entries = [entry for group in _CHECKS.values() for entry in group]
    elif scope in _CHECKS:
        entries = list(_CHECKS[scope])
    else:
        raise UsageError(f"unknown scope {scope!r}; choose from {', '.join(available_scopes())}")
    results = []
    for fn, default in entries:
        rng = np.random.default_rng((seed, zlib.crc32(fn.__name__.encode())))
        results.append(fn(rng, samples if samples is not None else default))
    return results
