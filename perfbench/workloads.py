"""The three benchmark workloads: their inputs, their operations and the checks.

A workload is one round: a fixed list of operations built from the seed.
A run repeats the round until its time is up, so every run attempts whole
rounds of the same operations and the share of failed operations does not
depend on the run length.

Scan cost follows the scan window, and the window of a random draw has a
heavy tail (each doubling of the window is about half as likely as the
last and costs about twice as much). A handful of rare draws would move a
run's time by tens of percent, so the random draws are stratified: the
seed picks the draws, but each round holds a fixed number of draws of each
window class. window_class computes the class from the values alone, with
the scan's documented rule (the first half-width 64 * 2^k at which L is
within 1e-6 of both asymptotes).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

import lehmer
import lehmer.cli
import reference as ref

EPS = sys.float_info.epsilon
TINY = 1e-300  # results this small may have lost digits to underflow
CANCELLATION_LIMIT = 1e-10  # the package escalates L'' past this loss
REFINE_TOLERANCE = 1e-9  # ScanConfig.refine_tolerance default

CURVE_GRID = tuple(-40.0 + 0.5 * k for k in range(161))
PAPER_PAIR = (0.5, 2.5)
PAPER_TRIPLE = (1.0, 2.0, 3.0)
CANONICAL = (1.0259, 1.0241, 1.0244, 0.96)
CLUSTERED_TRIPLE = (1.0, 1.0001, 1.0002)
WIDE_PAIR = (1e-5, 1e5)
WIDE_TRIPLE = (1e-50, 1.0, 1e50)
WEIGHTED_PAIR = ((0.5, 2.5), (1.0, 3.0))

# search-n3: 500 trials per round, 4 per call, window classes 64 to 512 in
# their natural proportions (97.4% of draws). The bigger windows are left
# out: one such draw costs as much as 5 to 500 ordinary ones, and they would
# sit right at p90. Each call holds one trial above class 64 and three of it;
# the rest hold four. p90 then falls among the 512/256 calls and p50 among
# the 128 calls, away from the edges of both groups.
N3_TRIALS = 4
N3_RARE = {128: 60, 256: 31, 512: 15}
N3_PLAIN_OPS = 19
# inflect-cli: 39 ops per round. p90 is the 36th, the cheapest of the four
# heavy instances (the canonical four values). 8 unit pairs sort below the
# triples, which puts p50 in the middle of the class-64 triples; their costs
# differ by a factor of two, so p50 needs many of them to repeat across seeds.
CLI_PAIRS = {64: 8}
CLI_TRIPLES = {64: 20, 128: 3, 256: 2, 512: 1}
# curve: random weighted specs per round, four of each n. Values within a
# factor 1.25 of 1 keep every random spec on the double-precision path, so
# its cost is set by n; the fixed specs carry the 50-digit path. Their curvature stays above 1e-8 of
# its scale on the grid, far from the 1e-42 cutoff of the known fault.
CURVE_SIZES = (2, 3, 4, 5, 6)
CURVE_PER_SIZE = 4
CURVE_RANGE = (0.8, 1.25)

@dataclass
class Op:
    """One timed call and how to check what it returned.

    summarize turns the raw output into what check reads, outside the timed
    region; check returns None when that is correct, else a reason.
    A reason that starts with KNOWN_FAULT marks the one fault kept on
    purpose (see curve).
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    summarize: Callable[[object], object] = lambda out: out
    trials: int = 0  # search trials per call


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op


KNOWN_FAULT = "known fault"


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# ---------------------------------------------------------------------------
# window classes


def _lse(xs: Sequence[float]) -> float:
    m = max(xs)
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))


def _asymptote_gap(values, log_values, log_weights, q: float, limit: float) -> float:
    """|L(q + 1) - limit|, from sum w x^q (x - limit) / sum w x^q."""
    den = _lse([lw + q * lx for lw, lx in zip(log_weights, log_values)])
    num = [lw + q * lx + math.log(abs(x - limit)) for x, lx, lw in zip(values, log_values, log_weights) if x != limit]
    return math.exp(_lse(num) - den)


def window_class(values: Sequence[float], weights: Sequence[float] | None = None) -> float:
    """Scan half-width for these values: the first 64 * 2^k (capped at 1e6)
    at which L(-h) and L(h) are within 1e-6 of min and max; inf past the cap."""
    if weights is None:
        weights = [1.0] * len(values)
    lx = [math.log(x) for x in values]
    lw = [math.log(w) for w in weights]
    lo, hi = min(values), max(values)
    h = 64.0
    while True:
        if _asymptote_gap(values, lx, lw, h - 1.0, hi) <= 1e-6 and _asymptote_gap(values, lx, lw, -h - 1.0, lo) <= 1e-6:
            return h
        if h >= 1e6:
            return math.inf
        h = min(2.0 * h, 1e6)


def _stratified(draw: Callable[[], object], classify: Callable[[object], Hashable], quotas: dict) -> list:
    """Draws in order of acceptance until every class has its quota."""
    left = Counter(quotas)
    out = []
    attempts = 0
    while sum(left.values()) > 0:
        attempts += 1
        if attempts > 200_000:
            raise RuntimeError(f"stratified draw did not fill {dict(+left)}")
        item = draw()
        c = classify(item)
        if left[c] > 0:
            left[c] -= 1
            out.append(item)
    return out


# ---------------------------------------------------------------------------
# checks shared by the scan workloads


def _gap_to_neighbours(ps: Sequence[float], k: int) -> float:
    gaps = [abs(ps[k] - ps[j]) for j in (k - 1, k + 1) if 0 <= j < len(ps)]
    return min(gaps) if gaps else math.inf


def _sign_change_problem(values, weights, ps: Sequence[float], directions: Sequence[str]) -> str | None:
    """None when the reference L'' changes sign across every root, as reported."""
    for k, (p, direction) in enumerate(zip(ps, directions)):
        delta = min(1e-5 * max(1.0, abs(p)), 0.25 * _gap_to_neighbours(ps, k))
        want = (1, -1) if direction == "convex-to-concave" else (-1, 1)
        try:
            got = (ref.second_derivative_sign(values, weights, p - delta), ref.second_derivative_sign(values, weights, p + delta))
        except ref.Unresolved as exc:
            return str(exc)
        if got != want:
            return f"reference L'' signs {got} around root p={p!r}, expected {want} ({direction})"
    return None


def _alternation_problem(directions: Sequence[str]) -> str | None:
    for k, d in enumerate(directions):
        want = "convex-to-concave" if k % 2 == 0 else "concave-to-convex"
        if d != want:
            return f"root {k} is {d}, expected {want}"
    return None


def _side_problem(values, p: float) -> str | None:
    """One triple root lies on the side of p = 1 that the sign of K gives."""
    k = ref.k_constant(*values)
    if (p - 1.0) * (1 if k > 0 else -1) < -REFINE_TOLERANCE:
        return f"root p={p!r} on the wrong side of 1 for K={float(k):.6g}"
    return None


# ---------------------------------------------------------------------------
# search-n3


def _search_call(config):
    return lambda: lehmer.search_multi_inflection(config)


def _search_summary(hits) -> tuple:
    return tuple(
        (h.trial_index, h.spec.values, h.spec.weights, tuple((r.p_star, r.direction) for r in h.report.roots))
        for h in hits
    )


def _search_check(trials: int, per_hit: Callable[[tuple, tuple, list, list], str | None]):
    def check(summary) -> str | None:
        seen = [t for t, *_ in summary]
        if seen != list(range(trials)):
            return f"trials {sorted(set(range(trials)) - set(seen))} came back without a hit"
        for trial, values, weights, roots in summary:
            ps = [p for p, _ in roots]
            directions = [d for _, d in roots]
            problem = per_hit(values, weights, ps, directions)
            if problem:
                return f"trial {trial} {values}: {problem}"
        return None

    return check


def _n3_hit_problem(values, weights, ps, directions) -> str | None:
    if len(ps) != 1:
        return f"{len(ps)} roots, expected exactly 1"
    return _side_problem(values, ps[0]) or _sign_change_problem(values, weights, ps, directions)


def _search_ops(name: str, seed: int, n: int, trials: int, values, targets: list[tuple], per_hit) -> list[Op]:
    rng = _rng(seed, name)

    def draw():
        return lehmer.SearchConfig(n=n, trials=trials, seed=int(rng.integers(0, 2**32)), values=values, min_roots=1)

    def classify(config):
        return tuple(sorted(window_class(lehmer.random_instance(config, t).values) for t in range(trials)))

    quotas = Counter(tuple(sorted(t)) for t in targets)
    check = _search_check(trials, per_hit)
    return [
        Op(f"{name} seed={c.seed}", _search_call(c), check, _search_summary, trials)
        for c in _stratified(draw, classify, quotas)
    ]


def build_search_n3(seed: int) -> Workload:
    targets = [(c, 64, 64, 64) for c, k in N3_RARE.items() for _ in range(k)]
    targets += [(64,) * N3_TRIALS] * N3_PLAIN_OPS
    ops = _search_ops("search-n3", seed, 3, N3_TRIALS, lehmer.LogUniform(0.1, 10.0), targets, _n3_hit_problem)
    warm = lehmer.SearchConfig(n=3, trials=1, seed=0, values=lehmer.LogUniform(0.1, 10.0), min_roots=1)
    return Workload("search-n3", ops, Op("warm-up", _search_call(warm), lambda s: None))


# ---------------------------------------------------------------------------
# curve


def _curve_call(spec):
    def call():
        lh = lehmer.lehmer
        d1 = lehmer.first_derivative
        d2 = lehmer.second_derivative
        return tuple((float(lh(spec, p)), d1(spec, p), d2(spec, p)) for p in CURVE_GRID)

    return call


def _curve_check(values, weights):
    """Bounds, monotonicity and agreement with the reference at every grid point.

    Rounding in the package's exponents grows with (|p| + 1) * max|log x|; the
    double-precision L'' is used only while the bracket keeps 1e-10 of its
    scale, so its relative error may be 1e10 times that rounding.

    Two faults of the package are reported as known, not as wrong output:
    L'' returned as exactly 0.0 although it is a normal double (the 50-digit
    path zeroes brackets below 1e-42 of their scale), and L' that lost digits
    because L'/L, which the package forms first, is below the normal range.
    """
    lo, hi = min(values), max(values)
    log_x = max(abs(math.log(x)) for x in values)
    log_w = max(abs(math.log(w)) for w in weights)
    reference: list = []

    def check(rows) -> str | None:
        if not reference:
            reference.extend(ref.derivatives(values, weights, p) for p in CURVE_GRID)
        fault = None
        prev = None
        for p, (l0, l1, l2), (r0, r1, r2, e1, e2) in zip(CURVE_GRID, rows, reference):
            cond = 1.0 + (abs(p) + 1.0) * log_x + log_w
            tol0 = 16.0 * EPS * cond
            tol1 = 64.0 * EPS * cond
            tol2 = min(0.5, tol1 / CANCELLATION_LIMIT)
            if not lo <= l0 <= hi:
                return f"L({p}) = {l0!r} outside [{lo}, {hi}]"
            if prev is not None and l0 < prev - 2.0 * tol0 * prev:
                return f"L decreases at p={p}: {prev!r} -> {l0!r}"
            prev = l0
            if l1 < 0.0:
                return f"L'({p}) = {l1!r} < 0"
            if abs(l0 - float(r0)) > tol0 * float(r0):
                return f"L({p}) = {l0!r}, reference {float(r0)!r}"
            if abs(l1 - float(r1)) > tol1 * abs(float(r1)) + float(e1) + TINY:
                if abs(r1 / r0) >= sys.float_info.min:
                    return f"L'({p}) = {l1!r}, reference {float(r1)!r}"
                fault = fault or f"{KNOWN_FAULT}: L'({p}) = {l1!r} via subnormal L'/L, reference {float(r1):.6g}"
            if abs(l2 - float(r2)) > tol2 * abs(float(r2)) + float(e2) + TINY:
                if l2 != 0.0:
                    return f"L''({p}) = {l2!r}, reference {float(r2)!r}"
                fault = fault or f"{KNOWN_FAULT}: L''({p}) = 0.0, reference {float(r2):.6g}"
        return fault

    return check


def build_curve(seed: int) -> Workload:
    rng = _rng(seed, "curve")
    specs = [(PAPER_PAIR, None), (PAPER_TRIPLE, None), (CANONICAL, None), (WIDE_PAIR, None), (WIDE_TRIPLE, None)]
    for n in CURVE_SIZES:
        for _ in range(CURVE_PER_SIZE):
            values = np.exp(rng.uniform(math.log(CURVE_RANGE[0]), math.log(CURVE_RANGE[1]), n)).tolist()
            specs.append((tuple(values), tuple(rng.uniform(0.5, 2.0, n).tolist())))
    ops = []
    for values, weights in specs:
        spec = lehmer.make_spec(values, weights)
        ops.append(Op(f"curve {values}", _curve_call(spec), _curve_check(spec.values, spec.weights)))
    warm = _curve_call(lehmer.make_spec(PAPER_TRIPLE))
    return Workload("curve", ops, Op("warm-up", warm, lambda s: None))


# ---------------------------------------------------------------------------
# inflect-cli


def _cli_call(argv: list[str]):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lehmer.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _cli_check(values, weights, expect: Callable[[list, list], str | None]):
    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        try:
            payload = json.loads(out)["results"]
        except (ValueError, KeyError) as exc:
            return f"output is not the inflect JSON record: {exc}"
        if payload["bound_j"] != ref.count_bound(len(values)):
            return f"bound_j {payload['bound_j']} != J = {ref.count_bound(len(values))}"
        ps = [r["p_star"] for r in payload["roots"]]
        directions = [r["direction"] for r in payload["roots"]]
        return expect(ps, directions)

    return check


def _expect_unit_pair(values):
    def expect(ps, directions):
        if len(ps) != 1 or abs(ps[0] - 1.0) > REFINE_TOLERANCE:
            return f"roots {ps}, expected one root at p = 1"
        return None

    return expect


def _expect_weighted_pair(values, weights):
    root = float(ref.weighted_pair_root(values[0], values[1], weights[0], weights[1]))

    def expect(ps, directions):
        if len(ps) != 1 or abs(ps[0] - root) > REFINE_TOLERANCE * max(1.0, abs(root)):
            return f"roots {ps}, expected one root at {root!r}"
        return None

    return expect


def _expect_triple(values):
    def expect(ps, directions):
        if len(ps) != 1:
            return f"{len(ps)} roots, expected exactly 1"
        return _side_problem(values, ps[0]) or _sign_change_problem(values, None, ps, directions)

    return expect


def _expect_canonical(values):
    def expect(ps, directions):
        if len(ps) != 3:
            return f"{len(ps)} roots, expected 3"
        return _alternation_problem(directions) or _sign_change_problem(values, None, ps, directions)

    return expect


def _cli_op(label: str, values, weights=None) -> Op:
    argv = ["inflect", "-x", ",".join(repr(float(v)) for v in values), "--json"]
    if weights is not None:
        argv += ["-w", ",".join(repr(float(w)) for w in weights)]
    if weights is not None:
        expect = _expect_weighted_pair(values, weights)
    elif values == CANONICAL:
        expect = _expect_canonical(values)
    elif len(values) == 2:
        expect = _expect_unit_pair(values)
    else:
        expect = _expect_triple(values)
    return Op(label, _cli_call(argv), _cli_check(values, weights, expect))


def build_inflect_cli(seed: int) -> Workload:
    rng = _rng(seed, "inflect-cli")
    ops = [
        _cli_op("canonical", CANONICAL),
        _cli_op("clustered triple", CLUSTERED_TRIPLE),
        _cli_op("wide pair", WIDE_PAIR),
        _cli_op("wide triple", WIDE_TRIPLE),
        _cli_op("weighted pair", *WEIGHTED_PAIR),
    ]
    for n, quotas in ((2, CLI_PAIRS), (3, CLI_TRIPLES)):
        def draw(n=n):
            return tuple(np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)).tolist())

        for values in _stratified(draw, window_class, quotas):
            ops.append(_cli_op(f"random {values}", values))
    warm = _cli_op("warm-up", PAPER_PAIR)
    return Workload("inflect-cli", ops, warm)


BUILDERS = {
    "search-n3": build_search_n3,
    "curve": build_curve,
    "inflect-cli": build_inflect_cli,
}
