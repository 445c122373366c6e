"""Inflection location: scan, bisection, bounds, closed-form cross-checks."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from lehmer import (
    DegenerateError,
    NoInflectionError,
    RangeExhaustedError,
    ScanConfig,
    UsageError,
    classify_n3_side,
    count_bound,
    find_inflections,
    k_constant,
    lehmer,
    make_spec,
    weighted_n2_inflection,
)
from lehmer.calculus import _mp_bracket
from lehmer.inflection import (
    _MAX_BISECT_ITER,
    _SECTION_DEPTH,
    _Batch,
    _Bracket,
    _ExpSum,
    _Grid,
    _Kernel,
    _bisect_all,
    _collect_brackets,
    _live_cells,
    _scan_many,
    _shape,
)
from lehmer.search import Cluster

THREE_ROOT_VALUES = [1.0259, 1.0241, 1.0244, 0.96]
# located by this scanner, then re-bisected on 50-digit arithmetic
THREE_ROOTS = (-15.80746359940527, 203.918544293744, 401.3896861793917)


class TestCountBound:
    @pytest.mark.parametrize("n,j,terms", [(2, 1, 2), (3, 5, 7), (4, 15, 16), (5, 29, 30)])
    def test_reference_values(self, n, j, terms):
        bound = count_bound(n)
        assert bound.j == j
        assert bound.n_terms == terms

    def test_always_odd_and_below_term_count(self):
        for n in range(2, 200):
            bound = count_bound(n)
            assert bound.j % 2 == 1
            assert bound.j < bound.n_terms

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, True, "4"])
    def test_validation(self, bad):
        with pytest.raises(UsageError):
            count_bound(bad)


class TestScanConfig:
    def test_defaults(self):
        config = ScanConfig()
        assert config.initial_half_width == 64.0
        assert config.max_half_width == 1e6
        assert config.grid_points_per_unit == 8.0
        assert config.refine_tolerance == 1e-9
        assert config.precision_mode == "auto"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_half_width": 0.0},
            {"expansion_factor": 1.0},
            {"max_half_width": 1.0},
            {"grid_points_per_unit": -2.0},
            {"refine_tolerance": 0.0},
            {"precision_mode": "quad"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(UsageError):
            ScanConfig(**kwargs)


class TestPairs:
    def test_unit_pair_root_at_one(self):
        report = find_inflections(make_spec([0.5, 2.5]))
        assert len(report.roots) == 1
        root = report.roots[0]
        assert abs(root.p_star - 1.0) <= 1e-9
        assert root.direction == "convex-to-concave"
        assert root.bracket[0] <= root.p_star <= root.bracket[1]
        assert report.parity_ok
        assert report.bound_j == 1

    def test_grid_hits_unit_pair_root_exactly(self):
        # with unit weights the curvature kernel is an exact 0.0 at p=1,
        # which lies on the default grid
        report = find_inflections(make_spec([0.5, 2.5]))
        assert report.roots[0].p_star == 1.0
        assert report.roots[0].residual == 0.0

    def test_many_random_unit_pairs(self, rng):
        for _ in range(100):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)).tolist()
            report = find_inflections(make_spec(values))
            assert len(report.roots) == 1
            assert abs(report.roots[0].p_star - 1.0) <= 1e-8

    def test_weighted_pair_matches_closed_form(self):
        spec = make_spec([0.5, 2.5], [2.0, 1.0])
        expected = weighted_n2_inflection(spec)
        assert expected == pytest.approx(1.4306765580733931, rel=1e-14)
        report = find_inflections(spec)
        assert len(report.roots) == 1
        assert report.roots[0].p_star == pytest.approx(expected, abs=1e-9)
        # the mean at the inflection exponent is the plain midpoint
        assert float(lehmer(spec, expected)) == pytest.approx(1.5, rel=1e-12)

    def test_weighted_pairs_random(self, rng):
        for _ in range(50):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)).tolist()
            weights = rng.uniform(0.5, 2.0, 2).tolist()
            spec = make_spec(values, weights)
            expected = weighted_n2_inflection(spec)
            report = find_inflections(spec)
            assert len(report.roots) == 1
            assert report.roots[0].p_star == pytest.approx(expected, abs=1e-8)


class TestWeightedClosedForm:
    def test_unit_weights_give_exactly_one(self):
        assert weighted_n2_inflection(make_spec([0.3, 7.0])) == 1.0

    def test_requires_pair(self):
        with pytest.raises(UsageError):
            weighted_n2_inflection(make_spec([1.0, 2.0, 3.0]))

    def test_equal_values_degenerate(self):
        with pytest.raises(DegenerateError):
            weighted_n2_inflection(make_spec([2.0, 2.0], [1.0, 3.0]))


class TestTriples:
    def test_reference_triple(self):
        spec = make_spec([1.0, 2.0, 3.0])
        report = find_inflections(spec)
        assert len(report.roots) == 1
        assert report.roots[0].p_star == pytest.approx(0.7077750011119827, abs=2e-9)
        assert report.bound_j == 5

    def test_side_classification(self):
        assert classify_n3_side(make_spec([1.0, 2.0, 3.0])) == "below_one"
        assert classify_n3_side(make_spec([1.0, 1.1, 4.0])) == "above_one"
        assert classify_n3_side(make_spec([2.0, 2.0, 2.0])) == "degenerate"

    def test_two_equal_values_still_classify(self):
        spec = make_spec([1.0, 1.0, 2.0])
        side = classify_n3_side(spec)
        assert side in ("below_one", "above_one")
        report = find_inflections(spec)
        assert len(report.roots) == 1

    def test_side_matches_root_position(self, rng):
        for _ in range(100):
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3)).tolist()
            spec = make_spec(values)
            report = find_inflections(spec)
            assert len(report.roots) == 1
            p_star = report.roots[0].p_star
            k = k_constant(spec).k
            if k < 0.0:
                assert p_star < 1.0
            elif k > 0.0:
                assert p_star > 1.0

    def test_classify_requires_triple(self):
        with pytest.raises(UsageError):
            classify_n3_side(make_spec([1.0, 2.0]))


class TestThreeRootInstance:
    def test_all_three_roots_found(self):
        report = find_inflections(make_spec(THREE_ROOT_VALUES))
        assert len(report.roots) == 3
        for root, expected in zip(report.roots, THREE_ROOTS):
            assert root.p_star == pytest.approx(expected, abs=1e-6)
        assert report.parity_ok
        assert report.bound_j == 15

    def test_directions_alternate(self):
        report = find_inflections(make_spec(THREE_ROOT_VALUES))
        directions = [r.p_star for r in report.roots]
        assert directions == sorted(directions)
        assert [r.direction for r in report.roots] == [
            "convex-to-concave",
            "concave-to-convex",
            "convex-to-concave",
        ]

    def test_scan_expanded_far_enough(self):
        report = find_inflections(make_spec(THREE_ROOT_VALUES))
        assert report.scan_range[1] >= 4096.0

    def test_residuals_small(self):
        report = find_inflections(make_spec(THREE_ROOT_VALUES))
        for root in report.roots:
            assert root.residual <= 1e-12


class TestRootCountBound:
    def test_ulp_spaced_triple_warns_when_roots_exceed_j(self):
        # a few ulps apart the kernel's signs are rounding noise; the roots
        # and the parity flag are reported as found, with a warning
        report = find_inflections(make_spec([2.0, 2.0 + 4.4e-16, 2.0 + 8.9e-16]))
        assert report.bound_j == 5
        assert len(report.roots) > report.bound_j
        assert [w for w in report.warnings if "exceed the bound J=5" in w] == [
            f"{len(report.roots)} roots exceed the bound J=5 for n=3; "
            "the signs of the second derivative are rounding noise at this spacing of the values"
        ]

    def test_no_warning_within_the_bound(self):
        report = find_inflections(make_spec(THREE_ROOT_VALUES))
        assert not any("exceed the bound" in w for w in report.warnings)


class TestErrorPaths:
    def test_constant_raises(self):
        with pytest.raises(NoInflectionError):
            find_inflections(make_spec([3.0, 3.0, 3.0]))
        with pytest.raises(NoInflectionError):
            find_inflections(make_spec([5.0]))

    def test_range_exhaustion_carries_partial_report(self):
        config = ScanConfig(initial_half_width=4.0, max_half_width=4.0)
        with pytest.raises(RangeExhaustedError) as excinfo:
            find_inflections(make_spec([1.0, 2.0]), config)
        report = excinfo.value.report
        assert report is not None
        assert report.scan_range == (-4.0, 4.0)
        assert any("exhausted" in w for w in report.warnings)
        # the root at p=1 is inside the partial window and still reported
        assert any(abs(r.p_star - 1.0) <= 1e-8 for r in report.roots)


class TestPrecisionModes:
    def test_extended_mode_agrees(self):
        spec = make_spec([1.0, 2.0, 3.0])
        fast = find_inflections(spec, ScanConfig(precision_mode="standard"))
        slow = find_inflections(spec, ScanConfig(precision_mode="extended"))
        assert slow.precision_used == "extended"
        assert fast.roots[0].p_star == pytest.approx(slow.roots[0].p_star, abs=2e-9)

    def test_standard_mode_never_escalates(self):
        report = find_inflections(make_spec([0.5, 2.5]), ScanConfig(precision_mode="standard"))
        assert report.precision_used == "standard"


class TestWiderSpecs:
    def test_parity_holds_for_larger_n(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 6))
            values = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n)).tolist()
            report = find_inflections(make_spec(values))
            assert report.parity_ok
            assert len(report.roots) % 2 == 1
            assert len(report.roots) <= report.bound_j

    def test_weighted_specs_scan_cleanly(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n)).tolist()
            weights = rng.uniform(0.5, 2.0, n).tolist()
            report = find_inflections(make_spec(values, weights))
            assert report.parity_ok


class TestHeavyInstances:
    """Many-decade and clustered inputs at the cost of a normal scan.

    Evaluating the sign at every grid point and splitting every equal-sign
    cell costs 0.4-2.2 s on each of these; clearing cells by exclusion takes
    milliseconds. The bound leaves room for a slow machine and still fails
    if the scan touches the whole grid again.
    """

    BOUND_S = 0.25

    @pytest.mark.parametrize(
        "values,count,side",
        [
            ([1e-300, 1e300], 1, "at_one"),
            ([1e-5, 1e5], 1, "at_one"),
            ([1e-50, 1.0, 1e50], 1, "above_one"),
            ([1.0, 1.0001, 1.0002], 1, "below_one"),
            (THREE_ROOT_VALUES, 3, None),
        ],
    )
    def test_roots_and_cost(self, values, count, side):
        spec = make_spec(values)
        find_inflections(spec)  # first call pays for imports and caches
        start = time.perf_counter()
        report = find_inflections(spec)
        elapsed = time.perf_counter() - start
        assert len(report.roots) == count
        if side == "at_one":
            assert report.roots[0].p_star == 1.0
        elif side is not None:
            assert classify_n3_side(spec) == side
            assert (report.roots[0].p_star > 1.0) == (side == "above_one")
        else:
            for root, expected in zip(report.roots, THREE_ROOTS):
                assert root.p_star == pytest.approx(expected, abs=1e-6)
        assert elapsed < self.BOUND_S


def _reference_sign(spec, p, dps=60):
    """Sign of L'' from the 60-digit bracket, or None when fewer than 12 digits survive."""
    with mp.workdps(dps):
        bracket, scale = _mp_bracket(spec, mp.mpf(p))
        if abs(bracket) < mp.mpf(10) ** (12 - dps) * scale:
            return None
        return int(mp.sign(bracket))


class TestExclusionSoundness:
    """A cell that holds a root of L'' is never cleared."""

    KINDS = ("log_uniform", "cluster", "wide", "near_one")

    @staticmethod
    def _specs(rng, per_kind):
        cluster = Cluster()
        for _ in range(per_kind):
            for kind in TestExclusionSoundness.KINDS:
                n = int(rng.integers(2, 6))
                if kind == "log_uniform":
                    values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
                elif kind == "cluster":
                    values = cluster.draw(rng, n)
                elif kind == "wide":
                    values = np.exp(rng.uniform(-700.0, 700.0, n))
                else:
                    values = 1.0 + rng.uniform(0.0, 1e-6, n)
                weights = rng.uniform(0.5, 2.0, n).tolist() if rng.random() < 0.3 else None
                yield make_spec(values.tolist(), weights)

    @staticmethod
    def _report(spec):
        try:
            return find_inflections(spec)
        except RangeExhaustedError as exc:
            return exc.report

    def test_cells_straddling_a_root_survive(self, rng):
        checked = 0
        for spec in self._specs(rng, 15):
            expsum = _ExpSum([spec])
            for root in self._report(spec).roots:
                widths = np.exp(rng.uniform(np.log(1e-7), np.log(1e3), 40))
                left = rng.uniform(0.1, 0.9, 40) * widths
                cleared, _ = expsum.test(root.p_star - left, root.p_star - left + widths)
                assert not cleared.any(), (spec, root.p_star)
                checked += 40
        assert checked >= 1500

    def test_unit_pair_cells_ending_at_one_survive(self, rng):
        for _ in range(30):
            values = np.exp(rng.uniform(-300.0, 300.0, 2)).tolist()
            expsum = _ExpSum([make_spec(values)])
            widths = np.exp(rng.uniform(np.log(1e-7), np.log(1e3), 40))
            ones = np.ones(40)
            assert not expsum.test(ones - widths, ones)[0].any(), values
            assert not expsum.test(ones, ones + widths)[0].any(), values

    def test_certified_sign_matches_high_precision(self, rng):
        agree = reliable = 0
        for spec in self._specs(rng, 5):
            report = self._report(spec)
            half = report.scan_range[1]
            ps = np.concatenate((rng.uniform(-half, half, 6), [r.p_star + rng.normal() for r in report.roots]))
            _, signs = _ExpSum([spec]).test(ps, ps)
            for p, sign in zip(ps.tolist(), signs.tolist()):
                expected = _reference_sign(spec, p)
                if expected is None:
                    continue
                reliable += 1
                if sign != 0:
                    assert sign == expected, (spec, p)
                    agree += 1
        # the rounding bound settles the sign at most points
        assert reliable >= 60
        assert agree >= 0.9 * reliable

    def test_scan_clears_most_of_the_grid(self):
        # the canonical instance scans +-8192 at 8 points per unit: about
        # 131k grid points, of which a handful near the roots stay live
        spec = make_spec(THREE_ROOT_VALUES)
        [(cells, tested)] = _live_cells([_Grid(8192.0, 8.0)], _Batch([spec]))
        assert 3 <= cells.size <= 200
        assert tested.all()


def _stepwise_bisection(kernel, brackets, tolerance):
    """Plain batched bisection, one kernel call per step: the reference."""
    if not brackets:
        return np.empty(0), 0
    lo = np.array([br.lo for br in brackets])
    hi = np.array([br.hi for br in brackets])
    s_lo = np.array([br.sign_lo for br in brackets], dtype=np.int8)
    for k, br in enumerate(brackets):
        if br.exact_p is not None:
            lo[k] = hi[k] = br.exact_p
    calls = 0
    for _ in range(_MAX_BISECT_ITER):
        active = np.nonzero(hi - lo > tolerance)[0]
        if active.size == 0:
            break
        mids = 0.5 * (lo[active] + hi[active])
        stuck = (mids <= lo[active]) | (mids >= hi[active])
        hi[active[stuck]] = lo[active[stuck]] = mids[stuck]
        active, mids = active[~stuck], mids[~stuck]
        if active.size == 0:
            continue
        sm, _ = kernel(mids)
        calls += 1
        hit = sm == 0
        lo_side = sm == s_lo[active]
        lo[active[hit]] = hi[active[hit]] = mids[hit]
        lo[active[lo_side]] = mids[lo_side]
        hi[active[~hit & ~lo_side]] = mids[~hit & ~lo_side]
    return 0.5 * (lo + hi), calls


class TestSectionBisection:
    """Section bisection gives the midpoints of one kernel call per step."""

    @staticmethod
    def _scan_brackets(spec):
        batch = _Batch([spec])
        try:
            half = find_inflections(spec).scan_range[1]
        except RangeExhaustedError as exc:
            half = exc.report.scan_range[1]
        [(brackets, _)] = _collect_brackets(batch, [_Grid(half, 8.0)], [[]])
        return batch.kernels[0], brackets

    @staticmethod
    def _same(kernel, brackets, tolerance):
        expected, step_calls = _stepwise_bisection(kernel, brackets, tolerance)
        before = kernel.calls
        got = _bisect_all(kernel, brackets, tolerance)
        assert np.array_equal(got, expected), (got, expected)
        return kernel.calls - before, step_calls

    def test_scan_brackets_of_many_specs(self, rng):
        cluster = Cluster()
        specs = [make_spec(THREE_ROOT_VALUES), make_spec([2.0, 2.0 + 4.4e-16, 2.0 + 8.9e-16])]
        # values a few ulps apart: many brackets, and signs that are rounding
        # noise, where a one-point call and a batched one can disagree
        specs += [make_spec([1.0 + k * g * 2.0**-52 for k in range(n)]) for n in (4, 5) for g in (1, 2, 3)]
        for _ in range(12):
            for kind in ("log_uniform", "weighted", "cluster", "near_equal", "wide"):
                n = 4 if kind == "cluster" else int(rng.integers(2, 6))
                if kind == "cluster":
                    values = cluster.draw(rng, n)
                elif kind == "near_equal":
                    values = 1.0 + rng.uniform(0.0, 1e-6, n)
                elif kind == "wide":
                    values = np.exp(rng.uniform(-700.0, 700.0, n))
                else:
                    values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
                weights = rng.uniform(0.5, 2.0, n).tolist() if kind == "weighted" else None
                specs.append(make_spec(values.tolist(), weights))
        several = 0
        for spec in specs:
            kernel, brackets = self._scan_brackets(spec)
            several += len(brackets) > 1
            calls, step_calls = self._same(kernel, brackets, 1e-9)
            if step_calls:
                assert calls <= 2 * math.ceil(step_calls / _SECTION_DEPTH)
        assert several >= 2  # the canonical four values and the ulp-spaced triple

    def test_exact_zeros(self):
        # the unit-pair kernel is exactly zero at p=1, the first midpoint of [0.5, 1.5]
        kernel = _Kernel([make_spec([0.5, 2.5])])
        brackets = [
            _Bracket(0.875, 1.125, 1, 0.0, exact_p=1.0),
            _Bracket(0.5, 1.5, 1, 0.0),
            _Bracket(0.25, 0.375, 1, 0.0),
        ]
        self._same(kernel, brackets, 1e-9)
        assert _bisect_all(kernel, brackets[:2], 1e-9).tolist() == [1.0, 1.0]

    def test_brackets_at_float_resolution_get_stuck(self):
        spec = make_spec([1.0, 2.0, 3.0])
        kernel = _Kernel([spec])
        root = find_inflections(spec).roots[0].p_star
        brackets = [
            _Bracket(root, math.nextafter(root, 2.0), 1, 0.0),
            _Bracket(math.nextafter(root, -2.0), math.nextafter(math.nextafter(root, 2.0), 2.0), 1, 0.0),
            _Bracket(root - 0.5, root + 0.5, 1, 0.0),
        ]
        self._same(kernel, brackets, 0.0)
        self._same(kernel, brackets[:1], 0.0)

    def test_step_cap_cuts_a_tiny_tolerance_short(self):
        # halving [-1e30, 1e30] down to the root near 0.71 takes about 150
        # steps, more than the cap allows
        spec = make_spec([1.0, 2.0, 3.0])
        kernel = _Kernel([spec])
        brackets = [_Bracket(-1e30, 1e30, 1, 0.0), _Bracket(0.5, 1.0, 1, 0.0)]
        got = _bisect_all(kernel, brackets, 1e-300)
        expected, step_calls = _stepwise_bisection(kernel, brackets, 1e-300)
        assert step_calls == _MAX_BISECT_ITER
        assert np.array_equal(got, expected)


def _outcome(outcome):
    """An outcome of a scan as text: the report, or the error and its partial report."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}({outcome}) report={getattr(outcome, 'report', None)!r}"
    return repr(outcome)


def _scan_alone(spec, config):
    try:
        return _outcome(find_inflections(spec, config))
    except (NoInflectionError, RangeExhaustedError) as exc:
        return _outcome(exc)


class TestBatchIndependence:
    """A point's sign and log-magnitude, and so a spec's report, do not
    depend on what else is evaluated or scanned with it."""

    @staticmethod
    def _kernel_specs(rng):
        for n in (2, 3, 4, 5, 6):
            for kind in ("log_uniform", "weighted", "near_equal", "wide"):
                if kind == "near_equal":
                    values = float(np.exp(rng.uniform(-3.0, 3.0))) * (1.0 + rng.uniform(-1e-9, 1e-9, n))
                elif kind == "wide":
                    values = np.exp(rng.uniform(-300.0, 300.0, n))
                else:
                    values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
                weights = rng.uniform(0.5, 2.0, n).tolist() if kind != "log_uniform" and rng.random() < 0.6 else None
                yield make_spec(values.tolist(), weights)

    def test_kernel_point_results_do_not_depend_on_the_call(self, rng):
        groups = {}
        for spec in self._kernel_specs(rng):
            groups.setdefault(_shape(spec), []).append(spec)
        assert sorted(len(specs) for specs in groups.values()) == [4] * 5
        for specs in groups.values():
            kernel = _Kernel(specs)
            points = [rng.permutation(np.concatenate((rng.uniform(-60.0, 60.0, 150), rng.uniform(-1e6, 1e6, 150))))
                      for _ in specs]
            alone = []
            for row, (spec, ps) in enumerate(zip(specs, points)):
                own = _Kernel([spec])
                one = [own(ps[k : k + 1]) for k in range(ps.size)]
                signs = np.array([s[0] for s, _ in one])
                logmag = np.array([lm[0] for _, lm in one])
                alone.append((signs, logmag))
                # in calls of 2-300 points of one spec, at any position
                for size in (2, 3, 5, 8, 17, 64, 150, 300):
                    start = int(rng.integers(0, ps.size - size + 1))
                    for got in (own(ps[start : start + size]), kernel(ps[start : start + size], np.full(size, row))):
                        assert np.array_equal(got[0], signs[start : start + size]), (spec, size, start)
                        assert np.array_equal(got[1], logmag[start : start + size]), (spec, size, start)
            # beside the other specs' points, shuffled, in one gathered call
            rows = np.repeat(np.arange(len(specs)), [ps.size for ps in points])
            order = rng.permutation(rows.size)
            signs, logmag = kernel(np.concatenate(points)[order], rows[order])
            back = np.argsort(order)
            assert np.array_equal(signs[back], np.concatenate([s for s, _ in alone]))
            assert np.array_equal(logmag[back], np.concatenate([lm for _, lm in alone]))

    @staticmethod
    def _batch_specs(rng):
        specs = []
        for _ in range(4):
            for n in (2, 3, 4, 5):
                values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n)).tolist()
                specs.append(make_spec(values, rng.uniform(0.5, 2.0, n).tolist() if rng.random() < 0.5 else None))
            values = np.exp(rng.uniform(-2.0, 2.0, 3)).tolist()
            specs.append(make_spec(values + [values[0]]))  # a duplicate: a shape of its own
        # evenly spaced values take windows of 128 to 1024
        for step in (0.01, 0.05, 0.2):
            specs.append(make_spec([1.0, 1.0 + step, 1.0 + 2.0 * step]))
            specs.append(make_spec([2.0, 2.0 + step, 2.0 + 2.0 * step, 2.0 + 3.0 * step], [1.0, 2.0, 0.5, 1.0]))
        specs.append(make_spec([3.0, 3.0, 3.0]))  # constant
        specs.append(make_spec([1e300, math.nextafter(1e300, math.inf)]))  # equal logs
        specs.append(make_spec([1.0, 1.0 + 1e-6, 1.0 + 3e-6]))  # exhausts max_half_width
        return [specs[k] for k in rng.permutation(len(specs))]

    @pytest.mark.parametrize("mode", ["auto", "standard", "extended"])
    def test_batch_outcomes_equal_single_scans(self, rng, mode):
        config = ScanConfig(max_half_width=4096.0, precision_mode=mode)
        specs = self._batch_specs(rng)
        alone = [_scan_alone(spec, config) for spec in specs]
        for batch in (specs, specs[: len(specs) // 3], specs[len(specs) // 3 :]):
            got = [_outcome(outcome) for outcome in _scan_many(batch, config)]
            assert got == [alone[specs.index(spec)] for spec in batch]
        kinds = [text.split("(", 1)[0] for text in alone]
        assert kinds.count("NoInflectionError") == 2 and "RangeExhaustedError" in kinds
        halves = {float(text.split("scan_range=(-", 1)[1].split(",", 1)[0]) for text in alone if "scan_range" in text}
        assert {64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0} <= halves
