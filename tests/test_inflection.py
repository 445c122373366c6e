"""Inflection location: scan, bisection, bounds, closed-form cross-checks."""

import hashlib
import logging
import math
import time
import tracemalloc
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from lehmer import (
    DegenerateError,
    NoInflectionError,
    RangeExhaustedError,
    SearchConfig,
    UsageError,
    classify_n3_side,
    count_bound,
    find_inflections,
    k_constant,
    lehmer,
    make_spec,
    merge_equal_values,
    search_multi_inflection,
    second_derivative,
    weighted_n2_inflection,
)
from lehmer.calculus import _double_second_derivative, _mp_curvature, _second_derivative_mp
from lehmer.core import _point
from lehmer import calculus, inflection
from lehmer.inflection import (
    _DEFER_MARGIN,
    _ESCALATION_FACTOR,
    _REFINE_TOLERANCE,
    _Batch,
    _Bracket,
    _ExpSum,
    _Grid,
    _Kernel,
    _above_scale,
    _bisect_all,
    _collect_brackets,
    _live_cells,
    _report,
    _scan_many,
    _shape,
    _windows,
)
from lehmer.search import Cluster, LogUniform

THREE_ROOT_VALUES = [1.0259, 1.0241, 1.0244, 0.96]
# located by this scanner, then re-bisected on 50-digit arithmetic
THREE_ROOTS = (-15.80746359940527, 203.918544293744, 401.3896861793917)
# weighted triples with two roots close together near p = -5.25, besides the
# one near 1.43; the spec of DROPPED_PAIR has its pair 5.7e-6 apart
PAIR_VALUES = [0.6818880749720027, 0.5672627948873008, 4.157181988810782]
DROPPED_PAIR = (PAIR_VALUES, [3.4823288839002684, 1.0, 2.0])


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
    """The scan's fixed policy and its one setting, the precision mode."""

    def test_defaults(self):
        # the window is certified per spec (see TestWindow); no doubling is left
        for name in ("ASYMPTOTE_TOLERANCE", "_INITIAL_HALF_WIDTH", "_EXPANSION_FACTOR"):
            assert not hasattr(inflection, name)
        assert inflection._MAX_HALF_WIDTH == 1e6
        assert inflection._GRID_POINTS_PER_UNIT == 8.0
        assert inflection._REFINE_TOLERANCE == 1e-9
        spec = make_spec([1.0, 2.0, 3.0])
        assert find_inflections(spec) == find_inflections(spec, "auto")
        assert SearchConfig().precision == "auto"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"precision": "quad"},
            {"precision": ""},
            {"precision": "Auto"},
            {"precision": "extended "},
            {"precision": None},
            {"precision": 2},
        ],
    )
    def test_validation(self, kwargs):
        # rejected before any scan, constant specs included
        for spec in (make_spec([1.0, 2.0]), make_spec([3.0, 3.0])):
            with pytest.raises(UsageError):
                find_inflections(spec, **kwargs)
        with pytest.raises(UsageError):
            _scan_many([make_spec([1.0, 2.0])], **kwargs)
        with pytest.raises(UsageError):
            SearchConfig(**kwargs)


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
            k = k_constant(spec)
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
        # the certified window reaches past the roots, to about [-903, 2242]
        lo, hi = find_inflections(make_spec(THREE_ROOT_VALUES)).scan_range
        assert -1000.0 < lo < THREE_ROOTS[0] and THREE_ROOTS[-1] < hi < 2300.0

    def test_residuals_small(self):
        report = find_inflections(make_spec(THREE_ROOT_VALUES))
        for root in report.roots:
            assert root.residual <= 1e-12


class TestRootCountBound:
    def test_ulp_spaced_triple_warns_when_roots_exceed_j(self):
        # a few ulps apart no window end is certifiable, and the triple takes
        # the budget pass; a report warns exactly when its roots exceed J
        with pytest.raises(RangeExhaustedError) as excinfo:
            find_inflections(make_spec([2.0, 2.0 + 4.4e-16, 2.0 + 8.9e-16]))
        report = excinfo.value.report
        assert report.bound_j == 5
        assert any("exceed the bound J=5" in w for w in report.warnings) == (len(report.roots) > 5)
        # seven brackets of a triple, as rounding noise gives them
        brackets = [_Bracket(k - 0.0625, k + 0.0625, 1 if k % 2 == 0 else -1, 0.0) for k in range(7)]
        report = _report(make_spec([1.0, 2.0, 3.0]), brackets, np.arange(7.0), (-8.0, 8.0), "standard", [])
        assert len(report.roots) == 7
        assert [w for w in report.warnings if "exceed the bound J=5" in w] == [
            "7 roots exceed the bound J=5 for n=3; "
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
        # both certified ends lie past the cap, about 1.8e9 and 1.35e9 from 1
        with pytest.raises(RangeExhaustedError) as excinfo:
            find_inflections(make_spec([1.0, 1.0 + 1e-9, 1.0 + 3e-9]))
        report = excinfo.value.report
        assert report is not None
        assert report.scan_range == (-1e6, 1e6)
        [warning] = [w for w in report.warnings if "exhausted" in w]
        assert "left end, certified at p=-1.8" in warning and "right end, certified at p=1.35" in warning
        # its one root, at 176,861,211.997, is past the partial window
        assert report.roots == ()
        # values 1e-6 apart: the root at 176,862 is inside the partial window
        with pytest.raises(RangeExhaustedError) as excinfo:
            find_inflections(make_spec([1.0, 1.0 + 1e-6, 1.0 + 3e-6]))
        assert [round(r.p_star) for r in excinfo.value.report.roots] == [176862]


class TestWindow:
    """The scan window: each end is where one term of the exponential sum
    starts to outweigh all the others, rounded outward to the grid."""

    @staticmethod
    def _specs(rng):
        cluster = Cluster()
        specs = [make_spec(v) for v in (THREE_ROOT_VALUES, [1.0, 2.0, 3.0], [1.0, 1.0001, 1.0002], [1e-50, 1.0, 1e50])]
        specs.append(make_spec([0.5, 2.5], [2.0, 1.0]))
        for _ in range(6):
            for n in (2, 3, 4, 5):
                values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n)).tolist()
                specs.append(make_spec(values, rng.uniform(0.5, 2.0, n).tolist() if rng.random() < 0.5 else None))
            specs.append(make_spec(cluster.draw(rng, 4).tolist()))
        return specs

    @staticmethod
    def _sign(spec, p):
        """Sign of L'' from the 60-digit bracket, with as many more digits as its terms spread over."""
        l = spec.log_values
        spread = (abs(p) + 1.0) * (max(l) - min(l)) / math.log(10.0)
        return _reference_sign(spec, p, dps=60 + math.ceil(spread))

    def test_roots_lie_strictly_inside(self, rng):
        for spec in self._specs(rng):
            report = find_inflections(spec)
            lo, hi = report.scan_range
            assert report.roots and all(lo < root.p_star < hi for root in report.roots), spec

    def test_asymptotic_signs_at_and_beyond_the_ends(self, rng):
        beyond = 0.125 * 2.0 ** np.arange(10)
        for spec in self._specs(rng):
            [window] = _windows(_Batch([spec]))
            assert window.reasons == ("certified", "certified")
            (p_lo, p_hi), (lo, hi) = window.ends, window.grid.span
            assert lo < p_lo < p_hi < hi
            for p in [p_lo, lo, *(lo - beyond)]:
                assert self._sign(spec, float(p)) == 1, (spec, p)
            for p in [p_hi, hi, *(hi + beyond)]:
                assert self._sign(spec, float(p)) == -1, (spec, p)

    def test_ends_are_grid_points(self, rng):
        for spec in self._specs(rng):
            lo, hi = find_inflections(spec).scan_range
            assert lo * 8.0 == math.floor(lo * 8.0) and hi * 8.0 == math.floor(hi * 8.0)

    def test_unit_pair_window_contains_one(self, rng):
        for _ in range(50):
            values = np.exp(rng.uniform(-300.0, 300.0, 2)).tolist()
            lo, hi = find_inflections(make_spec(values)).scan_range
            assert lo < 1.0 < hi, values
        # L is still 1e-6 away from its asymptotes at p = +-1e6; the window
        # asks only where the curvature keeps its sign
        report = find_inflections(make_spec([10.0, 10.00001]))
        assert report.scan_range == (0.75, 1.25)
        assert [root.p_star for root in report.roots] == [1.0]

    @pytest.mark.parametrize("values", [[1.0, 1.0, 2.0], [1.0, 2.0, 2.0, 3.0]])
    def test_repeated_values_take_the_merged_window(self, values):
        spec = make_spec(values)
        merged = merge_equal_values(spec)
        [window] = _windows(_Batch([spec]))
        assert window.reasons == ("certified", "certified")
        assert window.grid.span == _windows(_Batch([merged]))[0].grid.span
        assert find_inflections(spec).scan_range == window.grid.span == find_inflections(merged).scan_range

    def test_exponents_closer_than_their_errors_do_not_certify(self):
        # two terms 1e-3 apart in exponent, each known to 1e-2: the other
        # term may grow without bound, although at q = 0 it is e^-5 of the top
        fields = dict(sign=[-1.0, 1.0], k=[0.0, 0.0], a=[1.0, 0.999], e_a=[1e-2, 1e-2], log_c=[0.0, -5.0],
                      log_r=[-40.0, -40.0], log_hi=[0.0, -5.0], log_lo=[0.0, -5.0], eps_c=[0.0, 0.0], rank=[0.0, -5.0])
        terms = list(fields.values())
        assert inflection._end(terms, 1.0) is None
        # known to 1e-5, the same terms certify the right end a little past
        # q = -5000, where the other term's true size is the top one's
        fields["e_a"] = [1e-5, 1e-5]
        q = inflection._end(list(fields.values()), 1.0)
        assert -5000.0 < q < -4800.0

    @pytest.mark.parametrize(
        "values, reason, why",
        [
            ([2.0, 2.0 + 4.4e-16, 2.0 + 8.9e-16], "not certifiable", "end is not certifiable"),
            ([1.0, 1.0 + 1e-9, 1.0 + 3e-9], "clipped at the cap", "is past the cap"),
        ],
    )
    def test_budget_pass(self, values, reason, why):
        [window] = _windows(_Batch([make_spec(values)]))
        assert window.reasons == (reason, reason)
        assert window.grid.span == (-1e6, 1e6) and window.grid.size == 400_001
        with pytest.raises(RangeExhaustedError) as excinfo:
            find_inflections(make_spec(values))
        report = excinfo.value.report
        assert report.scan_range == (-1e6, 1e6)
        [warning] = [w for w in report.warnings if "exhausted" in w]
        assert warning.count(why) == 2


class TestReport:
    def test_brackets_closer_than_the_tolerance_stay_two_roots(self):
        # each bisected bracket is one root; an even count shows the pair
        spec = make_spec(THREE_ROOT_VALUES)
        brackets = [_Bracket(203.875, 204.0, 1, 0.0), _Bracket(204.0, 204.125, -1, 0.0)]
        mids = np.array([204.0 - 5e-10, 204.0 + 5e-10])
        report = _report(spec, brackets, mids, (-8192.0, 8192.0), "standard", [])
        assert [r.p_star for r in report.roots] == mids.tolist()
        assert [r.bracket for r in report.roots] == [(203.875, 204.0), (204.0, 204.125)]
        assert [r.direction for r in report.roots] == ["convex-to-concave", "concave-to-convex"]
        assert not report.parity_ok
        assert report.warnings == ()

    @pytest.mark.parametrize(
        "values",
        [
            [1e-200, 1e-150, 1e305],
            [2.1019257329891337e-221, 3.0295754423730255e-202, 8.57918004760298e303],
        ],
    )
    def test_local_scale_past_the_double_range(self, values):
        # log|L''| near the root exceeds log(max double) = 709.78
        spec = make_spec(values)
        report = find_inflections(spec)
        assert len(report.roots) == 1 and report.parity_ok
        side = classify_n3_side(spec)
        assert side == ("above_one" if report.roots[0].p_star > 1.0 else "below_one")

    def test_escalation_test_keeps_its_decisions(self, rng):
        from lehmer.inflection import _above_scale

        for residual, log_scale in zip(np.exp(rng.uniform(-700.0, 709.0, 2000)), rng.uniform(-700.0, 709.7, 2000)):
            assert _above_scale(residual, log_scale) == (residual > 1e-3 * math.exp(log_scale))
        # past the double range the logs decide
        assert _above_scale(1e307, 710.0)
        assert not _above_scale(1e300, 710.0)
        assert not _above_scale(0.0, 710.0)


class TestPrecisionModes:
    def test_extended_mode_agrees(self):
        spec = make_spec([1.0, 2.0, 3.0])
        fast = find_inflections(spec, "standard")
        slow = find_inflections(spec, "extended")
        assert slow.precision_used == "extended"
        assert fast.roots[0].p_star == pytest.approx(slow.roots[0].p_star, abs=2e-9)

    def test_standard_mode_never_escalates(self):
        report = find_inflections(make_spec([0.5, 2.5]), "standard")
        assert report.precision_used == "standard"

    @pytest.mark.parametrize(
        "values, root",
        [
            # roots from a bisection of the bracket at 1500 digits
            ([1e-200, 1e-150, 1e305], 1.0006228063675012),
            ([2.1019257329891337e-221, 3.0295754423730255e-202, 8.57918004760298e303], 1.0005839749148068),
        ],
    )
    def test_extended_bisection_past_fifty_decades(self, values, root):
        # at p = 1.125 the terms spread over some 570 decades, and the 50-digit
        # bracket cancels to exactly 0: that is no root, only too few digits
        report = find_inflections(make_spec(values), "extended")
        assert len(report.roots) == 1
        assert report.roots[0].p_star == pytest.approx(root, abs=1e-9)

    @pytest.mark.parametrize("values", [[0.5, 2.5], [1e-5, 1e5]])
    def test_extended_bisection_stops_at_an_exact_root(self, values):
        # the first midpoint of a unit pair's bracket is its root p = 1; there
        # the bracket is noise at any precision, so its sign is no sign
        report = find_inflections(make_spec(values), "extended")
        assert [r.p_star for r in report.roots] == [1.0]
        assert report.roots[0].residual == 0.0


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
        bracket, scale, _ = map(mp.make_mpf, _mp_curvature(spec, mp.mpf(p)._mpf_))
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

    def test_cells_holding_a_root_pair_are_not_isolated(self, rng):
        # Rolle's test proves at most one zero: never on a cell holding two
        for w1 in TestRootPairs.WEIGHTS:
            spec = make_spec(PAIR_VALUES, [w1, 1.0, 2.0])
            first, second = [root.p_star for root in find_inflections(spec).roots[:2]]
            widths = np.exp(rng.uniform(np.log(1e-7), np.log(1.0), 200))
            below = rng.uniform(0.01, 0.99, 200) * widths
            cleared, _, isolated = _ExpSum([spec]).test(first - below, second - below + widths, rolle=True)
            assert not (cleared | isolated).any(), (w1, first, second)

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
            ps = np.concatenate((rng.uniform(*report.scan_range, 6), [r.p_star + rng.normal() for r in report.roots]))
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
        # the canonical instance over +-8192 at 8 points per unit: about
        # 131k grid points, of which a handful near the roots stay live
        spec = make_spec(THREE_ROOT_VALUES)
        [(cells, runs)] = _live_cells([_Grid(-65536, 65536)], _Batch([spec]))
        assert 3 <= len(cells) <= 200
        assert not runs  # every live cell was tested down to its own level


class TestRootPairs:
    """Two roots in one grid cell, found by splitting the cell until each
    part is cleared, isolated by Rolle's test or bracketed."""

    # pairs 5.7e-6, 0.0031 and 2e-5 apart
    WEIGHTS = (3.4823288839002684, 3.482330322265625, 3.482328883954324)

    @pytest.mark.parametrize("w1", WEIGHTS)
    def test_pair_in_one_grid_cell(self, w1, caplog):
        caplog.set_level(logging.DEBUG, logger="lehmer.inflection")
        spec = make_spec(PAIR_VALUES, [w1, 1.0, 2.0])
        report = find_inflections(spec)
        assert len(report.roots) == 3 and report.parity_ok and not report.warnings
        first, second, third = report.roots
        assert -5.375 < first.p_star < second.p_star < -5.25 and 1.375 < third.p_star < 1.5
        for root in (first, second):
            assert root.p_star == pytest.approx(inflection._bisect_mp(spec, *root.bracket), abs=1e-9)
        [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("scan window")]
        assert "0 cells left unresolved" in line, line
        assert _bisection_calls(caplog) <= 2  # the split's brackets are predicted like the grid's

    def test_one_bisection_call_across_a_hundred_decades(self, caplog):
        caplog.set_level(logging.DEBUG, logger="lehmer.inflection")
        report = find_inflections(make_spec([1e-50, 1.0, 1e50]))
        assert len(report.roots) == 1
        assert _bisection_calls(caplog) == 1


def _bisection_calls(caplog):
    """The bisection's kernel calls on the last debug line of a batch."""
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("batch of")][-1:]
    return int(line.split("bisection: ")[1].split(" kernel calls")[0])


class TestGridHalo:
    """One kernel call evaluates the grid: the ends of the live cells and two
    grid points on either side, from which each bracket's local scale and
    the flanks of exact zeros are read."""

    def test_one_kernel_call_for_the_grid(self, rng, monkeypatch):
        # then one exclusion call per split level, and no kernel call below the grid
        levels, isolate_calls = {}, []
        step, isolate = inflection._Split.step, _Batch.isolate

        def stepped(split, *results):
            levels[id(split)] = levels.get(id(split), 0) + 1
            step(split, *results)

        def isolating(batch, *args):
            isolate_calls.append(args)
            return isolate(batch, *args)

        monkeypatch.setattr(inflection._Split, "step", stepped)
        monkeypatch.setattr(_Batch, "isolate", isolating)
        draws = [make_spec(LogUniform().draw(rng, 3).tolist()) for _ in range(8)]
        split_levels = []
        for specs in ([make_spec([1.0, 2.0, 3.0])], [make_spec(THREE_ROOT_VALUES)], draws, [make_spec(*DROPPED_PAIR)]):
            levels.clear()
            isolate_calls.clear()
            batch = _Batch(specs)
            assert len(batch.kernels) == 1
            _collect_brackets(batch, [window.grid for window in _windows(batch)], [[] for _ in specs])
            split_levels.append(max(levels.values(), default=0))
            assert batch.calls == 1, specs
            assert len(isolate_calls) == split_levels[-1], (specs, split_levels[-1])
        assert max(split_levels[:3]) > 0
        assert split_levels[-1] > 1  # the weighted triple's pair needs more than one level

    def test_local_scale_is_the_largest_log_magnitude_nearby(self, rng):
        cluster = Cluster()
        specs = [make_spec(THREE_ROOT_VALUES)]
        specs += [make_spec(LogUniform().draw(rng, 3).tolist()) for _ in range(50)]
        specs += [make_spec(cluster.draw(rng, 4).tolist()) for _ in range(50)]
        checked = 0
        for spec in specs:
            batch = _Batch([spec])
            [window] = _windows(batch)
            grid = window.grid
            [(brackets, _)] = _collect_brackets(batch, [grid], [[]])
            kernel = _Kernel([spec])  # one point per call
            for br in brackets:
                if br.exact_p is None:
                    # grid points k-2 .. k+3 around the bracket's cell [k, k+1]
                    k = math.floor(br.lo * grid.per_unit) - grid.k_lo
                    around = range(max(k - 2, 0), min(k + 4, grid.size))
                else:
                    # a run of zeros: its two flanks
                    around = [round(br.lo * grid.per_unit) - grid.k_lo, round(br.hi * grid.per_unit) - grid.k_lo]
                want = max(float(kernel(np.array([grid.point(j)]))[1][0]) for j in around)
                assert br.local_log_scale == want, (spec.values, br.lo, br.hi)
                checked += 1
        assert checked >= 120, checked


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
    while (active := np.nonzero(hi - lo > tolerance)[0]).size:
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
    """Bisection along predicted paths gives the midpoints of one kernel
    call per step, and takes at least two steps per call."""

    @staticmethod
    def _scan_brackets(spec):
        batch = _Batch([spec])
        [window] = _windows(batch)
        [(brackets, _)] = _collect_brackets(batch, [window.grid], [[]])
        return batch, brackets

    @staticmethod
    def _same(batch, brackets, tolerance):
        expected, step_calls = _stepwise_bisection(batch.kernels[0], brackets, tolerance)
        before = batch.calls
        got = _bisect_all(batch, brackets, tolerance)
        assert np.array_equal(got, expected), (got, expected)
        return batch.calls - before, step_calls

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
            batch, brackets = self._scan_brackets(spec)
            several += len(brackets) > 1
            calls, step_calls = self._same(batch, brackets, 1e-9)
            if step_calls:
                assert calls <= math.ceil(step_calls / 2)
        assert several >= 2  # the canonical four values and the ulp-spaced triple

    def test_exact_zeros(self):
        # the unit-pair kernel is exactly zero at p=1, the first midpoint of [0.5, 1.5]
        batch = _Batch([make_spec([0.5, 2.5])])
        brackets = [
            _Bracket(0.875, 1.125, 1, 0.0, exact_p=1.0),
            _Bracket(0.5, 1.5, 1, 0.0),
            _Bracket(0.25, 0.375, 1, 0.0),
        ]
        self._same(batch, brackets, 1e-9)
        assert _bisect_all(batch, brackets[:2], 1e-9).tolist() == [1.0, 1.0]

    def test_brackets_at_float_resolution_get_stuck(self):
        spec = make_spec([1.0, 2.0, 3.0])
        batch = _Batch([spec])
        root = find_inflections(spec).roots[0].p_star
        brackets = [
            _Bracket(root, math.nextafter(root, 2.0), 1, 0.0),
            _Bracket(math.nextafter(root, -2.0), math.nextafter(math.nextafter(root, 2.0), 2.0), 1, 0.0),
            _Bracket(root - 0.5, root + 0.5, 1, 0.0),
        ]
        self._same(batch, brackets, 0.0)
        self._same(batch, brackets[:1], 0.0)

    def test_a_tiny_tolerance_ends_where_plain_bisection_does(self):
        # halving [-1e30, 1e30] down to the root near 0.71 takes about 150
        # steps, and ends at a midpoint stuck at the resolution of the floats
        spec = make_spec([1.0, 2.0, 3.0])
        brackets = [_Bracket(-1e30, 1e30, 1, 0.0), _Bracket(0.5, 1.0, 1, 0.0)]
        calls, step_calls = self._same(_Batch([spec]), brackets, 1e-300)
        assert step_calls > 128
        assert calls <= math.ceil(step_calls / 2)


def _plain_bisection(spec, br, tolerance):
    """Plain bisection of one bracket, one one-spec kernel call per midpoint: the reference."""
    if br.exact_p is not None:
        return br.exact_p
    kernel = _Kernel([spec])
    lo, hi = br.lo, br.hi
    while hi - lo > tolerance:
        m = 0.5 * (lo + hi)
        if m <= lo or m >= hi:
            return m
        sign = int(kernel(np.array([m]))[0][0])
        if sign == 0:
            return m
        if sign == br.sign_lo:
            lo = m
        else:
            hi = m
    return 0.5 * (lo + hi)


class TestPredictedBisection:
    """Rounds along the path toward the root that Newton's method on the
    exponential sum predicts: the midpoints of plain bisection, in one
    kernel call where the sum locates the root."""

    @staticmethod
    def _specs(rng):
        cluster = Cluster()
        specs = [make_spec(LogUniform().draw(rng, 3).tolist()) for _ in range(100)]
        specs += [make_spec(cluster.draw(rng, int(rng.integers(4, 7))).tolist()) for _ in range(50)]
        specs += [make_spec(THREE_ROOT_VALUES), make_spec([1e-50, 1.0, 1e50]), make_spec([0.5, 2.5], [1.0, 3.0])]
        return specs

    @staticmethod
    def _brackets(specs):
        """The scan's brackets of specs, collected in one batch, and their owners."""
        batch = _Batch(specs)
        collected = _collect_brackets(batch, [window.grid for window in _windows(batch)], [[] for _ in specs])
        brackets = [br for found, _ in collected for br in found]
        owner = np.array([t for t, (found, _) in enumerate(collected) for _ in found], dtype=np.intp)
        return batch, brackets, owner

    # the unit pair's kernel is exactly zero at p = 1: a root the grid hit,
    # and one the first midpoint of [0.5, 1.5] hits
    ZERO_PAIR = [0.5, 2.5]
    ZERO_BRACKETS = [_Bracket(0.875, 1.125, 1, 0.0, exact_p=1.0), _Bracket(0.5, 1.5, 1, 0.0), _Bracket(0.25, 0.375, 1, 0.0)]

    def test_equals_plain_bisection_singly_and_in_batches(self, rng):
        specs = self._specs(rng)
        specs.append(make_spec(self.ZERO_PAIR))
        batch, brackets, owner = self._brackets(specs)
        zero = len(specs) - 1
        brackets += self.ZERO_BRACKETS
        owner = np.concatenate((owner, np.full(len(self.ZERO_BRACKETS), zero, dtype=np.intp)))
        expected = np.array([_plain_bisection(specs[t], br, 1e-9) for t, br in zip(owner.tolist(), brackets)])
        assert len(set(owner.tolist())) == len(specs)  # every spec has a bracket
        assert np.array_equal(_bisect_all(batch, brackets, 1e-9, owner), expected)
        for start in range(0, len(specs), 7):
            part = specs[start : start + 7]
            part_batch, part_brackets, part_owner = self._brackets(part)
            got = _bisect_all(part_batch, part_brackets, 1e-9, part_owner)
            assert np.array_equal(got, expected[(owner >= start) & (owner < start + 7)][: len(part_brackets)])
        singles = [_bisect_all(_Batch([specs[t]]), [br], 1e-9)[0] for t, br in zip(owner.tolist(), brackets)]
        assert np.array_equal(np.array(singles), expected)

    def test_a_wrong_estimate_takes_the_fallback(self, rng, monkeypatch):
        specs = self._specs(rng)[::5]
        batch, brackets, owner = self._brackets(specs)
        counts = Counter()
        expected = _bisect_all(batch, brackets, 1e-9, owner, counts)
        rounds = counts["predicted rounds"]
        newton = inflection._newton

        def wrong(terms, lo, hi, sign_lo):
            # inside the bracket, but on the far side of its midpoint from the estimate
            right = newton(terms, lo, hi, sign_lo) < 0.5 * (lo + hi)
            return lo + (0.999 if right else 0.001) * (hi - lo)

        monkeypatch.setattr(inflection, "_newton", wrong)
        batch, brackets, owner = self._brackets(specs)
        counts = Counter()
        assert np.array_equal(_bisect_all(batch, brackets, 1e-9, owner, counts), expected)
        assert counts["missed"] >= len(brackets)  # every walk, in every predicted round
        assert counts["predicted rounds"] > rounds  # two levels per round, not a whole path

    def test_the_hedge_covers_a_miss_one_level_above_the_last(self, monkeypatch):
        # estimate a point of the half that plain bisection leaves at its
        # second-to-last step: the walk takes the hedge there and still ends
        # in the second call
        spec = make_spec([1.0, 2.0, 3.0])
        batch, [br], owner = self._brackets([spec])
        kernel, lo, hi, visited = _Kernel([spec]), br.lo, br.hi, []
        while hi - lo > _REFINE_TOLERANCE:
            visited.append((lo, hi))
            m = 0.5 * (lo + hi)
            if int(kernel(np.array([m]))[0][0]) == br.sign_lo:
                lo = m
            else:
                hi = m
        (a, b), (c, d) = visited[-2:]
        wrong = 0.5 * (a + c) if c > a else 0.5 * (d + b)  # the midpoint of the half not taken
        monkeypatch.setattr(inflection, "_newton", lambda terms, lo, hi, sign_lo: wrong)
        counts = Counter()
        assert _bisect_all(batch, [br], _REFINE_TOLERANCE, owner, counts).tolist() == [0.5 * (lo + hi)]
        assert batch.calls == 2 and counts["missed"] == 0  # the grid and the path

    def test_one_kernel_call_for_one_root(self):
        batch, brackets, owner = self._brackets([make_spec([1.0, 2.0, 3.0])])
        before = batch.calls
        _bisect_all(batch, brackets, _REFINE_TOLERANCE, owner)
        assert batch.calls - before == 1

    def test_debug_line_says_how_the_refinement_went(self, caplog):
        caplog.set_level(logging.DEBUG, logger="lehmer.inflection")
        for values, roots in (([1.0, 2.0, 3.0], 1), (THREE_ROOT_VALUES, 3)):
            caplog.clear()
            find_inflections(make_spec(values))
            [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("batch of")]
            assert (
                "bisection: 1 kernel calls" in line
                and "1 predicted rounds, 0 walks missed their prediction" in line
                and f"residuals: {roots} deferred, 0 taken at 50 digits" in line
            ), line


def _deferred(root):
    return callable(root.__dict__["_residual"])


class TestDeferredResidual:
    """A residual that only reports read is taken when first read, and is
    the value second_derivative gives."""

    @staticmethod
    def _specs(rng):
        cluster = Cluster()
        specs = [make_spec(LogUniform().draw(rng, 3).tolist()) for _ in range(40)]
        specs += [make_spec(cluster.draw(rng, int(rng.integers(4, 7))).tolist()) for _ in range(20)]
        specs += [make_spec(LogUniform().draw(rng, 4).tolist(), rng.uniform(0.5, 2.0, 4).tolist()) for _ in range(10)]
        specs += [make_spec(THREE_ROOT_VALUES), make_spec([1.0, 2.0, 3.0]), make_spec([0.5, 2.5], [1.0, 3.0])]
        return specs

    @pytest.mark.parametrize("precision", ["auto", "standard", "extended"])
    def test_read_value_is_the_eager_one(self, rng, precision):
        specs = self._specs(rng)
        reports = _scan_many(specs, precision)
        deferred = 0
        for spec, report in zip(specs, reports):
            for root in report.roots:
                deferred += _deferred(root)
        # read in reverse, after every scan: a value must not depend on when it is taken
        for spec, report in reversed(list(zip(specs, reports))):
            if precision == "auto" and report.precision_used == "extended":
                continue  # an escalated root's residual is the "extended" one
            for root in report.roots:
                assert root.residual == abs(second_derivative(spec, root.p_star, precision)), (spec.values, root)
                assert not _deferred(root)
        if precision == "standard":
            assert deferred == 0
        else:
            assert deferred > len(specs) // 2

    def test_equality_hash_and_repr_read_the_value(self):
        spec = make_spec([1.0, 2.0, 3.0])
        first, second = find_inflections(spec), find_inflections(spec)
        assert _deferred(first.roots[0]) and _deferred(second.roots[0])
        assert "residual=" + repr(abs(second_derivative(spec, first.roots[0].p_star))) in repr(first)
        assert first == second and hash(first) == hash(second)
        assert not _deferred(second.roots[0])

    def test_search_takes_no_fifty_digit_residual_until_one_is_read(self, monkeypatch):
        taken = []
        evaluate = calculus._second_derivative_mp

        def counted(*args, **kwargs):
            taken.append(args[1])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(calculus, "_second_derivative_mp", counted)
        hits = search_multi_inflection(SearchConfig(n=3, trials=200, seed=11, values=LogUniform(), min_roots=1))
        assert len(hits) == 200 and not taken
        residuals = [root.residual for hit in hits for root in hit.report.roots]
        assert len(residuals) == 200 and len(taken) > 20

    def test_a_bound_near_the_threshold_takes_fifty_digits_now(self):
        # {1, 2, 3} at its root: both double forms cancel, and their bound is
        # 4.8e-11; move the bracket's local scale across the deferral limit
        spec = make_spec([1.0, 2.0, 3.0])
        batch, [br], owner = TestPredictedBisection._brackets([spec])
        mids = _bisect_all(batch, [br], _REFINE_TOLERANCE, owner)
        p_star = float(mids[0])
        value, bound = _double_second_derivative(spec, p_star, _point(spec, p_star))
        assert 0.0 < bound < math.inf
        limit = math.log(_DEFER_MARGIN * bound / _ESCALATION_FACTOR)
        # at -200 the 50-digit residual, 2.0e-11, is above the threshold: the
        # root escalates, and its "extended" residual is deferred
        for scale, kinds, precision_used in (
            (limit + 0.01, {"deferred": 1}, "standard"),
            (limit - 0.01, {"eager": 1}, "standard"),
            (-200.0, {"eager": 1, "deferred": 1}, "extended"),
        ):
            counts = Counter()
            bracket = _Bracket(br.lo, br.hi, br.sign_lo, scale)
            report = _report(spec, [bracket], mids, (0.0, 0.0), "auto", [], counts)
            assert counts == Counter(kinds), (scale, counts)
            assert report.precision_used == precision_used, scale
            assert _deferred(report.roots[0]) == ("deferred" in kinds)

    def test_no_deferred_root_would_have_escalated(self, rng):
        specs = self._specs(rng)
        specs += [make_spec((1.0 + rng.uniform(-1e-6, 1e-6, 3)).tolist()) for _ in range(10)]
        specs += [make_spec(np.exp(rng.uniform(-200.0, 200.0, 3)).tolist()) for _ in range(10)]
        checked = 0
        for spec in specs:
            batch, brackets, owner = TestPredictedBisection._brackets([spec])
            mids = _bisect_all(batch, brackets, _REFINE_TOLERANCE, owner)
            report = _report(spec, brackets, mids, (0.0, 0.0), "auto", [])
            scale = {(br.lo, br.hi): br.local_log_scale for br in brackets}
            for root in report.roots:
                if _deferred(root):
                    eager = _second_derivative_mp(spec, root.p_star)
                    eager = 0.0 if eager is None else abs(eager)
                    assert not _above_scale(eager, scale[root.bracket]), (spec.values, root.p_star)
                    assert eager == root.residual
                    checked += 1
        assert checked > len(specs) // 2


def _outcome(outcome):
    """An outcome of a scan as text: the report, or the error and its partial report."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}({outcome}) report={getattr(outcome, 'report', None)!r}"
    return repr(outcome)


def _scan_alone(spec, precision):
    try:
        return _outcome(find_inflections(spec, precision))
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
        # evenly spaced values, 0.01 to 0.2 apart: wider windows
        for step in (0.01, 0.05, 0.2):
            specs.append(make_spec([1.0, 1.0 + step, 1.0 + 2.0 * step]))
            specs.append(make_spec([2.0, 2.0 + step, 2.0 + 2.0 * step, 2.0 + 3.0 * step], [1.0, 2.0, 0.5, 1.0]))
        specs.append(make_spec([3.0, 3.0, 3.0]))  # constant
        specs.append(make_spec([1e300, math.nextafter(1e300, math.inf)]))  # equal logs
        specs.append(make_spec([10.0, 10.00001]))  # a unit pair: the window [0.75, 1.25]
        specs.append(make_spec([1.0, 1.0 + 1e-6, 1.0 + 3e-6]))  # certified ends past the cap, 1e6
        return [specs[k] for k in rng.permutation(len(specs))]

    @pytest.mark.parametrize("mode", ["auto", "standard", "extended"])
    def test_batch_outcomes_equal_single_scans(self, rng, mode):
        specs = self._batch_specs(rng)
        alone = [_scan_alone(spec, mode) for spec in specs]
        for batch in (specs, specs[: len(specs) // 3], specs[len(specs) // 3 :]):
            got = [_outcome(outcome) for outcome in _scan_many(batch, mode)]
            assert got == [alone[specs.index(spec)] for spec in batch]
        kinds = [text.split("(", 1)[0] for text in alone]
        assert kinds.count("NoInflectionError") == 2 and "RangeExhaustedError" in kinds
        windows = {text.split("scan_range=", 1)[1].split(")", 1)[0] + ")" for text in alone if "scan_range" in text}
        assert {"(0.75, 1.25)", "(-1000000.0, 1000000.0)"} <= windows
        assert len(windows) >= 20  # one window per spec, of widths from 0.5 to 2e6


class TestPinnedOutcomes:
    """The scan's outcomes on a seeded set, residuals read, pinned by their
    SHA-256 per precision mode. A change that moves an outcome on purpose
    updates the digest and says why in CHANGES.md."""

    DIGESTS = {
        "auto": "1d458cd30b74745f9f318db23501e3fe2f569aaa2a9c98457075226190de5a1a",
        "standard": "07a76bff4641ab616573b7da0310c0254c89db37aa2eb95b2ab795867c4c8c42",
        "extended": "c1866b0e595ddbeca9fd834ba7800f0cd614f82e0d5beb6a8c39eb44cdc40b33",
    }
    NAMED = [
        (0.5, 2.5), (3.0, 7.0), (1e-5, 1e5), (1.0, 2.0, 3.0), tuple(THREE_ROOT_VALUES), (1.0, 1.0001, 1.0002),
        (1e-50, 1.0, 1e50), (1.0, 1.0 + 1e-6, 1.0 + 3e-6), (1.0, 1.0, 2.0), (1.0, 2.0, 2.0, 3.0), (10.0, 10.00001),
        (1e-200, 1e-150, 1e305), (1e-300, 1e300), (3.0, 3.0, 3.0),
    ]
    ULP_TRIPLE = (2.0, 2.0 + 4.440892098500626e-16, 2.0 + 8.881784197001252e-16)

    @classmethod
    def _specs(cls, precision):
        rng = np.random.default_rng(20261020)
        cluster = Cluster()
        specs = [make_spec(LogUniform().draw(rng, 3).tolist()) for _ in range(120)]
        for n in (2, 4, 5, 6):
            specs += [make_spec(LogUniform().draw(rng, n).tolist()) for _ in range(12)]
        for n in (4, 5, 6):
            specs += [make_spec(cluster.draw(rng, n).tolist()) for _ in range(12)]
        for k in range(16):
            n = 2 + k % 4
            specs.append(make_spec(LogUniform().draw(rng, n).tolist(), rng.uniform(0.5, 2.0, n).tolist()))
        specs += [make_spec((1.0 + rng.uniform(-1e-6, 1e-6, 3)).tolist()) for _ in range(8)]
        named = [make_spec(list(values)) for values in cls.NAMED] + [make_spec([0.5, 2.5], [1.0, 3.0])]
        if precision == "auto":
            return specs + named + [make_spec(list(cls.ULP_TRIPLE))]
        return specs[::6] + named

    @pytest.mark.parametrize("precision", ["auto", "standard", "extended"])
    def test_digest_in_batches_of_four_and_singly(self, precision):
        specs = self._specs(precision)
        for size in (4, 1):
            outcomes = []
            for start in range(0, len(specs), size):
                outcomes += [_outcome(o) for o in _scan_many(specs[start : start + size], precision)]
            digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
            assert digest == self.DIGESTS[precision], (precision, size, digest)


class TestBlurredCells:
    """Cells under a coarse cell whose midpoint value is lost in rounding stay
    live untested, as runs: none of them becomes a Python object of its own."""

    def test_ulp_triple_scans_its_runs_in_bounded_memory(self, caplog):
        caplog.set_level(logging.DEBUG, logger="lehmer.inflection")
        spec = make_spec(list(TestPinnedOutcomes.ULP_TRIPLE))
        tracemalloc.start()
        try:
            with pytest.raises(RangeExhaustedError) as info:
                find_inflections(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(info.value.report.roots) == 3
        [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("scan window")]
        assert "400000 live grid cells" in line, line
        # 62 MiB with the cells as index arrays; 108 MiB with one list entry per cell
        assert peak < 80 * 2**20, peak / 2**20
