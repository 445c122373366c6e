"""Spans around the calls between lehmer's modules, for the traced run.

The tracer swaps a wrapper into the namespace of the calling module, so a
span covers exactly one call that crosses a module boundary:

    benchmark  -> search, cli, core, calculus   (package-level names)
    search     -> inflection (find_inflections), core (make_spec)
    cli        -> inflection (find_inflections, classify_n3_side), core (make_spec)
    inflection -> calculus (second_derivative residuals, k_constant),
                  core (_lehmer_value, asymptotes)

Calls inside one module are not wrapped. Spans are kept in memory and
written out when the run ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import math
import statistics
from time import perf_counter

# (calling module, attribute, span name)
_SITES = (
    ("lehmer", "search_multi_inflection", "search"),
    ("lehmer.cli", "main", "cli"),
    ("lehmer", "lehmer", "core.lehmer"),
    ("lehmer", "first_derivative", "calculus.first_derivative"),
    ("lehmer", "second_derivative", "calculus.second_derivative"),
    ("lehmer.search", "find_inflections", "inflection.scan"),
    ("lehmer.search", "make_spec", "core.make_spec"),
    ("lehmer.cli", "find_inflections", "inflection.scan"),
    ("lehmer.cli", "classify_n3_side", "inflection.classify"),
    ("lehmer.cli", "make_spec", "core.make_spec"),
    ("lehmer.inflection", "second_derivative", "calculus.second_derivative"),
    ("lehmer.inflection", "k_constant", "calculus.k_constant"),
    ("lehmer.inflection", "_lehmer_value", "core.lehmer"),
    ("lehmer.inflection", "asymptotes", "core.asymptotes"),
)

PER_LAYER_UNITS = {
    "search.self_ms": "ms",
    "search.trials": "count/round",
    "search.hits": "count/round",
    "inflection.scans": "count/round",
    "inflection.scan_ms": "ms",
    "inflection.self_ms": "ms",
    "inflection.half_width": "p",
    "inflection.grid_points": "calc.pts/round",
    "inflection.roots": "count/round",
    "inflection.extended_reports": "count/round",
    "inflection.warnings": "count/round",
    "calculus.residual_calls": "count/round",
    "calculus.residual_ms": "ms",
    "calculus.first_derivative_us": "us",
    "calculus.second_derivative_us": "us",
    "core.lehmer_us": "us",
    "cli.self_ms": "ms",
    "cli.output_bytes": "B",
}

# ScanConfig.grid_points_per_unit and the inflect --grid-density default
GRID_POINTS_PER_UNIT = 8.0


class Tracer:
    """Records spans as [name, start, end, parent, op]; parent is a span index."""

    def __init__(self):
        self.spans: list[list] = []
        self.reports: dict[int, object] = {}  # scan span index -> InflectionReport
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans, stack, reports = self.spans, self._stack, self.reports
        is_scan = name == "inflection.scan"

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if is_scan:
                reports[index] = result
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in _SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def per_layer(self, rounds: int, trials_per_round: int, hits_per_round: int, output_bytes: list[int]) -> dict:
        """The per-layer metrics; counts are per round, times per call or scan."""
        children: dict[int, list[int]] = {}
        for k, span in enumerate(self.spans):
            children.setdefault(span[3], []).append(k)

        def dur(k):
            return self.spans[k][2] - self.spans[k][1]

        def self_time(k):
            return dur(k) - sum(dur(c) for c in children.get(k, ()))

        def named(name):
            return [k for k, s in enumerate(self.spans) if s[0] == name]

        def mean(xs, scale):
            return scale * statistics.fmean(xs) if xs else 0.0

        scans = named("inflection.scan")
        scan_set = set(scans)
        residuals = [k for k in named("calculus.second_derivative") if self.spans[k][3] in scan_set]
        reports = [self.reports[k] for k in scans]
        halves = [r.scan_range[1] for r in reports]

        def per_scan_ms(ks):
            return 1e3 * sum(dur(k) for k in ks) / len(scans) if scans else 0.0

        return {
            "search.self_ms": mean([self_time(k) for k in named("search")], 1e3),
            "search.trials": trials_per_round,
            "search.hits": hits_per_round,
            "inflection.scans": len(scans) / rounds,
            "inflection.scan_ms": mean([dur(k) for k in scans], 1e3),
            "inflection.self_ms": mean([self_time(k) for k in scans], 1e3),
            "inflection.half_width": statistics.median(halves) if halves else 0.0,
            "inflection.grid_points": sum(grid_points(h) for h in halves) / rounds,
            "inflection.roots": sum(len(r.roots) for r in reports) / rounds,
            "inflection.extended_reports": sum(r.precision_used == "extended" for r in reports) / rounds,
            "inflection.warnings": sum(len(r.warnings) for r in reports) / rounds,
            "calculus.residual_calls": len(residuals) / rounds,
            "calculus.residual_ms": per_scan_ms(residuals),
            "calculus.first_derivative_us": mean([dur(k) for k in named("calculus.first_derivative")], 1e6),
            "calculus.second_derivative_us": mean([dur(k) for k in named("calculus.second_derivative")], 1e6),
            "core.lehmer_us": mean([dur(k) for k in named("core.lehmer")], 1e6),
            "cli.self_ms": mean([self_time(k) for k in named("cli")], 1e3),
            "cli.output_bytes": statistics.fmean(output_bytes) if output_bytes else 0.0,
        }


def grid_points(half: float, per_unit: float = GRID_POINTS_PER_UNIT) -> int:
    """Points of the scan grid over [-half, half], counted as the scan builds it."""
    m = math.floor(half * per_unit + 1e-9)
    return 2 * m + 1 + (2 if m / per_unit < half else 0)
