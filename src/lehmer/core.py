"""Mean specifications and overflow-safe evaluation of the Lehmer mean.

The Lehmer mean of positive values x_1..x_n with positive weights w_1..w_n is

    L(p) = sum_i w_i x_i^p / sum_i w_i x_i^(p-1)

evaluated here entirely in the log domain: both sums are exponent-shifted by
their maximum term so that exponents p of magnitude ~1e4 and values spanning
ten orders of magnitude neither overflow nor underflow. L is monotone
increasing in p, bounded by min(x) and max(x), and tends to those bounds as
p goes to -inf and +inf respectively.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, InvalidSpecError


__all__ = [
    "MeanSpec",
    "MeanValue",
    "Asymptotes",
    "make_spec",
    "lehmer",
    "asymptotes",
    "scale_spec",
    "merge_equal_values",
]


def _log_ratio(xi: float, xk: float, li: float, lk: float) -> float:
    """log(xi / xk) from the values and their logs li, lk; see MeanSpec.log_ratios."""
    if 0.5 * xk <= xi <= 2.0 * xk:
        return math.log1p((xi - xk) / xk)
    ratio = xi / xk
    if sys.float_info.min <= ratio < math.inf:
        return math.log(ratio)
    return li - lk


@dataclass(frozen=True)
class MeanSpec:
    """Immutable positive values plus positive weights defining one mean.

    Construct directly only with already strictly positive values; use
    make_spec for inputs that may contain zeros. Duplicate values are kept
    as distinct entries (the mean treats its input as a multiset); see
    merge_equal_values for the optional normalization. A single-value spec
    is legal and describes the constant function x_1.
    """

    values: tuple[float, ...]
    weights: tuple[float, ...] = field(default=())

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        weights = tuple(float(w) for w in self.weights) if self.weights else tuple(1.0 for _ in values)
        if not values:
            raise InvalidSpecError("at least one positive value is required")
        if len(weights) != len(values):
            raise InvalidSpecError(f"{len(values)} values but {len(weights)} weights")
        for v in values:
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(f"values must be finite and strictly positive, got {v!r}")
        for w in weights:
            if not math.isfinite(w) or w <= 0.0:
                raise DomainError(f"weights must be finite and strictly positive, got {w!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def log_values(self) -> tuple[float, ...]:
        return tuple(math.log(v) for v in self.values)

    @cached_property
    def log_weights(self) -> tuple[float, ...]:
        return tuple(math.log(w) for w in self.weights)

    @cached_property
    def log_ratios(self) -> tuple[tuple[float, ...], ...]:
        """log(x_i / x_k) for every i and k, each to a few ulps of itself.

        Where x_k/2 <= x_i <= 2 x_k the difference x_i - x_k is exact, and
        log1p of it over x_k keeps the digits that log x_i - log x_k loses
        for values a few ulps apart. Elsewhere |log(x_i / x_k)| > log 2, so
        the log of the rounded quotient is accurate; where that quotient
        leaves the normal range, |log(x_i / x_k)| > 708 and the difference
        of the logs is.
        """
        x, l = self.values, self.log_values
        return tuple(tuple(_log_ratio(xi, xk, li, lk) for xk, lk in zip(x, l)) for xi, li in zip(x, l))

    @cached_property
    def pair_table(self) -> tuple[tuple[int, int, float, float, float], ...]:
        """(i, j, lw_i + lw_j, l_i + l_j, lr) for every i < j with x_i != x_j.

        The p-independent constants of the pairwise forms of L' and L''.
        lr = log((x_i - x_j) log(x_i / x_j)) with the log ratio from
        log_ratios, so that values a few ulps apart keep their digits.
        """
        x, l, lw, ratios = self.values, self.log_values, self.log_weights, self.log_ratios
        table = []
        for i in range(len(x)):
            for j in range(i + 1, len(x)):
                if x[i] == x[j]:
                    continue
                lr = math.log(abs(x[i] - x[j])) + math.log(abs(ratios[i][j]))
                table.append((i, j, lw[i] + lw[j], l[i] + l[j], lr))
        return tuple(table)

    @property
    def is_constant(self) -> bool:
        """True when the mean is the constant function (all values equal)."""
        first = self.values[0]
        return all(v == first for v in self.values)

    @property
    def has_unit_weights(self) -> bool:
        return all(w == 1.0 for w in self.weights)


@dataclass(frozen=True)
class MeanValue:
    """One evaluation of the mean: exponent p and the value L(p)."""

    p: float
    value: float

    def __float__(self) -> float:
        return self.value


class Asymptotes(NamedTuple):
    lower: float
    upper: float


def make_spec(values: Iterable[float], weights: Sequence[float] | None = None) -> MeanSpec:
    """Build a MeanSpec, dropping zero values together with their weights.

    Values must be non-negative and weights (when given) strictly positive;
    a zero value contributes nothing to either sum for any p > 0 regime the
    mean is defined on, so it is removed and n shrinks accordingly.

    Raises DomainError for negative values or non-positive weights, and
    InvalidSpecError when nothing remains after filtering.
    """
    vals = [float(v) for v in values]
    if weights is None:
        wts = [1.0] * len(vals)
    else:
        wts = [float(w) for w in weights]
        if len(wts) != len(vals):
            raise InvalidSpecError(f"{len(vals)} values but {len(wts)} weights")
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"values must be finite, got {v!r}")
        if v < 0.0:
            raise DomainError(f"values must be non-negative, got {v!r}")
    for w in wts:
        if not math.isfinite(w) or w <= 0.0:
            raise DomainError(f"weights must be finite and strictly positive, got {w!r}")
    kept = [(v, w) for v, w in zip(vals, wts) if v > 0.0]
    if not kept:
        raise InvalidSpecError("all values are zero; nothing to average")
    return MeanSpec(tuple(v for v, _ in kept), tuple(w for _, w in kept))


def lehmer(spec: MeanSpec, p: float) -> MeanValue:
    """Evaluate L(p). Raises DomainError for non-finite p.

    The returned value is clamped into [min(values), max(values)]; the clamp
    only ever moves the result by rounding-level amounts since the exact mean
    lies in that interval for every p.
    """
    p = float(p)
    if not math.isfinite(p):
        raise DomainError(f"exponent must be finite, got {p!r}")
    value = _lehmer_value(spec, p)
    return MeanValue(p=p, value=value)


def _powers(spec: MeanSpec, p: float) -> tuple[list[float], int, list[float], float]:
    """The shifted terms of sum_i w_i x_i^p for one exponent p: (a, top, u, s).

    a[i] = log w_i + p log x_i, top is the index of the first largest a[i],
    u[i] = exp(a[i] - a[top]) and s = fsum(u), so the sum is exp(a[top]) * s.
    L, the log-moments and both derivatives are all read from the tables of
    p and p - 1. A plain tuple: building a named one twice per call would
    cost L more than sharing the table saves.
    """
    a = [lwi + p * li for lwi, li in zip(spec.log_weights, spec.log_values)]
    shift = max(a)
    u = [math.exp(ai - shift) for ai in a]
    return a, a.index(shift), u, math.fsum(u)


def _lehmer_value(spec: MeanSpec, p: float, num: tuple | None = None, den: tuple | None = None) -> float:
    """L(p); num and den, when given, are _powers(spec, p) and _powers(spec, p - 1.0)."""
    lo = min(spec.values)
    hi = max(spec.values)
    if lo == hi:
        return lo
    l = spec.log_values
    lw = spec.log_weights
    num_a, ia, _, sa = _powers(spec, p) if num is None else num
    # the largest term adds exp(0) = 1 and none is negative, so sb >= 1
    den_a, ib, _, sb = _powers(spec, p - 1.0) if den is None else den
    if ia == ib and sa == 1.0 and sb == 1.0:
        # one value dominates both sums: the mean is that value to the last ulp
        return spec.values[ia]
    if ia == ib:
        # the weight and p-scaled log cancel algebraically
        shift = l[ia]
    elif max(abs(num_a[ia]), abs(den_a[ib])) < 1e3:
        shift = num_a[ia] - den_a[ib]
    else:
        # num_a[ia] - den_a[ib] would cancel two O(|p|) numbers and lose absolute
        # accuracy; in this branch each addend is bounded by the log spreads
        shift = (lw[ia] - lw[ib]) + p * (l[ia] - l[ib]) + l[ib]
    # shift lies in [log lo, log hi], so this exp cannot overflow
    value = math.exp(shift) * (sa / sb)
    return min(max(value, lo), hi)


def asymptotes(spec: MeanSpec) -> Asymptotes:
    """Horizontal asymptotes of L: (min of values, max of values)."""
    return Asymptotes(lower=min(spec.values), upper=max(spec.values))


def scale_spec(spec: MeanSpec, c: float) -> MeanSpec:
    """Spec with every value multiplied by c > 0. L scales by the same c."""
    c = float(c)
    if not math.isfinite(c) or c <= 0.0:
        raise DomainError(f"scale factor must be finite and positive, got {c!r}")
    return MeanSpec(tuple(c * v for v in spec.values), spec.weights)


def merge_equal_values(spec: MeanSpec) -> MeanSpec:
    """Collapse exactly equal values into single entries with summed weights.

    Off the default construction path on purpose: near-equal values are a
    legitimate and interesting input, and even exact duplicates are kept
    unless this normalization is explicitly requested.
    """
    order: list[float] = []
    acc: dict[float, float] = {}
    for v, w in zip(spec.values, spec.weights):
        if v not in acc:
            order.append(v)
            acc[v] = 0.0
        acc[v] += w
    return MeanSpec(tuple(order), tuple(acc[v] for v in order))
