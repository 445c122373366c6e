"""Location of every inflection point of the Lehmer mean.

Strategy: read the scan window from the exponential sum of L'' (see
_ExpSum and _end): past its right end the term of the largest exponent
outweighs all the others, past its left end the term of the smallest, so
L'' keeps its asymptotic sign (positive on the left, negative on the right)
and every root lies inside. Then clear the cells of a uniform grid over
that window that provably hold no zero of L'', coarse cells first; evaluate
L'' only at the ends of the cells that remain and at a halo of two grid
points on either side of them, which gives the flanks of exact zeros and
the local scale of each bracket; bracket every sign change between the ends
of a remaining cell; split the remaining cells without one at dyadic
midpoints, again clearing what can be cleared; and refine all brackets by
bisection in about two kernel calls (see _bisect_all): the first gives the
signs at the next six levels of midpoints of every open bracket, each
bracket takes up to six steps from them, and the signs and magnitudes
there predict its root; the second evaluates, per level down to the
tolerance, the midpoint bisection takes toward that prediction and that of
the other half. A walk that leaves the path takes six levels again. The
steps, and so the midpoints, are those of one kernel call per step.

A root's residual |L''(p*)| that would need 50 digits and decides nothing
is taken when it is first read (see _report): search and verify never read
one.

Specs are scanned in batches (_scan_many; find_inflections is a batch of
one). The exclusion levels, the grid, the split levels and every round of
bisection run in lock-step for the whole batch: each
makes one kernel (or exclusion) call per shape of spec (n and the pairs the
kernel keeps), with every spec's constants gathered per point or cell. The
residuals, the 50-digit refinement and the reports are per spec. A point's
result does not depend on what else is in its call, so a spec gets the same
report in any batch. Between the calls, a spec's cells, grid points, zero
runs, sign changes, split cells and brackets, and each bisection round's
results, are plain lists and dicts; only runs of untested cells stay arrays.

A cell is cleared by the exponential-sum form of L'' (see _ExpSum): either
one term outweighs all the others on the whole cell, or the value at its
midpoint exceeds the half-width times a bound on the slope. Both tests
carry a rounding bound, so a cell that holds a root is never cleared.

Signs come from an equivalent pairwise form that carries sign and log
magnitude separately, so endpoint sign tests stay meaningful at exponents
where the raw second derivative underflows:

    sign(L''(p)) = sign( sum_{i<j} exp(t_ij) (d_i + d_j) )
    t_ij = log(w_i w_j (x_i - x_j)(log x_i - log x_j)) + (p-1)(log x_i + log x_j)
    d_i  = sum_k v_k (log x_i - log x_k) / sum_k v_k,   v_k = w_k x_k^(p-1)

Each t_ij term is shifted by the running maximum before exponentiation.
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Sequence

import numpy as np

from .calculus import (
    _check_precision,
    _double_second_derivative,
    _fifty_digit_second_derivative,
    _mp_sign,
    k_constant,
    second_derivative,
)
from .core import MeanSpec, _point, merge_equal_values
from .core import _lehmer_value, asymptotes  # noqa: F401  -- perfbench/spans.py traces these names here
from .errors import DegenerateError, NoInflectionError, RangeExhaustedError, UsageError


__all__ = [
    "InflectionRoot",
    "InflectionReport",
    "CountBound",
    "count_bound",
    "find_inflections",
    "weighted_n2_inflection",
    "classify_n3_side",
]

_log = logging.getLogger(__name__)

# one scan policy for every caller; the benchmark's grid counts (perfbench/)
# assume these values
_MAX_HALF_WIDTH = 1e6          # a window end past this cap: RangeExhaustedError
_GRID_POINTS_PER_UNIT = 8.0    # scan grid points per unit of p
_REFINE_TOLERANCE = 1e-9       # bisection stops at brackets this wide
_SPLIT_DEPTH = 12
_COARSE_CELLS = 128            # about this many cells start the exclusion
_BRANCH = 16                   # parts per surviving cell at the next exclusion level
_MARGIN = 1e-9                 # relative slack on every exclusion comparison
_U = 2.0**-53                  # unit roundoff of doubles
_LN2 = math.log(2.0)
_ESCALATION_FACTOR = 1e-3      # refined residual vs local curvature scale
_DEFER_MARGIN = 1e3            # a residual bounded this far below the escalation threshold waits until read
_CHUNK_ELEMENTS = 1 << 21      # elements per vectorized kernel chunk
_TEST_ELEMENTS = 1 << 16       # cells times terms per exclusion chunk
_PARTIAL_BUDGET = 400_000      # grid points for the post-exhaustion pass
_MAX_BISECT_ITER = 128         # bisection steps per bracket
_SECTION_DEPTH = 6             # bisection levels of a tree round
_WINDOW_STEPS = 64             # Newton steps per window end before it counts as not certifiable


class _Deferred:
    """A float field that may be given as a function of no arguments, which
    gives its value when the field is first read; equality, hash and repr
    read it, so they see the value."""

    def __set_name__(self, owner, name: str):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.slot[1:])  # so the dataclass gives the field no default
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class InflectionRoot:
    p_star: float
    bracket: tuple[float, float]
    residual: float = _Deferred()  # |L''(p_star)|, taken when first read where it is 50-digit work
    direction: str  # "convex-to-concave" or "concave-to-convex"


@dataclass(frozen=True)
class InflectionReport:
    roots: tuple[InflectionRoot, ...]
    parity_ok: bool
    bound_j: int
    scan_range: tuple[float, float]
    precision_used: str
    warnings: tuple[str, ...] = ()


class CountBound(NamedTuple):
    j: int
    n_terms: int


def count_bound(n: int) -> CountBound:
    """Cap on the number of inflection points for n values.

    n_terms = n(n+4)(n-1)/6 counts the terms of the exponential polynomial
    whose zeros are the inflection points, so at most n_terms - 1 real zeros
    exist; since the count must be odd, an even cap drops by one more.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise UsageError(f"need an integer n >= 2, got {n!r}")
    n_terms = n * (n + 4) * (n - 1) // 6
    j = n_terms - 1
    if j % 2 == 0:
        j -= 1
    return CountBound(j=j, n_terms=n_terms)


# ---------------------------------------------------------------------------
# sign kernel


def _shape(spec: MeanSpec) -> tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """(n, pairs of distinct values, pairs the kernel keeps): specs of one
    shape share a kernel and an exclusion sum in a batch.

    The kernel drops a pair whose (x_i - x_j)(log x_i - log x_j) is not
    positive: equal values, or logs that collide at working precision.
    """
    x, l = spec.values, spec.log_values
    pairs = [(i, j) for i in range(spec.n) for j in range(i + 1, spec.n)]
    distinct = tuple((i, j) for i, j in pairs if x[i] != x[j])
    kept = tuple((i, j) for i, j in pairs if (x[i] - x[j]) * (l[i] - l[j]) > 0.0)
    return spec.n, distinct, kept


def _column_sums(a: np.ndarray) -> np.ndarray:
    """The sum of each column of a, one column per point.

    Each column rounds as numpy's sum along one row of a.T, the layout of
    one point per row: below eight terms numpy adds them in order, from
    eight on pairwise. Either way a point's sum is made of its own terms
    only, in an order that does not depend on the other columns.
    """
    if a.shape[0] < 8:
        return a.sum(axis=0)
    return np.ascontiguousarray(a.T).sum(axis=1)


class _Kernel:
    """Vectorized sign and log|L''| over arrays of exponents, for specs of one shape.

    Each spec's constants are one column of a table; a call gathers the
    column of each point's spec (rows; None for a kernel of one spec), so
    that every quantity is an array with one column per point. Every point
    goes through the same elementwise operations in the same order, and
    every sum or maximum runs over its own column, so its result does not
    depend on what else the call holds. calls and points count what the
    kernel has evaluated.
    """

    def __init__(self, specs: Sequence[MeanSpec], kept: Sequence[tuple[int, int]] | None = None):
        x = np.array([s.values for s in specs], dtype=float).T
        l = np.array([s.log_values for s in specs], dtype=float).T
        lw = np.array([s.log_weights for s in specs], dtype=float).T
        n = x.shape[0]
        kept = _shape(specs[0])[2] if kept is None else kept  # the pairs of _shape
        self.ii, self.jj = (np.array(idx, dtype=np.intp) for idx in zip(*kept))
        prod = (x[self.ii] - x[self.jj]) * (l[self.ii] - l[self.jj])
        g = lw[self.ii] + lw[self.jj] + np.log(prod)
        sl = l[self.ii] + l[self.jj]
        ldiff = (l[:, None, :] - l[None, :, :]).reshape(n * n, len(specs))  # [i, k] = l_i - l_k
        self.table = np.concatenate((l, lw, ldiff, sl, g))
        self.size = len(specs)
        self.n = n
        self.n_pairs = int(self.ii.shape[0])
        self.calls = 0
        self.points = 0

    def __call__(self, ps: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        ps = np.atleast_1d(np.asarray(ps, dtype=float))
        m = ps.shape[0]
        self.calls += 1
        self.points += m
        chunk = max(1, _CHUNK_ELEMENTS // max(self.n * self.n, self.n_pairs))
        parts = []
        for s in range(0, m, chunk):
            consts = self.table[:, :1] if rows is None else np.take(self.table, rows[s : s + chunk], axis=1)
            parts.append(self._eval(ps[s : s + chunk], consts))
        if len(parts) == 1:
            return parts[0]
        return np.concatenate([s for s, _ in parts]), np.concatenate([lm for _, lm in parts])

    def _eval(self, ps: np.ndarray, consts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, n_pairs = self.n, self.n_pairs
        l = consts[:n]
        lw = consts[n : 2 * n]
        ldiff = consts[2 * n : 2 * n + n * n].reshape(n, n, -1)
        sl = consts[2 * n + n * n : 2 * n + n * n + n_pairs]
        g = consts[2 * n + n * n + n_pairs :]
        q = ps - 1.0
        b = lw + q * l
        shift = b.max(axis=0)
        v = np.exp(b - shift)
        sv = _column_sums(v)
        vl = v[0] * ldiff[:, 0]  # sum_k v_k (l_i - l_k), k in order
        for k in range(1, n):
            vl += v[k] * ldiff[:, k]
        d = vl / sv
        t = q * sl + g
        t_max = t.max(axis=0)
        qsum = _column_sums(np.exp(t - t_max) * (d[self.ii] + d[self.jj]))
        with np.errstate(divide="ignore"):
            logmag = t_max + np.log(np.abs(qsum)) - 2.0 * (shift + np.log(sv))
        return np.sign(qsum).astype(np.int8), logmag


# ---------------------------------------------------------------------------
# certified exclusion


def _exp_terms(spec: MeanSpec) -> tuple[list[float], ...]:
    """The mantissas, their radii, the binary exponents k_t, the exponents
    a_t and their error bounds e_a_t of the merged terms of _ExpSum."""
    x = spec.values
    l = spec.log_values
    w = spec.weights
    n = spec.n
    el = [4.0 * _U * abs(v) for v in l]
    parts: dict[tuple[int, ...], list[tuple[float, float, float, float, float]]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            if dx == 0.0:
                continue  # equal values contribute exactly nothing
            ld = l[i] - l[j]
            e_ld = el[i] + el[j] + _U * abs(ld)
            s = l[i] + l[j]
            e_s = el[i] + el[j] + _U * abs(s)
            for k in range(n):
                cb = s - 2.0 * l[k]
                e_cb = e_s + 2.0 * el[k] + _U * abs(cb)
                a = s + l[k]
                core = ld * cb if dx > 0.0 else -(ld * cb)
                rad = e_ld * abs(cb) + abs(ld) * e_cb + e_ld * e_cb + 4.0 * _U * abs(core)
                key = tuple(sorted((i, j, k)))
                parts.setdefault(key, []).append((abs(dx), core, rad, a, e_s + el[k] + _U * abs(a)))
    mant, rads, expo, a, e_a = [], [], [], [], []
    for key, group in parts.items():
        # in units of D, the largest |x_i - x_j| of the group
        d_max = max(item[0] for item in group)
        g = rad = 0.0
        for adx, core, rad_core, _, _ in group:
            ratio = adx / d_max  # an underflow here costs < 1e-300 of g
            g += core * ratio
            rad += rad_core * ratio + 4.0 * _U * abs(core * ratio) + 1e-300
        # W D as an exact power of two times a mantissa good to 4 roundings
        scale, k_t = 1.0, 0
        for factor in (w[key[0]], w[key[1]], w[key[2]], d_max):
            fm, fe = math.frexp(factor)
            scale *= fm
            k_t += fe
        shift = math.frexp(scale * max(abs(g), rad))[1]
        m_c = math.ldexp(scale * g, -shift)
        mant.append(m_c)
        rads.append(math.ldexp(scale * rad, -shift) * (1.0 + 8.0 * _U) + 6.0 * _U * abs(m_c))
        expo.append(k_t + shift)
        a.append(group[0][3])
        e_a.append(max(item[4] for item in group))
    return mant, rads, expo, a, e_a


class _ExpSum:
    """A positive multiple of L'' as an exponential sum in q = p - 1.

    Multiplying the kernel's pairwise form by sum_k v_k gives

        f(q) = sum_{i<j} sum_k c_ijk exp(q a_ijk),   a_ijk = l_i + l_j + l_k
        c_ijk = w_i w_j w_k (x_i - x_j)(l_i - l_j)(l_i + l_j - 2 l_k)

    Terms with the same multiset {i, j, k} share their exponent and are
    merged, which leaves the n(n+4)(n-1)/6 terms of count_bound. The sum is
    built in doubles with a rounding bound. Coefficient t is 2^k_t times a
    mantissa near 1, known to within a radius; exponent a_t is off by at
    most e_a_t. math.log is taken to be within 2 ulp.

    Specs with the same n and the same pairs of distinct values have the
    same terms; each spec is one column of every field, and a test gathers
    the column of each cell's spec (rows; None for one spec).
    """

    def __init__(self, specs: Sequence[MeanSpec]):
        # each field a (term, spec) table
        m_c, m_r, expo, a, e_a = np.array([_exp_terms(spec) for spec in specs], dtype=float).transpose(1, 2, 0)
        absm = np.abs(m_c)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_c, log_r, log_hi, log_lo = np.log(
                np.stack((absm, m_r, (absm + m_r) * (1.0 + _U), np.maximum(absm - m_r, 0.0) * (1.0 - _U)))
            )
        self.n_terms = m_c.shape[0]
        # logs of the mantissa, of its radius and of the bounds on |c_t|, the
        # last three already widened by the error of log itself
        log_r = log_r + 4.0 * _U * (np.abs(log_r) + 1.0)
        log_hi = log_hi + 4.0 * _U * (np.abs(log_hi) + 1.0)
        log_lo = log_lo - 4.0 * _U * (np.abs(log_lo) + 1.0)
        eps_c = 4.0 * _U * (np.where(np.isfinite(log_c), np.abs(log_c), 0.0) + 1.0)
        rank = log_c + _LN2 * expo  # log|c_t| to pick each cell's top term
        self.table = np.array((np.sign(m_c), expo, a, e_a, log_c, log_r, log_hi, log_lo, eps_c, rank))

    def test(
        self, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(cleared, sign) for the closed cells [lo, hi] of p; see _test."""
        chunk = max(1, _TEST_ELEMENTS // self.n_terms)
        parts = []
        for s in range(0, lo.shape[0], chunk):
            terms = self.table[:, :, :1] if rows is None else np.take(self.table, rows[s : s + chunk], axis=2)
            parts.append(self._test(lo[s : s + chunk], hi[s : s + chunk], terms))
        if len(parts) == 1:
            return parts[0]
        return np.concatenate([c for c, _ in parts]), np.concatenate([s for _, s in parts])

    def _test(self, lo: np.ndarray, hi: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cleared, sign) for the closed cells [lo, hi] of p.

        cleared is True where L'' provably has no zero on the cell, by one
        of two tests: (2) one term outweighs the sum of all the others on
        the whole cell; (1) |f(m)| minus its rounding bound exceeds the
        half-width r times max |f'| on the cell, m the midpoint. sign is the
        sign of L'' at m where the rounding bound settles it, else 0.

        Each cell divides f by exp(theta q), theta the exponent of the term
        largest at m, and by that term's size. terms holds the fields of the
        spec of each cell, one column per cell, or one column for all cells;
        every array below has one column per cell.
        """
        sign_c, k, a, e_a, log_c, log_r, log_hi, log_lo, eps_c, rank = terms
        m = 0.5 * (lo + hi) - 1.0
        r0 = 0.5 * (hi - lo)
        am = np.abs(m)
        r = r0 + 4.0 * _U * (am + r0 + 1.0)  # covers the rounding of m and r0
        cols = np.arange(m.shape[0])
        own = cols if terms.shape[2] > 1 else 0  # the column of each cell's spec
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            top = np.argmax(rank + a * m, axis=0)
            d = a - a[top, own]
            ad = np.abs(d)
            dk = _LN2 * (k - k[top, own])
            dm = d * m
            spread = ad * r
            shift = dk + dm  # log size of each term against the top one at m, before mantissas
            eta = eps_c + eps_c[top, own] + 8.0 * _U * (np.abs(dk) + np.abs(dm) + spread) + e_a * (am + r)

            floor = log_lo[top, own] - eta[top, cols]
            share = np.exp(log_hi - floor + shift + spread + eta)
            share[top, cols] = 0.0
            dominant = _column_sums(share) < 1.0 - _MARGIN

            base = log_c[top, own]
            val = np.exp(log_c - base + shift)
            f_mid = _column_sums(val * sign_c)
            err = (
                _column_sums(val * np.expm1(eta))
                + _column_sums(np.exp(log_r - base + shift + eta))
                + 2.0 * _U * (self.n_terms + 4) * _column_sums(val)
                + 1e-300 * self.n_terms
            )
            growth = np.exp(log_hi - base + shift + spread + eta) * (ad * (1.0 + 2.0 * _U) + e_a)
            slope = (1.0 + 4.0 * _U) * r * _column_sums(growth)
            flat = np.abs(f_mid) - err > slope * (1.0 + _MARGIN)
            sign = np.where(np.abs(f_mid) > err * (1.0 + _MARGIN), np.sign(f_mid), 0.0)
        return dominant | flat, sign.astype(np.int8)


# ---------------------------------------------------------------------------
# scan machinery


class _Bracket(NamedTuple):
    lo: float
    hi: float
    sign_lo: int
    local_log_scale: float
    exact_p: float | None = None  # set when the grid hit the root exactly


class _Grid:
    """The uniform scan grid k/per_unit for k in [k_lo, k_hi], as index
    arithmetic: index i is the point (k_lo + i)/per_unit."""

    def __init__(self, k_lo: int, k_hi: int, per_unit: float = _GRID_POINTS_PER_UNIT):
        self.k_lo = k_lo
        self.per_unit = per_unit
        self.size = k_hi - k_lo + 1

    def point(self, k: int) -> float:
        return float(k + self.k_lo) / self.per_unit

    @property
    def span(self) -> tuple[float, float]:
        return self.point(0), self.point(self.size - 1)


class _Batch:
    """The kernels and exclusion sums of a batch of specs, one of each per shape.

    Points and cells carry the index of their spec in the batch (owner); a
    call makes one kernel or exclusion call per shape among its owners, and
    none for an empty call. shapes, where given, are the specs' _shape.
    """

    def __init__(self, specs: Sequence[MeanSpec], shapes: Sequence[tuple] | None = None):
        groups: dict[tuple, list[int]] = {}
        for k, shape in enumerate(map(_shape, specs) if shapes is None else shapes):
            groups.setdefault(shape, []).append(k)
        self.specs = specs
        self.group = np.empty(len(specs), dtype=np.intp)
        self.row = np.empty(len(specs), dtype=np.intp)
        self.kernels, self.expsums = [], []
        for g, (shape, members) in enumerate(groups.items()):
            self.group[members] = g
            self.row[members] = np.arange(len(members))
            self.kernels.append(_Kernel([specs[k] for k in members], shape[2]))
            self.expsums.append(_ExpSum([specs[k] for k in members]))

    @property
    def calls(self) -> int:
        return sum(kernel.calls for kernel in self.kernels)

    @property
    def points(self) -> int:
        return sum(kernel.points for kernel in self.kernels)

    def _per_shape(self, calls: list, arrays: tuple[np.ndarray, ...], owner: Sequence[int], dtypes: tuple):
        """calls[g](*arrays, rows) for the entries of each shape g among
        owner, its results put back in place; rows is None where the group
        holds one spec."""
        if len(calls) == 1 and arrays[0].shape[0]:
            return calls[0](*arrays, None if self.kernels[0].size == 1 else self.row[owner])
        owner = np.asarray(owner, dtype=np.intp)
        group = self.group[owner]
        outs = tuple(np.zeros(arrays[0].shape[0], dtype=dtype) for dtype in dtypes)
        for g in np.unique(group).tolist():
            where = np.nonzero(group == g)[0]
            rows = None if self.kernels[g].size == 1 else self.row[owner[where]]
            for out, got in zip(outs, calls[g](*(a[where] for a in arrays), rows)):
                out[where] = got
        return outs

    def __call__(self, ps: np.ndarray, owner: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        return self._per_shape(self.kernels, (ps,), owner, (np.int8, float))

    def test(self, lo: np.ndarray, hi: np.ndarray, owner: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        return self._per_shape([expsum.test for expsum in self.expsums], (lo, hi), owner, (bool, np.int8))

    def lists(self, call, parts: dict[int, tuple[list[float], ...]]) -> dict[int, tuple[list, ...]]:
        """call (self or self.test) once on the lists of every spec in parts,
        joined into arrays; its results as lists, split back per spec."""
        owner = np.repeat(list(parts), [len(lists[0]) for lists in parts.values()])
        joined: list[list[float]] = [[] for _ in next(iter(parts.values()))]
        for lists in parts.values():
            for whole, part in zip(joined, lists):
                whole += part
        outs = [iter(out.tolist()) for out in call(*(np.array(whole, dtype=float) for whole in joined), owner)]
        return {k: tuple(list(islice(out, len(lists[0]))) for out in outs) for k, lists in parts.items()}


def _live_cells(grids: Sequence[_Grid], batch: _Batch) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """For each spec of the batch, the grid cells [k, k+1] that exclusion
    cannot clear.

    About _COARSE_CELLS cells of a power-of-two number of grid cells are
    tested first; each survivor is cut into _BRANCH equal parts and tested
    again, until single grid cells remain. A survivor whose midpoint value
    is lost in rounding is not cut further: splitting cannot clear it, so
    all its grid cells stay live untested. Each level is one exclusion call
    for the specs still descending. Returns, per spec, the sorted cells
    tested down to their own level, and the sorted runs [a, b) of untested
    cells.
    """
    n_cells = [grid.size - 1 for grid in grids]
    width = [1 << max(0, ((n - 1) // _COARSE_CELLS).bit_length()) for n in n_cells]
    lo: list[Sequence[int]] = [range(0, n, w) for n, w in zip(n_cells, width)]
    tested: list[list[int]] = [[] for _ in grids]
    blurred: list[list[tuple[int, int]]] = [[] for _ in grids]
    active = list(range(len(grids)))
    while active:
        cells = {}
        for k in active:
            k_lo, per_unit, n, w = grids[k].k_lo, grids[k].per_unit, n_cells[k], width[k]
            cells[k] = ([(c + k_lo) / per_unit for c in lo[k]], [(c + w + k_lo) / per_unit for c in lo[k]])
            if lo[k] and lo[k][-1] + w > n:  # only the last cell can reach past the grid
                cells[k][1][-1] = (n + k_lo) / per_unit
        results = batch.lists(batch.test, cells)
        descending = []
        for k in active:
            cleared, sign = results[k]
            n, w = n_cells[k], width[k]
            if w == 1:
                tested[k] = [c for c, gone in zip(lo[k], cleared) if not gone]
                continue
            step = max(w // _BRANCH, 1)
            below: list[int] = []
            for c, gone, s in zip(lo[k], cleared, sign):
                if gone:
                    continue
                if s == 0:
                    blurred[k].append((c, min(c + w, n)))
                else:
                    below += range(c, min(c + w, n), step)
            lo[k], width[k] = below, step
            if below:
                descending.append(k)
        active = descending
    return [(cells, sorted(runs)) for cells, runs in zip(tested, blurred)]


class _Split:
    """One spec's equal-sign tested live cells, split at dyadic midpoints.

    cells holds (lo, hi, sign, grid cell) of each part still to split, found
    the brackets (lo, hi, sign_lo, grid cell) of the sign changes found.
    """

    def __init__(self, cells: list[tuple[float, float, int, int]], uncleared: int):
        self.cells, self.uncleared = cells, uncleared
        self.found: list[tuple[float, float, int, int]] = []
        self.warnings: list[str] = []

    def step(self, mids: list[float], sm: list[int]) -> None:
        """Bracket the halves whose midpoint sign differs, keep the others:
        the lower halves, then the upper ones."""
        kept = []
        for (lo, hi, sign, k), m, s in zip(self.cells, mids, sm):
            if s == 0:
                self.warnings.append(
                    f"tangential zero of the second derivative near p={m:.6g}; not counted as an inflection"
                )
            elif s != sign:
                self.found += [(lo, m, sign, k), (m, hi, s, k)]
            else:
                kept.append((lo, m, hi, sign, k))
        self.cells = [(lo, m, s, k) for lo, m, _, s, k in kept] + [(m, hi, s, k) for _, m, hi, s, k in kept]

    def clear(self, cleared: list[bool], sign: list[int]) -> None:
        # a half whose midpoint value is lost in rounding cannot be cleared
        # by splitting it further, and the kernel's signs there are noise
        self.uncleared += sum(not gone and s == 0 for gone, s in zip(cleared, sign))
        self.cells = [cell for cell, gone, s in zip(self.cells, cleared, sign) if not gone and s != 0]


class _OnGrid(dict):
    """One spec's live cells, and the kernel's results around them as a dict
    from grid point to (sign, log|L''|).

    The ends of every live cell and two grid points on either side are
    evaluated: the flanks of a run of zeros and the local scale of a
    bracket. Those around tested cells (near) are the dict's own entries.
    Those around each run of untested cells form one span [s, e), whose
    results stay arrays; a point missing from the dict is read from them.
    """

    def __init__(self, grid: _Grid, cells: list[int], runs: list[tuple[int, int]]):
        self.grid, self.cells, self.runs = grid, cells, runs
        self.spans: list[list] = []  # [s, e, the runs inside, signs, logmag]
        for a, b in runs:
            if self.spans and a - 2 <= self.spans[-1][1]:
                self.spans[-1][1:3] = min(b + 3, grid.size), self.spans[-1][2] + [(a, b)]
            else:
                self.spans.append([max(a - 2, 0), min(b + 3, grid.size), [(a, b)], None, None])
        self.near: list[int] = []
        for c in cells:
            self.near += range(max(c - 2, self.near[-1] + 1 if self.near else 0), min(c + 4, grid.size))
        if self.spans:
            self.near = [k for k in self.near if not any(s <= k < e for s, e, *_ in self.spans)]

    def __missing__(self, k: int) -> tuple[int, float]:
        for s, e, _, signs, logmag in self.spans:
            if s <= k < e:
                return int(signs[k - s]), float(logmag[k - s])
        raise KeyError(k)

    def local_scale(self, k: int) -> float:
        return max(self[j][1] for j in range(max(k - 2, 0), min(k + 4, self.grid.size)))

    def scan(self, warnings: list[str]) -> tuple[list[_Bracket], _Split]:
        """The brackets of the runs of live-cell ends where the kernel is
        exactly zero (a root that fell on the grid, or a tangential touch)
        and of the cells whose ends differ in sign; and the tested cells
        whose ends share one, to split. Untested ones count as uncleared."""
        grid, zeros, changes, flat, uncleared = self.grid, [], [], [], 0
        for c in self.cells:
            (s_lo, _), (s_hi, _) = self[c], self[c + 1]
            if s_lo == 0:
                zeros.append(c)
            if s_hi == 0:
                zeros.append(c + 1)
            if s_lo * s_hi < 0:
                changes.append(c)
            elif s_lo == s_hi != 0:
                flat.append((grid.point(c), grid.point(c + 1), s_lo, c))
        for s, _, runs, signs, _ in self.spans:
            for a, b in runs:
                ends = signs[a - s : b - s + 1]
                s_lo, s_hi = ends[:-1], ends[1:]
                zeros += (np.flatnonzero(ends == 0) + a).tolist()
                changes += (np.flatnonzero(s_lo * s_hi < 0) + a).tolist()
                uncleared += int(np.count_nonzero((s_lo == s_hi) & (s_lo != 0)))
        runs: list[list[int]] = []
        for k in sorted(set(zeros)):
            if runs and runs[-1][1] == k - 1:
                runs[-1][1] = k
            else:
                runs.append([k, k])
        brackets: list[_Bracket] = []
        for a, b in runs:
            if a == 0 or b == grid.size - 1:
                warnings.append(f"zero curvature at scan boundary near p={grid.point(a):.6g}; skipped")
                continue
            mid = grid.point((a + b) // 2)
            (s_left, lm_left), (s_right, lm_right) = self[a - 1], self[b + 1]
            if s_left != s_right:
                brackets.append(_Bracket(grid.point(a - 1), grid.point(b + 1), s_left, max(lm_left, lm_right), mid))
            else:
                warnings.append(
                    f"tangential zero of the second derivative near p={mid:.6g}; not counted as an inflection"
                )
        for k in sorted(changes) if self.spans else changes:
            brackets.append(_Bracket(grid.point(k), grid.point(k + 1), self[k][0], self.local_scale(k)))
        return brackets, _Split(flat, uncleared)


def _collect_brackets(
    batch: _Batch, grids: Sequence[_Grid], warnings: Sequence[list[str]]
) -> list[tuple[list[_Bracket], tuple[int, int, int]]]:
    """For each spec of the batch, the brackets, sorted, of every sign
    change of L'' on its grid and in its split cells.

    Also returns, per spec, the counts for the scan's debug line: live grid
    cells, kernel points on the grid (halo included), and split cells left
    uncleared. The grid, with a halo of two points on either side of every
    live cell, and each split level are one kernel call each for the whole
    batch.
    """
    on_grid = [_OnGrid(grid, *live) for grid, live in zip(grids, _live_cells(grids, batch))]
    # one kernel call: every spec's near points, then every span
    spans = [(k, span) for k, g in enumerate(on_grid) for span in g.spans]
    ps = [(k + g.grid.k_lo) / g.grid.per_unit for g in on_grid for k in g.near]
    sizes = [len(g.near) for g in on_grid] + [e - s for _, (s, e, *_) in spans]
    owner = np.repeat(list(range(len(on_grid))) + [k for k, _ in spans], sizes)
    pieces = [np.array(ps)] + [(np.arange(s, e) + grids[k].k_lo) / grids[k].per_unit for k, (s, e, *_) in spans]
    signs, logmag = batch(np.concatenate(pieces), owner)
    near = iter(zip(signs[: len(ps)].tolist(), logmag[: len(ps)].tolist()))
    for g in on_grid:
        g.update(zip(g.near, near))
    head = len(ps)
    for (_, span), size in zip(spans, sizes[len(on_grid) :]):
        span[3:] = signs[head : head + size], logmag[head : head + size]
        head += size

    found, splits = zip(*(g.scan(spec_warnings) for g, spec_warnings in zip(on_grid, warnings)))
    # equal-sign tested cells: split at dyadic midpoints, keeping the halves
    # exclusion cannot clear, for _SPLIT_DEPTH levels
    for _depth in range(_SPLIT_DEPTH):
        active = [k for k, split in enumerate(splits) if split.cells]
        if not active:
            break
        mids = {k: ([0.5 * (lo + hi) for lo, hi, _, _ in splits[k].cells],) for k in active}
        at_mids = batch.lists(batch, mids)
        for k in active:
            splits[k].step(mids[k][0], at_mids[k][0])
        ends = {k: ([lo for lo, _, _, _ in splits[k].cells], [hi for _, hi, _, _ in splits[k].cells]) for k in active}
        tests = batch.lists(batch.test, ends)
        for k in active:
            splits[k].clear(*tests[k])
    out = []
    for g, brackets, split, spec_warnings in zip(on_grid, found, splits, warnings):
        split.uncleared += len(split.cells)  # survivors of the last level are dropped
        spec_warnings.extend(split.warnings)
        brackets += [_Bracket(lo, hi, sign_lo, g.local_scale(k)) for lo, hi, sign_lo, k in split.found]
        brackets.sort(key=lambda br: br.lo)
        live = len(g.cells) + sum(b - a for a, b in g.runs)
        out.append((brackets, (live, len(g.near) + sum(e - s for s, e, *_ in g.spans), split.uncleared)))
    return out


def _sections(lo: np.ndarray, hi: np.ndarray, depth: int) -> np.ndarray:
    """The midpoints of the next depth bisection levels of each [lo, hi].

    Row t holds the 2^depth - 1 midpoints of bracket t in ascending order.
    Level d splits the 2^d intervals between consecutive breakpoints (lo,
    hi and the midpoints of the levels above), so the point halfway between
    two others, by index, is the midpoint that plain bisection takes there.
    Points the walk cannot reach, below an interval within tolerance or a
    midpoint stuck at the resolution of the floats, are computed all the
    same and never read.
    """
    ends = np.empty((lo.shape[0], (1 << depth) + 1))
    ends[:, 0] = lo
    ends[:, -1] = hi
    for level in range(depth):
        step = 1 << (depth - level)
        ends[:, step >> 1 :: step] = 0.5 * (ends[:, :-1:step] + ends[:, step::step])
    return ends[:, 1:-1]


def _estimate(lo: float, hi: float, nodes: list[tuple[float, int, float]]) -> float:
    """The likely root in [lo, hi] from nodes (p, sign, log|L''|) near it:
    the polynomial through the points (L''(p), p), taken at L'' = 0. The
    midpoint where that fails or falls outside the bracket."""
    guess = math.nan
    if nodes:
        top = max(lm for _, _, lm in nodes)
        fs = [sign * math.exp(lm - top) for _, sign, lm in nodes]
        guess = lo
        try:
            for i, ((q, _, _), f) in enumerate(zip(nodes, fs)):
                guess += (q - lo) * math.prod(g / (g - f) for j, g in enumerate(fs) if j != i)
        except ZeroDivisionError:
            pass
    return guess if lo < guess < hi else 0.5 * (lo + hi)


def _path(lo: float, hi: float, guess: float, tolerance: float, steps: int) -> list[float]:
    """The bisection path of [lo, hi] toward guess: per level, the midpoint
    and the midpoint of the half the path leaves, down to tolerance or for
    at most steps levels. It stops before a midpoint stuck at the
    resolution of the floats."""
    out: list[float] = []
    for _ in range(steps):
        if hi - lo <= tolerance:
            break
        m = 0.5 * (lo + hi)
        if m <= lo or m >= hi:
            break
        if guess < m:
            out += (m, 0.5 * (m + hi))
            hi = m
        else:
            out += (m, 0.5 * (lo + m))
            lo = m
    return out


def _bisect_all(
    kernel, brackets: list[_Bracket], tolerance: float, owner: Sequence | None = None, counts: Counter | None = None
) -> np.ndarray:
    """Refine every bracket by bisection, in about two kernel calls; returns
    the midpoints.

    A bracket's first round is a tree: the midpoints of its next
    _SECTION_DEPTH bisection levels (see _sections), from which it takes up
    to that many steps. _estimate then predicts its root from the nodes
    nearest the narrowed bracket, and the next round evaluates, per level
    down to tolerance, the midpoint that bisection takes toward the
    prediction and, as a hedge, that of the half it leaves. A walk that
    needs a midpoint its round did not hold has missed, and takes a tree
    round again. All open brackets share one kernel call per round.

    Each walk is plain bisection: stop once hi - lo is within tolerance or
    after _MAX_BISECT_ITER steps; collapse onto a midpoint that is stuck at
    the resolution of the floats or where the sign is exactly zero; pause
    where the round holds no next midpoint. It reads a tree by node index
    (the root in the middle, each child half the remaining span away) and a
    path by position (a level's midpoint, then its hedge), so the signs it
    reads are those at the exact midpoints it takes. A point's sign does
    not depend on the call it is in (see _Kernel), so the midpoints are
    those of one kernel call per step, in fewer and fuller calls: numpy
    dispatch, not the number of points, sets the cost of a call. kernel is
    a _Kernel or a _Batch, and owner gives the spec of each bracket in it
    (None: the one spec of a _Kernel). counts, where given, gains the "tree
    rounds", the "predicted rounds" and the walks that "missed".

    The brackets themselves keep their original endpoints: escalation needs
    endpoints whose double-precision signs are trustworthy, and those are
    the grid-scale ones, not the refined pair straddling the root.
    """
    counts = Counter() if counts is None else counts
    lo = [br.lo if br.exact_p is None else br.exact_p for br in brackets]
    hi = [br.hi if br.exact_p is None else br.exact_p for br in brackets]
    steps = [0] * len(brackets)
    guess: list[float | None] = [None] * len(brackets)  # None: the next round is a tree
    while True:
        walks = [k for k in range(len(brackets)) if hi[k] - lo[k] > tolerance and steps[k] < _MAX_BISECT_ITER]
        if not walks:
            break
        trees = [k for k in walks if guess[k] is None]
        paths = [k for k in walks if guess[k] is not None]
        pieces, sizes, rows = [], [], []
        if trees:
            # no more levels than the widest bracket needs to reach tolerance
            widest = max(hi[k] - lo[k] for k in trees) / tolerance if tolerance > 0.0 else math.inf
            depth = min(_SECTION_DEPTH, math.frexp(widest)[1]) if math.isfinite(widest) else _SECTION_DEPTH
            nodes = _sections(np.array([lo[k] for k in trees]), np.array([hi[k] for k in trees]), depth)
            pieces.append(nodes.ravel())
            rows = nodes.tolist()
            sizes += [nodes.shape[1]] * len(trees)
            counts["tree rounds"] += 1
        if paths:
            along = [_path(lo[k], hi[k], guess[k], tolerance, _MAX_BISECT_ITER - steps[k]) for k in paths]
            pieces.append(np.array([q for row in along for q in row]))
            sizes += map(len, along)
            counts["predicted rounds"] += 1
        ps = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        at = None if owner is None else np.repeat([owner[k] for k in trees + paths], sizes)
        signs, logmag = (out.tolist() for out in kernel(ps, at)) if ps.size else ([], [])
        base = 0  # where the points of the next walk start
        for t, (k, size) in enumerate(zip(trees + paths, sizes)):
            a, b, taken, sign_lo, toward = lo[k], hi[k], steps[k], brackets[k].sign_lo, guess[k]
            tree = toward is None
            # the node of the next midpoint and, in a tree, the distance to its children
            node, half = (size // 2, (size + 1) // 2) if tree else (0, 0)
            while b - a > tolerance and taken < _MAX_BISECT_ITER:
                m = 0.5 * (a + b)
                if m <= a or m >= b or (node < size and signs[base + node] == 0):
                    a = b = m  # stuck at the resolution of the floats, or an exact zero
                    break
                if node >= size:
                    break  # the round holds no next midpoint
                taken += 1
                left = signs[base + node] != sign_lo
                a, b = (a, m) if left else (m, b)
                if tree:
                    half >>= 1
                    node = (node - half if left else node + half) if half else size
                else:  # the next level along the path, or the hedge, past which it holds nothing
                    node = size if node % 2 else node + (2 if left == (toward < m) else 1)
            lo[k], hi[k], steps[k] = a, b, taken
            still_open = b - a > tolerance and taken < _MAX_BISECT_ITER
            if not tree:
                guess[k] = None
                counts["missed"] += still_open
            elif still_open:
                # the four nodes nearest the narrowed bracket, which ends at node `right`
                row = rows[t]
                right = bisect.bisect_left(row, b)
                first = max(min(right - 2, size - 4), 0)
                near = [(row[c], signs[base + c], logmag[base + c]) for c in range(first, min(first + 4, size))]
                guess[k] = _estimate(a, b, [x for x in near if x[1] != 0 and math.isfinite(x[2])])
            base += size
    return np.array([0.5 * (a + b) for a, b in zip(lo, hi)])


def _bisect_mp(spec: MeanSpec, lo: float, hi: float) -> float | None:
    """50-digit re-bisection; None when the endpoint signs do not differ."""
    s_lo = _mp_sign(spec, lo)
    s_hi = _mp_sign(spec, hi)
    if s_lo == 0:
        return lo
    if s_hi == 0:
        return hi
    if s_lo == s_hi:
        return None
    while hi - lo > _REFINE_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        s_mid = _mp_sign(spec, mid)
        if s_mid == 0:
            return mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _direction(sign_lo: int) -> str:
    return "convex-to-concave" if sign_lo > 0 else "concave-to-convex"


def _end(terms: list[list[float]], side: float) -> float | None:
    """Where one term of f starts to outweigh all the others for good.

    terms is one spec's column of _ExpSum.table. On the right (side 1) the
    term of the largest exponent outweighs the sum of the others for every
    q >= the result; on the left (side -1) that of the smallest, for every
    q <= the result. So f, and L'', keeps the sign of that term past it.
    The comparison is test (2) of _ExpSum._test on a half-line, with the
    same bounds on the coefficients and exponents. The sum of the other
    terms' bounds falls monotonically outward, since each exponent is below
    the top one by more than its error; Newton's method from the largest
    single-term crossing, on the log of that convex sum, approaches the
    crossing from inside and stops at the first q that passes. Returns None
    where the exponents are too close to order, or the top coefficient too
    close to 0 to bound.
    """
    _, k, a, e_a, _, _, log_hi, log_lo, eps_c, _ = terms
    top = a.index(max(a) if side > 0.0 else min(a))
    floor = log_lo[top] - 3.0 * eps_c[top]
    if not floor > -math.inf:
        return None
    # per other term: log of its bound over the top term's at s = side * q = 0,
    # and its slope in s for s >= 0 (up) and s < 0 (down)
    consts, up, down = [], [], []
    for t in range(len(a)):
        if t == top:
            continue
        d = side * (a[t] - a[top])
        err = e_a[t] + e_a[top] + 8.0 * _U * abs(d)
        if not d + err < 0.0:
            return None
        dk = _LN2 * (k[t] - k[top])
        consts.append(log_hi[t] - floor + dk + eps_c[t] + 8.0 * _U * abs(dk))
        up.append(d + err)
        down.append(d - err)
    target = math.log1p(-_MARGIN)
    s = max(-c / (u if c >= 0.0 else v) for c, u, v in zip(consts, up, down))
    for _ in range(_WINDOW_STEPS):
        slopes = up if s >= 0.0 else down
        logs = [c + s * g for c, g in zip(consts, slopes)]
        big = max(logs)
        shares = [math.exp(x - big) for x in logs]
        total = sum(shares)
        excess = big + math.log(total) - target
        if excess < 0.0:
            return side * s
        rate = sum(w * g for w, g in zip(shares, slopes)) / total
        s += max(excess / -rate, 2.0**-6 + 2.0**-40 * abs(s))
    return None


_CERTIFIED, _CLIPPED, _UNCERTIFIABLE = "certified", "clipped at the cap", "not certifiable"


class _Window(NamedTuple):
    grid: _Grid
    ends: tuple[float | None, float | None]  # p_L and p_R as _end certifies them
    reasons: tuple[str, str]  # of each end: _CERTIFIED, _CLIPPED or _UNCERTIFIABLE

    @property
    def capped(self) -> bool:
        return self.reasons != (_CERTIFIED, _CERTIFIED)


def _windows(batch: _Batch) -> list[_Window]:
    """The scan window of each spec of the batch, from its exponential sum.

    Each end is certified by _end and rounded outward to the grid, plus one
    cell, so that no root sits on an edge (a unit pair's two terms tie at
    its root, p = 1) and every point is a point k/8 of the one scan grid.
    A spec with repeated values takes the window of merge_equal_values(spec):
    the same L, and no two terms that share the top exponent. Where an end
    is not certifiable or lies past _MAX_HALF_WIDTH, the spec takes the
    budget pass: _PARTIAL_BUDGET grid points over [-_MAX_HALF_WIDTH,
    _MAX_HALF_WIDTH].
    """
    per_unit = _GRID_POINTS_PER_UNIT
    budget = min(per_unit, _PARTIAL_BUDGET / (2.0 * _MAX_HALF_WIDTH))
    m = math.floor(_MAX_HALF_WIDTH * budget + 1e-9)
    cap = math.floor(_MAX_HALF_WIDTH * per_unit)
    columns = [expsum.table.transpose(2, 0, 1).tolist() for expsum in batch.expsums]  # [spec][field][term]
    out = []
    for k, spec in enumerate(batch.specs):
        if len(set(spec.values)) < spec.n:
            terms = _ExpSum([merge_equal_values(spec)]).table[:, :, 0].tolist()
        else:
            terms = columns[batch.group[k]][batch.row[k]]
        q_lo, q_hi = _end(terms, -1.0), _end(terms, 1.0)
        ends = (None if q_lo is None else 1.0 + q_lo, None if q_hi is None else 1.0 + q_hi)
        k_lo = None if q_lo is None else math.floor(ends[0] * per_unit) - 1
        k_hi = None if q_hi is None else math.ceil(ends[1] * per_unit) + 1
        reasons = (
            _UNCERTIFIABLE if k_lo is None else _CLIPPED if k_lo < -cap else _CERTIFIED,
            _UNCERTIFIABLE if k_hi is None else _CLIPPED if k_hi > cap else _CERTIFIED,
        )
        if reasons == (_CERTIFIED, _CERTIFIED):
            grid = _Grid(k_lo, k_hi)
        else:
            grid = _Grid(-m, m, budget)
        out.append(_Window(grid, ends, reasons))
    return out


def _above_scale(residual: float, log_scale: float) -> bool:
    """residual > _ESCALATION_FACTOR * exp(log_scale), also where the exp
    leaves the double range."""
    try:
        return residual > _ESCALATION_FACTOR * math.exp(log_scale)
    except OverflowError:
        return residual > 0.0 and math.log(residual) - log_scale > math.log(_ESCALATION_FACTOR)


def _residual(spec: MeanSpec, p: float, precision: str) -> float:
    """|second_derivative(spec, p, precision)| for "extended", and for "auto"
    at a p where both double forms cancel, without taking those again."""
    if precision == "extended":
        return abs(second_derivative(spec, p, precision=precision))
    return abs(_fifty_digit_second_derivative(spec, p))


def _report(
    spec: MeanSpec,
    brackets: list[_Bracket],
    mids: np.ndarray,
    scan_range: tuple[float, float],
    precision: str,
    warnings: list[str],
    counts: Counter | None = None,
) -> InflectionReport:
    """One spec's report from its bisected brackets: residuals, 50-digit
    refinement where the mode asks for it, and the checks. Each bracket is
    one root: a pair of roots closer than the bisection tolerance shows as
    an even count, not as one root.

    A residual is |second_derivative(spec, p_star, precision)|. "auto"
    escalates where it exceeds _ESCALATION_FACTOR of the local scale, and
    decides that from the double forms (calculus._double_second_derivative)
    where they keep ten digits, or where both cancel and their bound on
    |L''| lies _DEFER_MARGIN below that threshold. Where no decision reads
    a residual that needs 50 digits, as there, in "extended" and after an
    escalation, it is taken when first read (counts["deferred"]); else now
    (counts["eager"]).
    """
    counts = Counter() if counts is None else counts
    precision_flag = precision == "extended"
    roots: list[InflectionRoot] = []
    for k, br in enumerate(brackets):
        p_star = float(mids[k]) if br.exact_p is None else br.exact_p
        if precision == "extended":
            better = _bisect_mp(spec, br.lo, br.hi)
            if better is not None:
                p_star = better
            residual = functools.partial(_residual, spec, p_star, precision)
        else:
            value, bound = _double_second_derivative(spec, p_star, _point(spec, p_star))
            if bound is None or precision == "standard":
                residual = abs(value)
            elif bound < math.inf and not _above_scale(_DEFER_MARGIN * bound, br.local_log_scale):
                residual = functools.partial(_residual, spec, p_star, precision)
            else:
                residual = _residual(spec, p_star, precision)
                counts["eager"] += 1
            if precision == "auto" and not callable(residual) and _above_scale(residual, br.local_log_scale):
                better = _bisect_mp(spec, br.lo, br.hi)
                if better is not None:
                    p_star = better
                    residual = functools.partial(_residual, spec, p_star, "extended")
                    precision_flag = True
                else:
                    warnings.append(
                        f"residual {residual:.3g} near p={p_star:.6g} stayed above the local scale "
                        "and the 50-digit endpoint signs do not bracket a crossing"
                    )
        counts["deferred"] += callable(residual)
        roots.append(
            InflectionRoot(p_star=p_star, bracket=(br.lo, br.hi), residual=residual, direction=_direction(br.sign_lo))
        )
    roots.sort(key=lambda root: root.p_star)

    for k, root in enumerate(roots):
        expected = "convex-to-concave" if k % 2 == 0 else "concave-to-convex"
        if root.direction != expected:
            warnings.append(f"direction sequence is not alternating near p={root.p_star:.6g}")
            break

    bound_j = count_bound(spec.n).j
    if len(roots) > bound_j:
        warnings.append(
            f"{len(roots)} roots exceed the bound J={bound_j} for n={spec.n}; "
            "the signs of the second derivative are rounding noise at this spacing of the values"
        )

    return InflectionReport(
        roots=tuple(roots),
        parity_ok=len(roots) % 2 == 1,
        bound_j=bound_j,
        scan_range=scan_range,
        precision_used="extended" if precision_flag else "standard",
        warnings=tuple(warnings),
    )


def _scan_many(specs: Sequence[MeanSpec], precision: str = "auto") -> list:
    """find_inflections for each spec, scanned together.

    Returns, in order, an InflectionReport or the NoInflectionError or
    RangeExhaustedError that find_inflections would raise for each spec.
    """
    _check_precision(precision)
    outcomes: list = [None] * len(specs)
    scanned, shapes = [], []
    for k, spec in enumerate(specs):
        shape = None if spec.is_constant else _shape(spec)
        if shape is None:
            outcomes[k] = NoInflectionError("the mean is constant; there is no inflection point")
        elif not shape[2]:
            outcomes[k] = NoInflectionError("values are equal at working precision; the mean is constant")
        else:
            scanned.append(k)
            shapes.append(shape)
    if not scanned:
        return outcomes
    batch = _Batch([specs[k] for k in scanned], shapes)
    windows = _windows(batch)
    warnings = [[_exhausted(window)] if window.capped else [] for window in windows]
    grids = [window.grid for window in windows]
    collected = _collect_brackets(batch, grids, warnings)
    brackets = [br for found, _ in collected for br in found]
    owner = [t for t, (found, _) in enumerate(collected) for _ in found]
    calls, points = batch.calls, batch.points
    counts: Counter = Counter()
    mids = _bisect_all(batch, brackets, _REFINE_TOLERANCE, owner, counts)
    for window, (_, (live, grid_points, uncleared)) in zip(windows, collected):
        _log.debug(
            "scan window [%g, %g] (left end %s, right end %s): "
            "%d live grid cells, %d kernel points on the grid (halo included), %d split cells left uncleared",
            *window.grid.span, *window.reasons, live, grid_points, uncleared,
        )
    start = 0
    for t, k in enumerate(scanned):
        window, found = windows[t], collected[t][0]
        end = start + len(found)
        report = _report(specs[k], found, mids[start:end], window.grid.span, precision, warnings[t], counts)
        start = end
        if window.capped:
            why = f"no certified scan window within half-width {_MAX_HALF_WIDTH:g}"
            report = RangeExhaustedError(why, report=report)
        outcomes[k] = report
    _log.debug(
        "batch of %d scans: bisection: %d kernel calls, %d points, %d tree rounds, %d predicted rounds, "
        "%d walks missed their prediction; residuals: %d deferred, %d taken at 50 digits; "
        "in all: %d kernel calls, %d points",
        len(scanned), batch.calls - calls, batch.points - points, counts["tree rounds"], counts["predicted rounds"],
        counts["missed"], counts["deferred"], counts["eager"], batch.calls, batch.points,
    )
    return outcomes


def _exhausted(window: _Window) -> str:
    """The warning of a spec that takes the budget pass, with the reason."""
    why = []
    for side, end, reason in zip(("left", "right"), window.ends, window.reasons):
        if reason == _CLIPPED:
            why.append(f"the {side} end, certified at p={end:.6g}, is past the cap")
        elif reason == _UNCERTIFIABLE:
            why.append(f"the {side} end is not certifiable at this spacing of the values")
    return (
        f"scan range exhausted at half-width {_MAX_HALF_WIDTH:g}: {' and '.join(why)}; "
        "results cover a budget-limited pass only"
    )


def find_inflections(spec: MeanSpec, precision: str = "auto") -> InflectionReport:
    """Locate all inflection points of L.

    precision: "standard" refines with double-precision sign tests,
    "extended" re-refines every bracket with 50-digit sign tests, "auto"
    (the default) escalates only brackets whose refined residual stays
    above 1e-3 of the local curvature scale. Raises UsageError for any
    other value.

    Each bracket is bisected to 1e-9 in about two kernel calls (see
    _bisect_all): a call with the next six levels of midpoints, then one
    along the path toward the root that the first call's values predict.
    A residual that would need 50 digits and decides nothing is taken when
    it is first read, with the same value.

    The scan window is certified per spec (see _windows), and the report's
    scan_range is that window. Raises NoInflectionError for constant specs
    and RangeExhaustedError when a window end lies past half-width 1e6 or
    cannot be certified in doubles (values a few ulps apart); it carries
    the partial report of a budget pass of 400,000 grid points over
    [-1e6, 1e6], whose warning names the reason.
    """
    outcome = _scan_many([spec], precision)[0]
    if not isinstance(outcome, InflectionReport):
        raise outcome
    return outcome


def weighted_n2_inflection(spec: MeanSpec) -> float:
    """Closed-form inflection exponent for a weighted pair.

    p* = 1 - log(w1/w2) / log(x1/x2); the mean at p* equals the plain
    arithmetic mean (x1 + x2) / 2. Unit weights give exactly 1.
    """
    if spec.n != 2:
        raise UsageError(f"this operation needs exactly 2 values, got {spec.n}")
    x1, x2 = spec.values
    if x1 == x2:
        raise DegenerateError("equal values: the mean has no unique inflection exponent")
    l1, l2 = spec.log_values
    lw1, lw2 = spec.log_weights
    return 1.0 - (lw1 - lw2) / (l1 - l2)


def classify_n3_side(spec: MeanSpec) -> str:
    """Which side of p = 1 the unique three-value inflection point lies on.

    Returns "below_one" when the constant K is negative, "above_one" when
    positive, "degenerate" when the values are all equal or K is exactly 0.
    """
    if spec.is_constant:
        return "degenerate"
    k = k_constant(spec)
    if k < 0.0:
        return "below_one"
    if k > 0.0:
        return "above_one"
    return "degenerate"
