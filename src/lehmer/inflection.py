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
report in any batch.

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
from .core import MeanSpec, merge_equal_values
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

    def __init__(self, specs: Sequence[MeanSpec]):
        x = np.array([s.values for s in specs], dtype=float).T
        l = np.array([s.log_values for s in specs], dtype=float).T
        lw = np.array([s.log_weights for s in specs], dtype=float).T
        n = x.shape[0]
        self.ii, self.jj = (np.array(idx, dtype=np.intp) for idx in zip(*_shape(specs[0])[2]))
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
            log_c = np.log(absm)
            log_r = np.log(m_r)
            log_hi = np.log((absm + m_r) * (1.0 + _U))
            log_lo = np.log(np.maximum(absm - m_r, 0.0) * (1.0 - _U))
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


class _Bracket:
    __slots__ = ("lo", "hi", "sign_lo", "local_log_scale", "exact_p")

    def __init__(self, lo: float, hi: float, sign_lo: int, local_log_scale: float, exact_p: float | None = None):
        self.lo = lo
        self.hi = hi
        self.sign_lo = sign_lo
        self.local_log_scale = local_log_scale
        self.exact_p = exact_p  # set when the grid hit the root exactly


class _Grid:
    """The uniform scan grid k/per_unit for k in [k_lo, k_hi], as index
    arithmetic: index i is the point (k_lo + i)/per_unit."""

    def __init__(self, k_lo: int, k_hi: int, per_unit: float = _GRID_POINTS_PER_UNIT):
        self.k_lo = k_lo
        self.per_unit = per_unit
        self.size = k_hi - k_lo + 1

    def points(self, idx: np.ndarray) -> np.ndarray:
        return (idx + self.k_lo).astype(float) / self.per_unit

    def point(self, k: int) -> float:
        return float(k + self.k_lo) / self.per_unit

    @property
    def span(self) -> tuple[float, float]:
        return self.point(0), self.point(self.size - 1)


class _Batch:
    """The kernels and exclusion sums of a batch of specs, one of each per shape.

    Points and cells carry the index of their spec in the batch (owner); a
    call makes one kernel or exclusion call per shape among its owners, and
    none for an empty call.
    """

    def __init__(self, specs: Sequence[MeanSpec]):
        groups: dict[tuple, list[int]] = {}
        for k, spec in enumerate(specs):
            groups.setdefault(_shape(spec), []).append(k)
        self.specs = specs
        self.group = np.empty(len(specs), dtype=np.intp)
        self.row = np.empty(len(specs), dtype=np.intp)
        self.kernels, self.expsums = [], []
        for g, members in enumerate(groups.values()):
            self.group[members] = g
            self.row[members] = np.arange(len(members))
            self.kernels.append(_Kernel([specs[k] for k in members]))
            self.expsums.append(_ExpSum([specs[k] for k in members]))

    @property
    def calls(self) -> int:
        return sum(kernel.calls for kernel in self.kernels)

    @property
    def points(self) -> int:
        return sum(kernel.points for kernel in self.kernels)

    def _split(self, owner: np.ndarray):
        """(group, positions, rows) for each shape among owner; rows is None
        where the group holds one spec."""
        group = self.group[owner]
        for g in np.unique(group).tolist():
            where = np.nonzero(group == g)[0]
            yield g, where, None if self.kernels[g].size == 1 else self.row[owner[where]]

    def __call__(self, ps: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(self.kernels) == 1 and ps.shape[0]:
            return self.kernels[0](ps, None if self.kernels[0].size == 1 else self.row[owner])
        signs = np.zeros(ps.shape[0], dtype=np.int8)
        logmag = np.zeros(ps.shape[0])
        if ps.shape[0]:
            for g, where, rows in self._split(owner):
                signs[where], logmag[where] = self.kernels[g](ps[where], rows)
        return signs, logmag

    def test(self, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(self.expsums) == 1 and lo.shape[0]:
            return self.expsums[0].test(lo, hi, None if self.kernels[0].size == 1 else self.row[owner])
        cleared = np.zeros(lo.shape[0], dtype=bool)
        sign = np.zeros(lo.shape[0], dtype=np.int8)
        if lo.shape[0]:
            for g, where, rows in self._split(owner):
                cleared[where], sign[where] = self.expsums[g].test(lo[where], hi[where], rows)
        return cleared, sign


def _joined(call, parts: dict[int, tuple[np.ndarray, ...]]) -> dict[int, tuple[np.ndarray, ...]]:
    """call(*arrays, owner) once on the per-spec arrays of parts, joined;
    its results split back per spec."""
    if len(parts) == 1:
        [(k, arrays)] = parts.items()
        owner = np.empty(arrays[0].shape[0], dtype=np.intp)
        owner.fill(k)
        return {k: call(*arrays, owner)}
    keys = list(parts)
    sizes = [parts[k][0].shape[0] for k in keys]
    owner = np.repeat(np.array(keys, dtype=np.intp), sizes)
    joined = [np.concatenate([parts[k][f] for k in keys]) for f in range(len(parts[keys[0]]))]
    outs = call(*joined, owner)
    ends = np.cumsum(sizes).tolist()
    return {k: tuple(out[end - size : end] for out in outs) for k, size, end in zip(keys, sizes, ends)}


def _live_cells(grids: Sequence[_Grid], batch: _Batch) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each spec of the batch, the indices k of its grid cells [k, k+1]
    that exclusion cannot clear.

    About _COARSE_CELLS cells of a power-of-two number of grid cells are
    tested first; each survivor is cut into _BRANCH equal parts and tested
    again, until single grid cells remain. A survivor whose midpoint value
    is lost in rounding is not cut further: splitting cannot clear it, so
    all its grid cells stay live untested. Each level is one exclusion call
    for the specs still descending. Returns, per spec, the sorted live cells
    and, for each, whether it passed through the tests down to its own
    level.
    """
    n_cells = [grid.size - 1 for grid in grids]
    width = [1 << max(0, ((n - 1) // _COARSE_CELLS).bit_length()) for n in n_cells]
    lo = [np.arange(0, n, w) for n, w in zip(n_cells, width)]
    blurred: list[list[np.ndarray]] = [[] for _ in grids]
    tested = [np.empty(0, dtype=np.int64) for _ in grids]
    active = list(range(len(grids)))
    while active:
        cells = {k: (grids[k].points(lo[k]), grids[k].points(np.minimum(lo[k] + width[k], n_cells[k]))) for k in active}
        results = _joined(batch.test, cells)
        descending = []
        for k in active:
            cleared, sign = results[k]
            if width[k] == 1:
                tested[k] = lo[k][~cleared]
                continue
            lost = lo[k][~cleared & (sign == 0)]
            blurred[k].append((lost[:, None] + np.arange(width[k])).ravel())
            step = max(width[k] // _BRANCH, 1)
            below = (lo[k][~cleared & (sign != 0)][:, None] + np.arange(0, width[k], step)).ravel()
            lo[k] = below[below < n_cells[k]]
            width[k] = step
            if lo[k].size:
                descending.append(k)
        active = descending
    out = []
    for k in range(len(grids)):
        untested = np.concatenate(blurred[k]) if blurred[k] else np.empty(0, dtype=np.int64)
        untested = untested[untested < n_cells[k]]
        cells = np.concatenate((tested[k], untested))
        order = np.argsort(cells)
        out.append((cells[order], (np.arange(cells.shape[0]) < tested[k].shape[0])[order]))
    return out


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


class _Split:
    """One spec's equal-sign live cells, split at dyadic midpoints."""

    def __init__(self, los, his, sgn, base, uncleared):
        self.los, self.his, self.sgn, self.base = los, his, sgn, base
        self.uncleared = uncleared
        self.found: list[tuple[float, float, int, int]] = []  # (lo, hi, sign_lo, grid cell)
        self.warnings: list[str] = []

    def step(self, mids: np.ndarray, sm: np.ndarray) -> None:
        """Bracket the halves whose midpoint sign differs, keep the others."""
        los, his, sgn, base = self.los, self.his, self.sgn, self.base
        opp = (sm != 0) & (sm != sgn)
        for idx in np.nonzero(opp)[0]:
            self.found.append((float(los[idx]), float(mids[idx]), int(sgn[idx]), int(base[idx])))
            self.found.append((float(mids[idx]), float(his[idx]), int(sm[idx]), int(base[idx])))
        tangent = sm == 0
        for idx in np.nonzero(tangent)[0]:
            self.warnings.append(
                f"tangential zero of the second derivative near p={mids[idx]:.6g}; not counted as an inflection"
            )
        keep = ~(opp | tangent)
        self.los = np.concatenate((los[keep], mids[keep]))
        self.his = np.concatenate((mids[keep], his[keep]))
        self.sgn = np.concatenate((sgn[keep], sgn[keep]))
        self.base = np.concatenate((base[keep], base[keep]))

    def clear(self, cleared: np.ndarray, sign: np.ndarray) -> None:
        # a half whose midpoint value is lost in rounding cannot be cleared
        # by splitting it further, and the kernel's signs there are noise
        live = ~cleared & (sign != 0)
        self.uncleared += int(np.count_nonzero(~cleared & (sign == 0)))
        self.los, self.his, self.sgn, self.base = self.los[live], self.his[live], self.sgn[live], self.base[live]


def _collect_brackets(
    batch: _Batch, grids: Sequence[_Grid], warnings: Sequence[list[str]]
) -> list[tuple[list[_Bracket], tuple[int, int, int]]]:
    """For each spec of the batch, the brackets of every sign change of L''
    on its grid and in its split cells.

    Also returns, per spec, the counts for the scan's debug line: live grid
    cells, kernel points on the grid (halo included), and split cells left
    uncleared. The grid, with a halo of two points on either side of every
    live cell, and each split level are one kernel call each for the whole
    batch.
    """
    live = _live_cells(grids, batch)
    # the ends of every live cell and two grid points on either side: the
    # flanks of a run of zeros and the local scale of a bracket (see _brackets)
    known = [
        _sorted_unique(np.clip(np.concatenate([cells + shift for shift in range(-2, 4)]), 0, grid.size - 1))
        for (cells, _), grid in zip(live, grids)
    ]
    on_grid = _joined(batch, {k: (grid.points(known[k]),) for k, grid in enumerate(grids)})
    signs = [on_grid[k][0] for k in range(len(grids))]
    logmag = [on_grid[k][1] for k in range(len(grids))]
    runs, changes, splits = [], [], []
    for k, (cells, tested) in enumerate(live):
        pos = np.searchsorted(known[k], cells)
        s_lo, s_hi = signs[k][pos], signs[k][pos + 1]
        # runs of live-cell ends where the kernel is exactly zero: a root that
        # fell on the grid (opposite flanking signs) or a tangential touch
        zeros = _sorted_unique(np.concatenate((cells[s_lo == 0], cells[s_hi == 0] + 1)))
        runs.append(np.split(zeros, np.nonzero(np.diff(zeros) != 1)[0] + 1) if zeros.size else [])
        changes.append(cells[s_lo * s_hi < 0].tolist())
        # equal-sign live cells: split at dyadic midpoints, keeping the halves
        # exclusion cannot clear, for _SPLIT_DEPTH levels
        flat = (s_lo == s_hi) & (s_lo != 0)
        base = cells[flat & tested]
        splits.append(
            _Split(grids[k].points(base), grids[k].points(base + 1), s_lo[flat & tested], base,
                   int(np.count_nonzero(flat & ~tested)))
        )
    for _depth in range(_SPLIT_DEPTH):
        active = [k for k, split in enumerate(splits) if split.los.size]
        if not active:
            break
        mids = {k: 0.5 * (splits[k].los + splits[k].his) for k in active}
        at_mids = _joined(batch, {k: (mids[k],) for k in active})
        for k in active:
            splits[k].step(mids[k], at_mids[k][0])
        tests = _joined(batch.test, {k: (splits[k].los, splits[k].his) for k in active})
        for k in active:
            splits[k].clear(*tests[k])
    for split in splits:
        split.uncleared += int(split.los.size)  # survivors of the last level are dropped

    out = []
    for k, grid in enumerate(grids):
        brackets = _brackets(grid, known[k], signs[k], logmag[k], runs[k], changes[k], splits[k], warnings[k])
        out.append((brackets, (live[k][0].size, known[k].size, splits[k].uncleared)))
    return out


def _brackets(
    grid: _Grid,
    known: np.ndarray,
    signs: np.ndarray,
    logmag: np.ndarray,
    runs: list[np.ndarray],
    changes: list[int],
    split: _Split,
    warnings: list[str],
) -> list[_Bracket]:
    """One spec's brackets, sorted, from its evaluated grid points, its runs
    of exact zeros, its sign changes and its split cells."""

    def at(k: int) -> tuple[int, float]:
        i = int(np.searchsorted(known, k))
        return int(signs[i]), float(logmag[i])

    def local_scale(k: int) -> float:
        return max(at(j)[1] for j in range(max(k - 2, 0), min(k + 4, grid.size)))

    brackets: list[_Bracket] = []
    for run in runs:
        a, b = int(run[0]), int(run[-1])
        if a == 0 or b == grid.size - 1:
            warnings.append(f"zero curvature at scan boundary near p={grid.point(a):.6g}; skipped")
            continue
        mid = grid.point((a + b) // 2)
        (s_left, lm_left), (s_right, lm_right) = at(a - 1), at(b + 1)
        if s_left != s_right:
            brackets.append(_Bracket(grid.point(a - 1), grid.point(b + 1), s_left, max(lm_left, lm_right), exact_p=mid))
        else:
            warnings.append(
                f"tangential zero of the second derivative near p={mid:.6g}; not counted as an inflection"
            )
    warnings.extend(split.warnings)
    for k in changes:
        brackets.append(_Bracket(grid.point(k), grid.point(k + 1), at(k)[0], local_scale(k)))
    for lo, hi, sign_lo, k in split.found:
        brackets.append(_Bracket(lo, hi, sign_lo, local_scale(k)))
    brackets.sort(key=lambda br: br.lo)
    return brackets


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


def _walk(lo: float, hi: float, sign_lo: int, tolerance: float, steps: int, held: dict) -> tuple[float, float, int]:
    """Plain bisection of [lo, hi] on the signs held (point -> sign), as
    (lo, hi, steps taken in all): stop once hi - lo is within tolerance or
    after _MAX_BISECT_ITER steps; collapse onto a midpoint that is stuck at
    the resolution of the floats or where the sign is exactly zero; pause
    where the next midpoint is not held."""
    while hi - lo > tolerance and steps < _MAX_BISECT_ITER:
        m = 0.5 * (lo + hi)
        if m <= lo or m >= hi:
            return m, m, steps
        sign = held.get(m)
        if sign is None:
            break
        if sign == 0:
            return m, m, steps
        steps += 1
        if sign == sign_lo:
            lo = m
        else:
            hi = m
    return lo, hi, steps


def _bisect_all(
    kernel, brackets: list[_Bracket], tolerance: float, owner: np.ndarray | None = None, counts: Counter | None = None
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

    Each walk is plain bisection (see _walk) and reads signs only at the
    exact midpoints it takes. A point's sign does not depend on the call it
    is in (see _Kernel), so the midpoints are those of one kernel call per
    step, in fewer and fuller calls: numpy dispatch, not the number of
    points, sets the cost of a call. kernel is a _Kernel or a _Batch, and
    owner gives the spec of each bracket in it (None: the one spec of a
    _Kernel). counts, where given, gains the "tree rounds", the "predicted
    rounds" and the walks that "missed".

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
        rows: list[list[float]] = []
        if trees:
            # no more levels than the widest bracket needs to reach tolerance
            widest = max(hi[k] - lo[k] for k in trees) / tolerance if tolerance > 0.0 else math.inf
            depth = min(_SECTION_DEPTH, math.frexp(widest)[1]) if math.isfinite(widest) else _SECTION_DEPTH
            rows = _sections(np.array([lo[k] for k in trees]), np.array([hi[k] for k in trees]), depth).tolist()
            counts["tree rounds"] += 1
        if paths:
            rows += [_path(lo[k], hi[k], guess[k], tolerance, _MAX_BISECT_ITER - steps[k]) for k in paths]
            counts["predicted rounds"] += 1
        sizes = [len(row) for row in rows]
        ps = np.array([q for row in rows for q in row])
        signs: list[int] = []
        logmag: list[float] = []
        if ps.size:
            at = None if owner is None else owner[trees + paths].repeat(sizes)
            signs, logmag = (a.tolist() for a in kernel(ps, at))
        base = 0  # where the points of the next walk start
        for k, row, size in zip(trees + paths, rows, sizes):
            sign = signs[base : base + size]
            lo[k], hi[k], steps[k] = _walk(lo[k], hi[k], brackets[k].sign_lo, tolerance, steps[k], dict(zip(row, sign)))
            still_open = hi[k] - lo[k] > tolerance and steps[k] < _MAX_BISECT_ITER
            if guess[k] is not None:
                guess[k] = None
                counts["missed"] += still_open
            elif still_open:
                # the four nodes nearest the narrowed bracket, which ends at node `right`
                right, lm = bisect.bisect_left(row, hi[k]), logmag[base : base + size]
                first = max(min(right - 2, size - 4), 0)
                near = range(first, min(first + 4, size))
                nodes = [(row[c], sign[c], lm[c]) for c in near if sign[c] != 0 and math.isfinite(lm[c])]
                guess[k] = _estimate(lo[k], hi[k], nodes)
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
    top = max(range(len(a)), key=lambda t: side * a[t])
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
    out = []
    for k, spec in enumerate(batch.specs):
        if len(set(spec.values)) < spec.n:
            table = _ExpSum([merge_equal_values(spec)]).table[:, :, 0]
        else:
            table = batch.expsums[batch.group[k]].table[:, :, batch.row[k]]
        terms = table.tolist()
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
            value, bound = _double_second_derivative(spec, p_star)
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
    scanned = []
    for k, spec in enumerate(specs):
        if spec.is_constant:
            outcomes[k] = NoInflectionError("the mean is constant; there is no inflection point")
        elif not _shape(spec)[2]:
            outcomes[k] = NoInflectionError("values are equal at working precision; the mean is constant")
        else:
            scanned.append(k)
    if not scanned:
        return outcomes
    batch = _Batch([specs[k] for k in scanned])
    windows = _windows(batch)
    warnings = [[_exhausted(window)] if window.capped else [] for window in windows]
    grids = [window.grid for window in windows]
    collected = _collect_brackets(batch, grids, warnings)
    brackets = [br for found, _ in collected for br in found]
    owner = np.array([t for t, (found, _) in enumerate(collected) for _ in found], dtype=np.intp)
    calls, points = batch.calls, batch.points
    counts: Counter = Counter()
    mids = _bisect_all(batch, brackets, _REFINE_TOLERANCE, owner, counts)
    for window, (_, (live, grid_points, uncleared)) in zip(windows, collected):
        lo, hi = window.grid.span
        _log.debug(
            "scan window [%g, %g] (left end %s, right end %s): "
            "%d live grid cells, %d kernel points on the grid (halo included), %d split cells left uncleared",
            lo,
            hi,
            *window.reasons,
            live,
            grid_points,
            uncleared,
        )
    start = 0
    for t, k in enumerate(scanned):
        window = windows[t]
        found = collected[t][0]
        report = _report(
            specs[k], found, mids[start : start + len(found)], window.grid.span, precision, warnings[t], counts
        )
        start += len(found)
        if window.capped:
            outcomes[k] = RangeExhaustedError(
                f"no certified scan window within half-width {_MAX_HALF_WIDTH:g}", report=report
            )
        else:
            outcomes[k] = report
    _log.debug(
        "batch of %d scans: bisection: %d kernel calls, %d points, %d tree rounds, %d predicted rounds, "
        "%d walks missed their prediction; residuals: %d deferred, %d taken at 50 digits; "
        "in all: %d kernel calls, %d points",
        len(scanned),
        batch.calls - calls,
        batch.points - points,
        counts["tree rounds"],
        counts["predicted rounds"],
        counts["missed"],
        counts["deferred"],
        counts["eager"],
        batch.calls,
        batch.points,
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
