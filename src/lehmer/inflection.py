"""Location of every inflection point of the Lehmer mean.

Strategy: expand a symmetric scan range by doubling until the curvature has
its asymptotic signs (positive at the left end, negative at the right end)
and the mean itself sits within 1e-6 of its horizontal asymptotes at both
ends. Then clear the cells of a uniform grid over that range that provably
hold no zero of L'', coarse cells first; evaluate the sign of L'' only at
the ends of the cells that remain; bracket every sign change; split the
remaining cells without one at dyadic midpoints, again clearing what can be
cleared; and refine all brackets by section bisection (see _bisect_all): one
kernel call gives the signs at the next six levels of midpoints of every
open bracket, and each bracket takes up to six bisection steps from them.
The steps, and so the midpoints, are those of one kernel call per step.

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

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .calculus import _EXTENDED_DPS, _mp_bracket, k_constant, second_derivative
from .core import MeanSpec, _lehmer_value, asymptotes
from .errors import DegenerateError, NoInflectionError, RangeExhaustedError, UsageError


__all__ = [
    "ScanConfig",
    "InflectionRoot",
    "InflectionReport",
    "CountBound",
    "count_bound",
    "find_inflections",
    "weighted_n2_inflection",
    "classify_n3_side",
]

ASYMPTOTE_TOLERANCE = 1e-6

_log = logging.getLogger(__name__)

_SPLIT_DEPTH = 12
_COARSE_CELLS = 128            # about this many cells start the exclusion
_BRANCH = 16                   # parts per surviving cell at the next exclusion level
_MARGIN = 1e-9                 # relative slack on every exclusion comparison
_U = 2.0**-53                  # unit roundoff of doubles
_LN2 = math.log(2.0)
_ESCALATION_FACTOR = 1e-3      # refined residual vs local curvature scale
_CHUNK_ELEMENTS = 1 << 21      # elements per vectorized kernel chunk
_TEST_ELEMENTS = 1 << 16       # cells times terms per exclusion chunk
_PARTIAL_BUDGET = 400_000      # grid points for the post-exhaustion pass
_MAX_BISECT_ITER = 128
_SECTION_DEPTH = 6             # bisection steps per kernel call
_DEAD = ((math.nan, math.nan),) * 2  # the halves below a node the walk never reaches


@dataclass(frozen=True)
class ScanConfig:
    """Scan policy. Defaults locate every known multi-root instance.

    precision_mode: "standard" refines with double-precision sign tests,
    "extended" re-refines every bracket with 50-digit sign tests, "auto"
    escalates only brackets whose refined residual stays above 1e-3 of the
    local curvature scale.
    """

    initial_half_width: float = 64.0
    expansion_factor: float = 2.0
    max_half_width: float = 1e6
    grid_points_per_unit: float = 8.0
    refine_tolerance: float = 1e-9
    precision_mode: str = "auto"

    def __post_init__(self):
        if not self.initial_half_width > 0.0:
            raise UsageError("initial_half_width must be positive")
        if not self.expansion_factor > 1.0:
            raise UsageError("expansion_factor must exceed 1")
        if self.max_half_width < self.initial_half_width:
            raise UsageError("max_half_width must be at least initial_half_width")
        if not self.grid_points_per_unit > 0.0:
            raise UsageError("grid_points_per_unit must be positive")
        if not self.refine_tolerance > 0.0:
            raise UsageError("refine_tolerance must be positive")
        if self.precision_mode not in ("standard", "extended", "auto"):
            raise UsageError(f"unknown precision mode {self.precision_mode!r}")


@dataclass(frozen=True)
class InflectionRoot:
    p_star: float
    bracket: tuple[float, float]
    residual: float
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


class _Kernel:
    """Vectorized sign and log|L''| evaluation over arrays of exponents.

    numpy's matrix product takes a different BLAS path for a single row, so
    a point evaluated alone can round differently from the same point in a
    batch; alone=True gives every point the result of a one-point call.
    calls and points count what the kernel has evaluated.
    """

    def __init__(self, spec: MeanSpec):
        x = np.asarray(spec.values, dtype=float)
        l = np.asarray(spec.log_values, dtype=float)
        lw = np.asarray(spec.log_weights, dtype=float)
        self.l = l
        self.lw = lw
        self.ldiff_t = (l[:, None] - l[None, :]).T  # [k, i] = l_i - l_k
        ii, jj = np.triu_indices(len(x), k=1)
        prod = (x[ii] - x[jj]) * (l[ii] - l[jj])
        keep = prod > 0.0  # drops equal values and log collisions
        self.ii = ii[keep]
        self.jj = jj[keep]
        self.g = lw[self.ii] + lw[self.jj] + np.log(prod[keep])
        self.sl = l[self.ii] + l[self.jj]
        self.n_pairs = int(self.g.shape[0])
        self.calls = 0
        self.points = 0

    def __call__(self, ps: np.ndarray, alone: bool = False) -> tuple[np.ndarray, np.ndarray]:
        ps = np.atleast_1d(np.asarray(ps, dtype=float))
        m = ps.shape[0]
        self.calls += 1
        self.points += m
        n = self.l.shape[0]
        per_point = max(n * n, self.n_pairs, 1)
        chunk = max(1, _CHUNK_ELEMENTS // per_point)
        signs = np.empty(m, dtype=np.int8)
        logmag = np.empty(m, dtype=float)
        for start in range(0, m, chunk):
            stop = min(start + chunk, m)
            s, lm = self._eval(ps[start:stop], alone)
            signs[start:stop] = s
            logmag[start:stop] = lm
        return signs, logmag

    def _eval(self, ps: np.ndarray, alone: bool) -> tuple[np.ndarray, np.ndarray]:
        q = ps[:, None] - 1.0
        b = self.lw[None, :] + q * self.l[None, :]
        shift = b.max(axis=1)
        v = np.exp(b - shift[:, None])
        sv = v.sum(axis=1)
        vl = (v[:, None, :] @ self.ldiff_t)[:, 0, :] if alone else v @ self.ldiff_t
        d = vl / sv[:, None]
        t = q * self.sl[None, :] + self.g[None, :]
        t_max = t.max(axis=1)
        qsum = (np.exp(t - t_max[:, None]) * (d[:, self.ii] + d[:, self.jj])).sum(axis=1)
        with np.errstate(divide="ignore"):
            logmag = t_max + np.log(np.abs(qsum)) - 2.0 * (shift + np.log(sv))
        return np.sign(qsum).astype(np.int8), logmag


def _mp_sign(spec: MeanSpec, p: float, dps: int = _EXTENDED_DPS) -> int:
    """Sign of L''(p) at dps digits; L > 0, so the bracket's sign suffices."""
    with mp.workdps(dps):
        bracket, _ = _mp_bracket(spec, mp.mpf(p))
        return int(mp.sign(bracket))


# ---------------------------------------------------------------------------
# certified exclusion


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
    """

    def __init__(self, spec: MeanSpec):
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
        m_c = np.array(mant)
        m_r = np.array(rads)
        absm = np.abs(m_c)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_c = np.log(absm)
            log_r = np.log(m_r)
            log_hi = np.log((absm + m_r) * (1.0 + _U))
            log_lo = np.log(np.maximum(absm - m_r, 0.0) * (1.0 - _U))
        self.sign = np.sign(m_c)
        self.k = np.array(expo, dtype=np.int64)
        self.a = np.array(a)
        self.e_a = np.array(e_a)
        self.n_terms = m_c.shape[0]
        # logs of the mantissa, of its radius and of the bounds on |c_t|, the
        # last three already widened by the error of log itself
        self.log_c = log_c
        self.log_r = log_r + 4.0 * _U * (np.abs(log_r) + 1.0)
        self.log_hi = log_hi + 4.0 * _U * (np.abs(log_hi) + 1.0)
        self.log_lo = log_lo - 4.0 * _U * (np.abs(log_lo) + 1.0)
        self.eps_c = 4.0 * _U * (np.where(np.isfinite(log_c), np.abs(log_c), 0.0) + 1.0)
        self.rank = log_c + _LN2 * self.k  # log|c_t| to pick each cell's top term

    def test(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cleared, sign) for the closed cells [lo, hi] of p; see _test."""
        chunk = max(1, _TEST_ELEMENTS // self.n_terms)
        if lo.shape[0] <= chunk:
            return self._test(lo, hi)
        parts = [self._test(lo[s : s + chunk], hi[s : s + chunk]) for s in range(0, lo.shape[0], chunk)]
        return np.concatenate([c for c, _ in parts]), np.concatenate([s for _, s in parts])

    def _test(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cleared, sign) for the closed cells [lo, hi] of p.

        cleared is True where L'' provably has no zero on the cell, by one
        of two tests: (2) one term outweighs the sum of all the others on
        the whole cell; (1) |f(m)| minus its rounding bound exceeds the
        half-width r times max |f'| on the cell, m the midpoint. sign is the
        sign of L'' at m where the rounding bound settles it, else 0.

        Each cell divides f by exp(theta q), theta the exponent of the term
        largest at m, and by that term's size.
        """
        m = 0.5 * (lo + hi) - 1.0
        r0 = 0.5 * (hi - lo)
        am = np.abs(m)
        r = r0 + 4.0 * _U * (am + r0 + 1.0)  # covers the rounding of m and r0
        rows = np.arange(m.shape[0])
        mm = m[:, None]
        rr = r[:, None]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            top = np.argmax(self.rank + self.a * mm, axis=1)
            d = self.a - self.a[top][:, None]
            ad = np.abs(d)
            dk = _LN2 * (self.k - self.k[top][:, None])
            dm = d * mm
            spread = ad * rr
            shift = dk + dm  # log size of each term against the top one at m, before mantissas
            eta = (
                self.eps_c
                + self.eps_c[top][:, None]
                + 8.0 * _U * (np.abs(dk) + np.abs(dm) + spread)
                + self.e_a * (am + r)[:, None]
            )

            floor = self.log_lo[top] - eta[rows, top]
            share = np.exp(self.log_hi - floor[:, None] + shift + spread + eta)
            share[rows, top] = 0.0
            dominant = share.sum(axis=1) < 1.0 - _MARGIN

            base = self.log_c[top][:, None]
            val = np.exp(self.log_c - base + shift)
            f_mid = val @ self.sign
            err = (
                (val * np.expm1(eta)).sum(axis=1)
                + np.exp(self.log_r - base + shift + eta).sum(axis=1)
                + 2.0 * _U * (self.n_terms + 4) * val.sum(axis=1)
                + 1e-300 * self.n_terms
            )
            growth = np.exp(self.log_hi - base + shift + spread + eta) * (ad * (1.0 + 2.0 * _U) + self.e_a)
            slope = (1.0 + 4.0 * _U) * r * growth.sum(axis=1)
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
    """The uniform scan grid over [-half, half], as index arithmetic.

    Point k is (k - m)/per_unit for k = 0..2m; when half is not a whole
    number of steps, -half and half are added at the ends and the other
    indices shift by one.
    """

    def __init__(self, half: float, per_unit: float):
        m = int(math.floor(half * per_unit + 1e-9))
        self.half = half
        self.per_unit = per_unit
        self.ends = float(-m) / per_unit > -half
        self.offset = m + int(self.ends)
        self.size = 2 * m + 1 + 2 * int(self.ends)

    def points(self, idx: np.ndarray) -> np.ndarray:
        ps = (idx - self.offset).astype(float) / self.per_unit
        if self.ends:
            ps[idx == 0] = -self.half
            ps[idx == self.size - 1] = self.half
        return ps

    def point(self, k: int) -> float:
        return float(self.points(np.array([k]))[0])


def _live_cells(grid: _Grid, expsum: _ExpSum) -> tuple[np.ndarray, np.ndarray]:
    """Indices k of the grid cells [k, k+1] that exclusion cannot clear.

    About _COARSE_CELLS cells of a power-of-two number of grid cells are
    tested first; each survivor is cut into _BRANCH equal parts and tested
    again, until single grid cells remain. A survivor whose midpoint value
    is lost in rounding is not cut further: splitting cannot clear it, so
    all its grid cells stay live untested. Returns the sorted live cells
    and, for each, whether it passed through the tests down to its own
    level.
    """
    n_cells = grid.size - 1
    width = 1 << max(0, ((n_cells - 1) // _COARSE_CELLS).bit_length())
    lo = np.arange(0, n_cells, width)
    blurred = []
    while True:
        hi = np.minimum(lo + width, n_cells)
        cleared, sign = expsum.test(grid.points(lo), grid.points(hi))
        if width == 1:
            tested = lo[~cleared]
            break
        lost = lo[~cleared & (sign == 0)]
        blurred.append((lost[:, None] + np.arange(width)).ravel())
        lo = lo[~cleared & (sign != 0)]
        step = max(width // _BRANCH, 1)
        lo = (lo[:, None] + np.arange(0, width, step)).ravel()
        lo = lo[lo < n_cells]
        width = step
    untested = np.concatenate(blurred) if blurred else np.empty(0, dtype=np.int64)
    untested = untested[untested < n_cells]
    cells = np.concatenate((tested, untested))
    order = np.argsort(cells)
    return cells[order], (np.arange(cells.shape[0]) < tested.shape[0])[order]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _collect_brackets(
    kernel: _Kernel, expsum: _ExpSum, grid: _Grid, warnings: list[str]
) -> tuple[list[_Bracket], tuple[int, int, int]]:
    """Brackets of every sign change of L'' on the grid and in its split cells.

    Also returns the counts for the scan's debug line: live grid cells,
    kernel points on the grid, and split cells left uncleared.
    """
    cells, tested = _live_cells(grid, expsum)
    known = _sorted_unique(np.concatenate((cells, cells + 1)))
    signs, logmag = kernel(grid.points(known))
    pos = np.searchsorted(known, cells)
    s_lo = signs[pos]
    s_hi = signs[pos + 1]

    # equal-sign live cells: split at dyadic midpoints, keeping the halves
    # exclusion cannot clear, for _SPLIT_DEPTH levels
    found: list[tuple[float, float, int, int]] = []  # (lo, hi, sign_lo, grid cell)
    split_warnings: list[str] = []
    flat = (s_lo == s_hi) & (s_lo != 0)
    base = cells[flat & tested]
    los = grid.points(base)
    his = grid.points(base + 1)
    sgn = s_lo[flat & tested]
    uncleared = int(np.count_nonzero(flat & ~tested))
    for _depth in range(_SPLIT_DEPTH):
        if los.size == 0:
            break
        mids = 0.5 * (los + his)
        sm, _ = kernel(mids)
        opp = (sm != 0) & (sm != sgn)
        for idx in np.nonzero(opp)[0]:
            found.append((float(los[idx]), float(mids[idx]), int(sgn[idx]), int(base[idx])))
            found.append((float(mids[idx]), float(his[idx]), int(sm[idx]), int(base[idx])))
        tangent = sm == 0
        for idx in np.nonzero(tangent)[0]:
            split_warnings.append(
                f"tangential zero of the second derivative near p={mids[idx]:.6g}; "
                "not counted as an inflection"
            )
        keep = ~(opp | tangent)
        los = np.concatenate((los[keep], mids[keep]))
        his = np.concatenate((mids[keep], his[keep]))
        sgn = np.concatenate((sgn[keep], sgn[keep]))
        base = np.concatenate((base[keep], base[keep]))
        # a half whose midpoint value is lost in rounding cannot be cleared
        # by splitting it further, and the kernel's signs there are noise
        cleared, sign = expsum.test(los, his)
        live = ~cleared & (sign != 0)
        uncleared += int(np.count_nonzero(~cleared & (sign == 0)))
        los, his, sgn, base = los[live], his[live], sgn[live], base[live]
    uncleared += int(los.size)  # survivors of the last level are dropped

    # runs of grid points where the kernel is exactly zero: a root that fell
    # on the grid (opposite flanking signs) or a tangential touch
    zeros = known[signs == 0]
    runs = np.split(zeros, np.nonzero(np.diff(zeros) != 1)[0] + 1) if zeros.size else []
    changes = cells[s_lo * s_hi < 0].tolist()

    # the local scale of a bracket is the largest log|L''| over its grid cell
    # and two grid points on either side; evaluate what the scan skipped
    bracket_cells = np.array(changes + [item[3] for item in found], dtype=np.int64)
    ends = [k for run in runs for k in (run[0] - 1, run[-1] + 1)]
    wanted = np.concatenate([bracket_cells + shift for shift in range(-2, 4)] + [np.array(ends, dtype=np.int64)])
    wanted = _sorted_unique(wanted[(wanted >= 0) & (wanted < grid.size)])
    wanted = wanted[~np.isin(wanted, known, assume_unique=True, kind="sort")]
    n_points = known.size + wanted.size
    if wanted.size:
        s_new, lm_new = kernel(grid.points(wanted))
        known = np.concatenate((known, wanted))
        order = np.argsort(known)
        known = known[order]
        signs = np.concatenate((signs, s_new))[order]
        logmag = np.concatenate((logmag, lm_new))[order]

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
    warnings.extend(split_warnings)
    for k in changes:
        brackets.append(_Bracket(grid.point(k), grid.point(k + 1), at(k)[0], local_scale(k)))
    for lo, hi, sign_lo, k in found:
        brackets.append(_Bracket(lo, hi, sign_lo, local_scale(k)))

    brackets.sort(key=lambda br: br.lo)
    return brackets, (cells.size, n_points, uncleared)


def _section(lo: float, hi: float, depth: int, tolerance: float) -> list[float]:
    """Midpoints of the next depth bisection levels of [lo, hi], heap-ordered.

    Node 1 is the midpoint of [lo, hi]; nodes 2i and 2i+1 are those of the
    left and right halves at node i; node 0 is unused. A node is NaN where
    the walk stops before it: its interval is within tolerance, or an
    ancestor's midpoint is stuck at the resolution of the floats.
    """
    mids = [math.nan]
    level = [(lo, hi)]
    for _ in range(depth):
        below = []
        for a, b in level:
            if b - a > tolerance:  # False for the NaN ends of a dead node
                m = 0.5 * (a + b)
                mids.append(m)
                if a < m < b:
                    below += ((a, m), (m, b))
                    continue
            else:
                mids.append(math.nan)
            below += _DEAD
        level = below
    return mids


def _bisect_all(kernel: _Kernel, brackets: list[_Bracket], tolerance: float) -> np.ndarray:
    """Refine every bracket by section bisection; returns the midpoints.

    Each round evaluates, in one kernel call, the midpoints of the next
    _SECTION_DEPTH bisection levels of every open bracket (see _section),
    and each bracket then takes up to that many steps from those signs. The
    steps are those of plain bisection with one kernel call per step, all
    open brackets together: stop once hi - lo is within tolerance; collapse
    onto a midpoint that is stuck at the resolution of the floats or where
    the sign is exactly zero; at most _MAX_BISECT_ITER steps in all. A step
    that only one bracket takes reads the sign that a one-point call gives,
    since that call rounds differently (see _Kernel). So the midpoints are
    the same, in fewer and fuller calls: numpy dispatch, not the number of
    points, sets the cost of a call.

    The brackets themselves keep their original endpoints: escalation needs
    endpoints whose double-precision signs are trustworthy, and those are
    the grid-scale ones, not the refined pair straddling the root.
    """
    lo = [br.lo if br.exact_p is None else br.exact_p for br in brackets]
    hi = [br.hi if br.exact_p is None else br.exact_p for br in brackets]
    steps = 0
    while steps < _MAX_BISECT_ITER:
        depth = min(_SECTION_DEPTH, _MAX_BISECT_ITER - steps)
        walks = [k for k in range(len(brackets)) if hi[k] - lo[k] > tolerance]
        if not walks:
            break
        trees = [_section(lo[k], hi[k], depth, tolerance) for k in walks]
        flat = np.array(trees).ravel()
        wanted = ~np.isnan(flat)
        signs = {}  # by alone: the signs at every node, computed when first needed
        nodes = [1] * len(walks)
        for _ in range(depth):
            stepping = []
            for t, k in enumerate(walks):
                if hi[k] - lo[k] <= tolerance:
                    continue
                m = trees[t][nodes[t]]
                if m <= lo[k] or m >= hi[k]:
                    lo[k] = hi[k] = m
                else:
                    stepping.append(t)
            if not stepping:
                break
            alone = len(stepping) == 1
            if alone not in signs:
                at_nodes = np.zeros(flat.shape[0], dtype=np.int8)
                at_nodes[wanted] = kernel(flat[wanted], alone=alone)[0]
                signs[alone] = at_nodes.tolist()
            for t in stepping:
                k, node = walks[t], nodes[t]
                m = trees[t][node]
                s = signs[alone][(t << depth) + node]
                if s == 0:
                    lo[k] = hi[k] = m
                elif s == brackets[k].sign_lo:
                    lo[k], nodes[t] = m, 2 * node + 1
                else:
                    hi[k], nodes[t] = m, 2 * node
        steps += depth
    return np.array([0.5 * (a + b) for a, b in zip(lo, hi)])


def _bisect_mp(spec: MeanSpec, lo: float, hi: float, tolerance: float) -> float | None:
    """50-digit re-bisection; None when the endpoint signs do not differ."""
    s_lo = _mp_sign(spec, lo)
    s_hi = _mp_sign(spec, hi)
    if s_lo == 0:
        return lo
    if s_hi == 0:
        return hi
    if s_lo == s_hi:
        return None
    while hi - lo > tolerance:
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


def _scan_and_refine(spec: MeanSpec, kernel: _Kernel, half: float, config: ScanConfig, capped: bool) -> InflectionReport:
    warnings: list[str] = []
    per_unit = config.grid_points_per_unit
    if capped:
        warnings.append(
            f"scan range exhausted at half-width {half:g}; results cover a budget-limited pass only"
        )
        per_unit = min(per_unit, _PARTIAL_BUDGET / (2.0 * half))
    brackets, (live, grid_points, uncleared) = _collect_brackets(kernel, _ExpSum(spec), _Grid(half, per_unit), warnings)
    calls, points = kernel.calls, kernel.points
    mids = _bisect_all(kernel, brackets, config.refine_tolerance)
    _log.debug(
        "scan half-width %g: %d live grid cells, %d kernel points on the grid, %d split cells left uncleared; "
        "bisection: %d kernel calls, %d points; scan in all: %d kernel calls, %d points",
        half,
        live,
        grid_points,
        uncleared,
        kernel.calls - calls,
        kernel.points - points,
        kernel.calls,
        kernel.points,
    )
    precision_flag = config.precision_mode == "extended"
    sd_mode = config.precision_mode

    refined: list[tuple[float, _Bracket, float]] = []
    for k, br in enumerate(brackets):
        p_star = float(mids[k]) if br.exact_p is None else br.exact_p
        if config.precision_mode == "extended":
            better = _bisect_mp(spec, br.lo, br.hi, config.refine_tolerance)
            if better is not None:
                p_star = better
        residual = abs(second_derivative(spec, p_star, precision=sd_mode))
        if config.precision_mode == "auto" and residual > _ESCALATION_FACTOR * math.exp(br.local_log_scale):
            better = _bisect_mp(spec, br.lo, br.hi, config.refine_tolerance)
            if better is not None:
                p_star = better
                residual = abs(second_derivative(spec, p_star, precision="extended"))
                precision_flag = True
            else:
                warnings.append(
                    f"residual {residual:.3g} near p={p_star:.6g} stayed above the local scale "
                    "and the 50-digit endpoint signs do not bracket a crossing"
                )
        refined.append((p_star, br, residual))

    refined.sort(key=lambda item: item[0])

    # merge near-coincident roots instead of silently double-counting
    roots: list[InflectionRoot] = []
    merge_gap = 2.0 * config.refine_tolerance
    group: list[tuple[float, _Bracket, float]] = []

    def flush_group():
        if not group:
            return
        if len(group) == 1:
            p_star, br, residual = group[0]
            roots.append(
                InflectionRoot(
                    p_star=p_star, bracket=(br.lo, br.hi), residual=residual, direction=_direction(br.sign_lo)
                )
            )
        else:
            p_star = math.fsum(item[0] for item in group) / len(group)
            residual = abs(second_derivative(spec, p_star, precision=sd_mode))
            warnings.append(
                f"merged {len(group)} near-coincident roots near p={p_star:.6g}; parity may be unreliable"
            )
            roots.append(
                InflectionRoot(
                    p_star=p_star,
                    bracket=(group[0][1].lo, group[-1][1].hi),
                    residual=residual,
                    direction=_direction(group[0][1].sign_lo),
                )
            )

    for item in refined:
        if group and item[0] - group[-1][0] < merge_gap:
            group.append(item)
        else:
            flush_group()
            group = [item]
    flush_group()

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
        scan_range=(-half, half),
        precision_used="extended" if precision_flag else "standard",
        warnings=tuple(warnings),
    )


def find_inflections(spec: MeanSpec, config: ScanConfig | None = None) -> InflectionReport:
    """Locate all inflection points of L.

    Raises NoInflectionError for constant specs and RangeExhaustedError
    (carrying a partial report) when the asymptotic regime is not reached
    within max_half_width.
    """
    if config is None:
        config = ScanConfig()
    if spec.is_constant:
        raise NoInflectionError("the mean is constant; there is no inflection point")
    kernel = _Kernel(spec)
    if kernel.n_pairs == 0:
        raise NoInflectionError("values are equal at working precision; the mean is constant")
    lo_asym, hi_asym = asymptotes(spec)

    half = min(config.initial_half_width, config.max_half_width)
    while True:
        s, _ = kernel(np.array([-half, half]))
        signs_ok = s[0] > 0 and s[1] < 0
        prox_ok = (
            abs(_lehmer_value(spec, -half) - lo_asym) <= ASYMPTOTE_TOLERANCE
            and abs(_lehmer_value(spec, half) - hi_asym) <= ASYMPTOTE_TOLERANCE
        )
        if signs_ok and prox_ok:
            break
        if half >= config.max_half_width:
            partial = _scan_and_refine(spec, kernel, half, config, capped=True)
            raise RangeExhaustedError(
                f"no asymptotic curvature regime within half-width {config.max_half_width:g}",
                report=partial,
            )
        half = min(half * config.expansion_factor, config.max_half_width)

    return _scan_and_refine(spec, kernel, half, config, capped=False)


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
    positive, "degenerate" when the values are all equal.
    """
    if spec.is_constant:
        return "degenerate"
    k = k_constant(spec).k
    if k < 0.0:
        return "below_one"
    if k > 0.0:
        return "above_one"
    return "degenerate"
