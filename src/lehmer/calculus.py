"""Derivatives of the Lehmer mean in cancellation-aware form.

Everything here is built from log-moments

    m_k(p) = sum_i w_i x_i^p (log x_i)^k / sum_i w_i x_i^p

computed with max-shifted exponents and exact (Shewchuk) summation. The two
derivatives are

    L'(p)  = L(p) * (m_1(p) - m_1(p-1))
    L''(p) = L(p) * (m_2(p) - m_2(p-1) - 2 m_1(p-1) (m_1(p) - m_1(p-1)))

The first-derivative difference is evaluated through an equivalent pairwise
form whose terms are all non-negative, so the result can never round to a
negative number. The second-derivative bracket is the one place where digits
cancel, and it cancels at every large |p|. Where it loses more than ten
decimal digits, precisions "auto" (the default) and "standard" evaluate L''
from the pairwise form that the scan's sign kernel uses,

    L'' = sum_{i<j} w_i w_j (x_i x_j)^(p-1) (x_i - x_j) log(x_i/x_j) (d_i + d_j)
          / (sum_k w_k x_k^(p-1))^2,   d_i = log x_i - m_1(p-1),

taken from the ratios log(x_i/x_k) so that values a few ulps apart keep
their digits (see _pairwise_parts). That sum cancels near a root
of L''. Only where it too loses more than ten digits, measured against the
rounding each of its terms can carry, does "auto" escalate to 50-digit
arithmetic ("standard" keeps the double bracket there). Where every term
of the pairwise form is exactly 0, which happens only for a pair of
equal weights at p = 1, both give L'' = 0.0 at once, as the closed form does. A
50-digit bracket that cancels to noise in turn gives the pairwise value
where that keeps ten digits, and 0.0 only where it does not. The double
steps, and a bound on |L''| where both forms cancel, are
_double_second_derivative, which the scan also reads to decide whether a
residual needs its 50 digits at once. The p-independent constants of the
pairwise terms are kept per spec (MeanSpec.pair_table) and shared with L'.

Each exponent gets one table of powers (core._powers: the shifted terms
w_i x_i^p, their largest and their exact sum). An evaluation point
(core._point) is the tables of p and p-1 together with L(p); they serve
L, m_1, m_2, L' and L'' alike, and the last point is kept, so that L, L'
and L'' asked at the same (spec, p) build the two tables once;
second_derivative hands the point it holds on to the double steps. The
moments read the squared logs from MeanSpec.log_powers, each one fsum of
the products u_i (log x_i)^k. The 50-digit path likewise
computes the powers w_i x_i^p and w_i x_i^(p-1) once per call and shares
them among the four moments and L; the values, weights, logs and squared
logs it needs at the working precision are kept for the last few specs, so
a bisection or a finite-difference oracle that asks about one spec many
times converts and takes logs only once. Those constants also hold each
value's log as mpmath's power takes it, at 10 more bits, and x_i^p and
x_i^(p-1) share it: a power whose exponent is neither an integer nor a
half-integer is then one exp per term (see _mp_terms). It works on raw
libmp values, not mpf objects: each step is the libmp call that the mpf
operator it stands for makes, on the same operands and at the working
precision and rounding, so it rounds as the operator does without building
an object per intermediate value. Both paths round exactly as separate
passes, and mp.power, would.

For two and three values the module also provides the closed forms of L''
and, for n=3, the constant K, the bracketed factor tilde_l whose single root
is the inflection point, its derivative, and the three inequality slacks
that certify tilde_l is decreasing. The n=3 forms take a quotient x_i/x_j
that is not a normal double from the logs of the values, and a power or a
term that leaves the double range in mpmath. tilde_l' is taken again in
mpmath, logs of quotients included, where its terms cancel to within their
rounding.
"""

from __future__ import annotations

import functools
import math
import sys
from math import exp, fsum, log
from operator import mul
from typing import Callable, NamedTuple

import mpmath as mp
from mpmath.libmp import (
    from_float,
    from_int,
    mpf_abs,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_pow_int,
    mpf_sign,
    mpf_sub,
    mpf_sum,
    to_float,
)

from .core import MeanSpec, _lehmer_value, _point, _powers
from .errors import UsageError


__all__ = [
    "N3Slacks",
    "log_moment",
    "first_derivative",
    "second_derivative",
    "second_derivative_n2",
    "k_constant",
    "second_derivative_n3",
    "tilde_l",
    "tilde_l_prime",
    "n3_inequalities",
    "fd_second_derivative",
]

# escalate when the bracket loses this many decimal digits to cancellation
_CANCELLATION_LIMIT = 1e-10
_EXTENDED_DPS = 50
_U = 2.0**-53  # unit roundoff of doubles


# ---------------------------------------------------------------------------
# log-moments


def _table_moment(spec: MeanSpec, table: tuple, k: int) -> float:
    """m_k at the exponent of table = _powers(spec, p), for k = 1 or 2."""
    return fsum(map(mul, table[2], spec.log_powers[k - 1])) / table[3]


def log_moment(spec: MeanSpec, p: float, k: int) -> float:
    """m_k(p), the average of (log x_i)^k under the weights w_i x_i^p.

    k must be 0, 1, or 2. m_0 is exactly 1.
    """
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= 2:
        raise UsageError(f"moment order must be an integer in 0..2, got {k!r}")
    return 1.0 if k == 0 else _table_moment(spec, _powers(spec, float(p)), k)


# ---------------------------------------------------------------------------
# first derivative


def first_derivative(spec: MeanSpec, p: float) -> float:
    """L'(p) >= 0 always; exactly 0 for constant specs.

    The moment difference m_1(p) - m_1(p-1) is summed in the pairwise form

        sum_{i<j} w_i w_j (x_i x_j)^(p-1) (x_i - x_j) log(x_i / x_j)
            / (sum_i w_i x_i^p)(sum_j w_j x_j^(p-1))

    whose every term is non-negative, which makes the sign guarantee hold in
    floating point and not just in exact arithmetic. log(x_i / x_j) comes
    from MeanSpec.log_ratios, so values a few ulps apart keep their digits.
    """
    p = float(p)
    (a_p, top_p, _, su), (a_q, top_q, _, sv), value = _point(spec, p)
    if spec.is_constant:
        return 0.0
    q = p - 1.0
    ts = [g + q * sl + lr for _, _, g, sl, lr in spec.pair_table]
    t_max = max(ts)
    shift = t_max - a_p[top_p] - a_q[top_q]
    s = fsum([exp(t - t_max) for t in ts])
    delta = exp(shift) * s / (su * sv)
    if delta < sys.float_info.min:
        # a subnormal L'/L has lost digits: put L into the exponent instead
        return exp(shift + log(value)) * s / (su * sv)
    return value * delta


# ---------------------------------------------------------------------------
# second derivative


_PRECISIONS = ("standard", "extended", "auto")


def _check_precision(precision: str) -> None:
    if precision not in _PRECISIONS:
        raise UsageError(f"unknown precision mode {precision!r}")


def second_derivative(spec: MeanSpec, p: float, precision: str = "auto") -> float:
    """L''(p) via the log-moment bracket; exactly 0 for constant specs.

    precision:
        "standard"  double precision only: the double bracket while it keeps
                    ten decimal digits, else the pairwise double form while
                    that keeps ten (0.0 where its every term is exactly 0),
                    else the double bracket all the same
        "extended"  the bracket at 50 significant digits; where even those
                    cancel to noise, the pairwise double form of the module
                    docstring if it keeps ten digits, else 0.0
        "auto"      the double bracket while it keeps ten decimal digits;
                    else the pairwise double form while that keeps ten;
                    else the 50-digit bracket while that keeps its own
                    floor; else 0.0 (default)
    """
    p = float(p)
    _check_precision(precision)
    point = _point(spec, p)  # DomainError for a non-finite p, in every precision
    if spec.is_constant:
        return 0.0
    if precision == "extended":
        value = _second_derivative_mp(spec, p)
        if value is None:
            value = _pairwise_second_derivative(spec, p)
        return 0.0 if value is None else value
    value, bound = _double_second_derivative(spec, p, point)
    if bound is None or precision == "standard":
        return value
    return _fifty_digit_second_derivative(spec, p)


def _fifty_digit_second_derivative(spec: MeanSpec, p: float) -> float:
    """L''(p) as "auto" gives it where both double forms cancel (see
    _double_second_derivative): the 50-digit bracket, or 0.0 where that
    cancels below its own floor too. Below the floor the value is noise:
    reporting it signed would contradict the closed forms."""
    value = _second_derivative_mp(spec, p)
    return 0.0 if value is None else value


def _double_second_derivative(spec: MeanSpec, p: float, point: tuple) -> tuple[float, float | None]:
    """(L''(p) as "standard" gives it, None) where the double bracket or the
    pairwise form keeps ten decimal digits, and (0.0, None) where every
    pairwise term is exactly 0; else (L * bracket, a bound on |L''(p)|),
    where "auto" goes to 50 digits.

    The bound is the pairwise form's |sum| plus 1e-10 of its size, in the
    form's own scale: far above the rounding its terms can carry. It is inf
    where the form has no pairs or its scale leaves the double range.
    point is _point(spec, p), which the caller holds already.
    """
    (_, _, up, sp), (_, _, uq, sq), mean = point
    l1, l2 = spec.log_powers
    m1p = fsum(map(mul, up, l1)) / sp
    m1q = fsum(map(mul, uq, l1)) / sq
    m2p = fsum(map(mul, up, l2)) / sp
    m2q = fsum(map(mul, uq, l2)) / sq
    terms = (m2p, -m2q, -2.0 * m1q * m1p, 2.0 * m1q * m1q)
    bracket = fsum(terms)
    scale = max(map(abs, terms))
    if scale > 0.0 and abs(bracket) < _CANCELLATION_LIMIT * scale:
        parts = _pairwise_parts(spec, p)
        if parts is None:
            return mean * bracket, math.inf
        s, size, t_max, log_den = parts
        if abs(s) > _CANCELLATION_LIMIT * size:
            return _pairwise_value(s, t_max, log_den), None
        if size == 0.0:  # every term exactly 0: an equal-weight pair at p = 1
            return 0.0, None
        try:
            return mean * bracket, exp(t_max + log(abs(s) + _CANCELLATION_LIMIT * size) - log_den)
        except (OverflowError, ValueError):  # beyond the double range, or a size that underflows
            return mean * bracket, math.inf
    return mean * bracket, None


def _pairwise_second_derivative(spec: MeanSpec, p: float) -> float | None:
    """L''(p) from the pairwise form, or None where it keeps under ten digits."""
    parts = _pairwise_parts(spec, p)
    if parts is None or abs(parts[0]) <= _CANCELLATION_LIMIT * parts[1]:
        return None
    return _pairwise_value(parts[0], parts[2], parts[3])


def _pairwise_value(s: float, t_max: float, log_den: float) -> float:
    """L'' = s exp(t_max - log_den) from the parts of _pairwise_parts."""
    try:
        return math.copysign(exp(t_max + log(abs(s)) - log_den), s)
    except OverflowError:  # |L''| beyond the largest double, as L * bracket would give
        return math.copysign(math.inf, s)


def _pairwise_parts(spec: MeanSpec, p: float) -> tuple[float, float, float, float] | None:
    """The pairwise form of L''(p) as (s, size, t_max, log_den), with
    L''(p) = s exp(t_max - log_den); None for a spec without pairs.

    With r_ik = log(x_i / x_k) (MeanSpec.log_ratios) and v_k = w_k x_k^(p-1)
    over the largest of them, taken as exp((p-1) r_k,top + log w_k - log w_top),

        L''(p) = sum_{i<j} v_i v_j (x_i - x_j) r_ij N_ij / (sum_k v_k)^3
        N_ij   = r_ij (v_j - v_i) + sum_{k != i,j} v_k (r_ik + r_jk)

    where N_ij / sum_k v_k is the d_i + d_j of the module docstring. v_j - v_i
    is the larger of the two times expm1 of minus |log(v_j / v_i)|, with
    log(v_j / v_i) = (p-1) r_ji + log w_j - log w_i, so values a few ulps
    apart lose nothing to it, and no exponent is as large as (p-1) log x_k.
    The sum cancels near a root of L''. Its size is the same sum with every
    term replaced by the rounding it can carry: an exponent e rounds to
    about |e| ulps, and so does the v_k taken from it. log w_j - log w_i is
    exactly 0 where the weights are equal, and adds nothing. Neither the largest
    term nor the |d_i| would be a sound measure, since the d_i themselves
    cancel.
    """
    pairs = spec.pair_table
    if not pairs:
        return None
    q = p - 1.0
    n, r, lw, w = spec.n, spec.log_ratios, spec.log_weights, spec.weights
    keys = [q * rk[0] + lwk for rk, lwk in zip(r, lw)]
    top = keys.index(max(keys))
    lw_top = lw[top]
    exps = [q * rk[top] + (lwk - lw_top) for rk, lwk in zip(r, lw)]
    v = [exp(e) for e in exps]
    ulps = [1.0 + abs(q * rk[top]) + abs(lwk) + abs(lw_top) for rk, lwk in zip(r, lw)]
    ts, sums, sizes = [], [], []
    for i, j, _, _, lr in pairs:
        ri, rj = r[i], r[j]
        qr = q * rj[i]
        gap = qr + (lw[j] - lw[i])  # log(v_j / v_i)
        big, small = (i, j) if gap <= 0.0 else (j, i)
        diff = math.copysign(v[big] * math.expm1(-abs(gap)), gap)  # v_j - v_i
        gap_ulps = abs(qr) + abs(lw[i]) + abs(lw[j]) if w[i] != w[j] else abs(qr)
        size = abs(ri[j]) * (abs(diff) * (ulps[big] + 1.0) + v[small] * gap_ulps)
        others = [k for k in range(n) if k != i and k != j]
        sums.append(fsum([ri[j] * diff] + [v[k] * ri[k] for k in others] + [v[k] * rj[k] for k in others]))
        size += sum([v[k] * ulps[k] * (abs(ri[k]) + abs(rj[k])) for k in others])
        sizes.append(size)
        ts.append(exps[i] + exps[j] + lr)
    t_max = max(ts)
    e = [exp(t - t_max) for t in ts]
    return fsum(map(mul, e, sums)), fsum(map(mul, e, sizes)), t_max, 3.0 * log(fsum(v))


@functools.lru_cache(maxsize=16)
def _mp_constants_at(
    values: tuple[float, ...], weights: tuple[float, ...], prec: int, rnd: str
) -> tuple[tuple, ...]:
    """The mpf values of one spec, and its weights, logs and squared logs and
    the logs of the values as mpmath's power takes them (with 10 more bits),
    these four as raw libmp values.

    prec and rnd are the working precision and rounding in force, which these
    are computed at; they are part of the key so that a change of precision
    gets its own entry.
    """
    xs = tuple(mp.mpf(v) for v in values)
    logs = tuple(mp.log(x) for x in xs)
    power_logs = tuple(mpf_log(x._mpf_, prec + 10, rnd) for x in xs)
    return (
        xs,
        tuple(mp.mpf(w)._mpf_ for w in weights),
        tuple(li._mpf_ for li in logs),
        tuple((li**2)._mpf_ for li in logs),
        power_logs,
    )


def _mp_constants(spec: MeanSpec) -> tuple[tuple, ...]:
    """(values, weights, logs, squared logs, power logs) of spec at the
    current working precision; see _mp_constants_at.

    Kept for the last 16 specs only: a scan, a 50-digit bisection or a
    finite-difference oracle asks for the same spec many times in a row.
    """
    prec, rnd = mp.mp._prec_rounding  # what mpf arithmetic itself reads
    return _mp_constants_at(spec.values, spec.weights, prec, rnd)


def _mp_terms(spec: MeanSpec, t: tuple) -> list[tuple]:
    """Weights w_i x_i^p as raw libmp values at the current working
    precision, for p given as the raw value t.

    Bit for bit w_i * mp.power(x_i, p). For an exponent that is neither an
    integer nor a half-integer, mpmath's power is exp(p log x_i), with the
    log taken at 10 more bits; that log is read from the cache here, and
    only the exp is taken per call.
    """
    xs, ws, _, _, power_logs = _mp_constants(spec)
    prec, rnd = mp.mp._prec_rounding
    if t[2] >= -1:  # an integer or a half-integer: mpmath takes its own path
        p = mp.make_mpf(t)
        return [mpf_mul(w, mp.power(x, p)._mpf_, prec, rnd) for x, w in zip(xs, ws)]
    return [mpf_mul(w, mpf_exp(mpf_mul(t, c), prec, rnd), prec, rnd) for c, w in zip(power_logs, ws)]


def _mp_lehmer(spec: MeanSpec, p: mp.mpf) -> mp.mpf:
    num = mp.fsum(map(mp.make_mpf, _mp_terms(spec, p._mpf_)))
    den = mp.fsum(map(mp.make_mpf, _mp_terms(spec, (p - 1)._mpf_)))
    return num / den


_ONE = from_int(1)


def _mp_curvature(spec: MeanSpec, t: tuple) -> tuple[tuple, tuple, tuple]:
    """The bracket L''/L, the largest of its terms, and L, in one pass, at
    p given as the raw libmp value t; raw libmp values too.

    The powers w_i x_i^p and w_i x_i^(p-1) are each computed once and shared,
    with the cached logs and their squares, by the four moments and by L.
    Every step is the libmp call that the mpf operator it stands for makes,
    at the working precision and rounding: p - 1, the sums (mp.fsum), the
    products, the quotients, 2 m_1 and the absolute values; the largest
    term is the first of equal ones, as max keeps it.
    """
    prec, rnd = mp.mp._prec_rounding
    _, _, logs, squares, _ = _mp_constants(spec)
    moments = []
    for u in (_mp_terms(spec, t), _mp_terms(spec, mpf_sub(t, _ONE, prec, rnd))):
        total = mpf_sum(u, prec, rnd)
        for c in (logs, squares):
            moments.append(mpf_div(mpf_sum([mpf_mul(a, b, prec, rnd) for a, b in zip(u, c)], prec, rnd), total, prec, rnd))
        moments.append(total)
    m1p, m2p, s_p, m1q, m2q, s_q = moments
    twice = mpf_mul_int(m1q, 2, prec, rnd)
    bracket = mpf_sub(mpf_sub(m2p, m2q, prec, rnd), mpf_mul(twice, mpf_sub(m1p, m1q, prec, rnd), prec, rnd), prec, rnd)
    scale = mpf_abs(m2p, prec, rnd)
    for term in (m2q, mpf_mul(twice, m1p, prec, rnd), mpf_mul(twice, m1q, prec, rnd)):
        term = mpf_abs(term, prec, rnd)
        if mpf_cmp(term, scale) > 0:
            scale = term
    return bracket, scale, mpf_div(s_p, s_q, prec, rnd)


@functools.lru_cache(maxsize=16)
def _noise_floor(dps: int, prec: int, rnd: str) -> tuple:
    """mp.mpf(10) ** (8 - dps) at prec and rnd, raw."""
    return mpf_pow_int(from_int(10), 8 - dps, prec, rnd)


def _below_noise(bracket: tuple, scale: tuple, dps: int) -> bool:
    """Whether a bracket taken at dps digits is lost in their rounding: the
    floor sits eight digits above the last, against its largest term."""
    prec, rnd = mp.mp._prec_rounding
    floor = mpf_mul(_noise_floor(dps, prec, rnd), scale, prec, rnd)
    return mpf_cmp(mpf_abs(bracket, prec, rnd), floor) < 0


def _second_derivative_mp(spec: MeanSpec, p: float, dps: int = _EXTENDED_DPS) -> float | None:
    """L''(p) from the bracket at dps digits, or None where it cancels below them."""
    with mp.workdps(dps):
        bracket, scale, value = _mp_curvature(spec, from_float(p))
        if _below_noise(bracket, scale, dps):
            return None
        prec, rnd = mp.mp._prec_rounding
        # float() of an mpf rounds as the context does; to_float's default rounds down
        return to_float(mpf_mul(value, bracket, prec, rnd), rnd=rnd)


def _mp_sign(spec: MeanSpec, p: float) -> int:
    """Sign of L''(p) from the bracket; L > 0, so the bracket's sign suffices.

    The bracket is taken at 50 digits. Where the terms w_i x_i^p and
    w_i x_i^(p-1) spread over more decades than that, the smaller ones vanish
    from the sums, and the bracket cancels to 0 or to noise away from any
    root. Below its noise floor it is taken again with as many more digits
    as the terms spread over; a bracket still below the floor there is a
    root to those digits, and its sign is 0. second_derivative does not
    retry: at the root p = 1 of every unit pair the bracket is noise at any
    precision, and the retry would cost a second evaluation there.
    """
    l, lw = spec.log_values, spec.log_weights
    spread = max(abs(p), abs(p - 1.0)) * (max(l) - min(l)) + (max(lw) - min(lw))
    for dps in (_EXTENDED_DPS, _EXTENDED_DPS + math.ceil(spread / math.log(10.0))):
        with mp.workdps(dps):
            bracket, scale, _ = _mp_curvature(spec, from_float(p))
            if not _below_noise(bracket, scale, dps):
                return mpf_sign(bracket)
    return 0


# ---------------------------------------------------------------------------
# closed forms for two values


def _require_n2(spec: MeanSpec) -> None:
    if spec.n != 2:
        raise UsageError(f"this operation needs exactly 2 values, got {spec.n}")
    if not spec.has_unit_weights:
        raise UsageError("this operation is defined for unit weights only")


def second_derivative_n2(spec: MeanSpec, p: float) -> float:
    """Closed-form L'' for an unweighted pair.

    With a = x1/x2 the closed form is

        L''(p) = x1 (a - 1) (log a)^2 a^p (a - a^p) / (a^p + a)^3

    evaluated in the log domain. Exactly 0 at p = 1 (and for equal values);
    positive for p < 1 and negative for p > 1.

    log a = s comes from MeanSpec.log_ratios, and log(a / a^p) = s (1 - p)
    is one rounding of its exact value, where s - p s would cancel near
    p = 1. With d its magnitude, 1 - e^(-d) is -expm1(-d): e^(-d) rounded
    next to 1 would keep few of its digits, or none.
    """
    _require_n2(spec)
    p = float(p)
    x1, x2 = spec.values
    if x1 == x2:
        return 0.0
    s = spec.log_ratios[0][1]  # log a
    g = s * (1.0 - p)  # log(a / a^p)
    d = abs(g)
    if d == 0.0:
        return 0.0
    t = p * s
    m = max(s, t)
    # |a^p (a - a^p)| = exp(t + m) * (1 - exp(-d)), sign follows g
    log_num = t + m + log(-math.expm1(-d))
    log_den = 3.0 * (m + log(exp(t - m) + exp(s - m)))
    magnitude = exp(log_num - log_den)
    a_minus_1 = math.expm1(s)
    return x1 * a_minus_1 * s * s * math.copysign(magnitude, g)


# ---------------------------------------------------------------------------
# closed forms for three values


def _require_n3(spec: MeanSpec) -> None:
    if spec.n != 3:
        raise UsageError(f"this operation needs exactly 3 values, got {spec.n}")
    if not spec.has_unit_weights:
        raise UsageError("this operation is defined for unit weights only")


class N3Slacks(NamedTuple):
    slack_a: float
    slack_b: float
    slack_c: float


def k_constant(spec: MeanSpec) -> float:
    """K, the p-independent term of L'' for an unweighted triple.

    Symmetric under value permutations. L''(1) = K / 27, so the sign of K
    tells on which side of p = 1 the unique inflection point lies
    (negative means below). K is zero when all three values are equal,
    and for distinct values whose inflection point is p = 1 itself. It is
    ±inf only where it is beyond the largest double (see _in_double_range).
    """
    _require_n3(spec)
    return float(_in_double_range(spec, lambda d, pq, total: (_k_sum(spec, d, total),))[0])


def _log_quotient(a: float, b: float, log_a: float, log_b: float) -> float:
    """log(a / b); from log_a - log_b where a, b or a / b is not a normal double."""
    tiny = sys.float_info.min
    if tiny <= a < math.inf and tiny <= b < math.inf:
        q = a / b
        if tiny <= q < math.inf:
            return log(q)
    return log_a - log_b


def _k_sum(spec: MeanSpec, d: tuple, total: Callable):
    """K, with d = (x1 - x2, x1 - x3, x2 - x3); see _in_double_range."""
    (x1, x2, x3), (l1, l2, l3) = spec.values, spec.log_values
    return total(
        (
            d[0] * _log_quotient(x1, x2, l1, l2) * _log_quotient(x1 * x2, x3 * x3, l1 + l2, 2.0 * l3),
            d[1] * _log_quotient(x1, x3, l1, l3) * _log_quotient(x1 * x3, x2 * x2, l1 + l3, 2.0 * l2),
            d[2] * _log_quotient(x2, x3, l2, l3) * _log_quotient(x2 * x3, x1 * x1, l2 + l3, 2.0 * l1),
        )
    )


def _in_double_range(
    spec: MeanSpec, f: Callable, lq: list[list[float]] | None = None, q: float = 0.0
) -> tuple:
    """f(d, pq, total) for a triple, with d = (x1 - x2, x1 - x3, x2 - x3),
    pq[i][j] = (x_i / x_j)^q for the log quotients lq (see _quotients;
    None where f takes no powers) and total a summation.

    K, tilde_l, tilde_l' and the slacks are such functions. In doubles, a
    power is taken of the quotient where that is a normal double, as in the
    plain formulas, and as exp(q) of its log where it is not. Where every
    value f returns is 0 or a normal double, they are returned as they are.
    Where a power or a term leaves the double range (a value is then ±inf,
    nan or below the normal range, or the evaluation overflows), f is taken
    again in mpmath, whose exponents have no range, from the same log
    quotients, and its values are returned as mpf: float() of one is ±inf
    only where it is beyond the largest double.
    """
    x = x1, x2, x3 = spec.values
    tiny = sys.float_info.min
    try:
        pq = None if lq is None else [
            [pow(xi / xj, q) if tiny <= xi / xj < math.inf else exp(q * lij) for xj, lij in zip(x, row)]
            for xi, row in zip(x, lq)
        ]
        values = f((x1 - x2, x1 - x3, x2 - x3), pq, fsum)
        if all(v == 0.0 or tiny <= abs(v) < math.inf for v in values):
            return values
    except (OverflowError, ValueError):  # a power, or fsum of terms, beyond the double range
        pass
    with mp.workdps(30):
        x1, x2, x3 = (mp.mpf(v) for v in spec.values)
        pq = None if lq is None else [[mp.exp(mp.mpf(q) * lij) for lij in row] for row in lq]
        return f((x1 - x2, x1 - x3, x2 - x3), pq, mp.fsum)


def _quotients(spec: MeanSpec) -> list[list[float]]:
    """log(x_i / x_j) for every i, j as lq[i][j].

    Where x_i / x_j is a normal double the log is taken of it, as in the
    plain formulas; where it is not, the quotient has lost digits or become
    0 or inf, and the log is log x_i - log x_j (see _log_quotient).
    """
    x, l = spec.values, spec.log_values
    return [[_log_quotient(xi, xj, li, lj) for xj, lj in zip(x, l)] for xi, li in zip(x, l)]


def _tilde_l(spec: MeanSpec, p: float):
    """tilde_l as a double, or as an mpf where it leaves the double range."""
    lq = _quotients(spec)

    def value(d, pq, total):
        terms = (
            (pq[1][2] - pq[0][2]) * d[0] * lq[0][1] ** 2,
            (pq[2][1] - pq[0][1]) * d[1] * lq[0][2] ** 2,
            (pq[2][0] - pq[1][0]) * d[2] * lq[1][2] ** 2,
            _k_sum(spec, d, total),
        )
        return (total(terms),)

    return _in_double_range(spec, value, lq, float(p) - 1.0)[0]


def tilde_l(spec: MeanSpec, p: float) -> float:
    """Bracketed factor of the three-value L''; strictly decreasing in p.

    Its unique root is the inflection point; at p = 1 the exponential
    differences vanish exactly and the value reduces to K. Quotients
    x_i / x_j that leave the double range are taken from the logs of the
    values (_quotients), and powers or terms that leave it in mpmath
    (_in_double_range): the value is ±inf only where it is beyond the
    largest double.
    """
    _require_n3(spec)
    return float(_tilde_l(spec, p))


def second_derivative_n3(spec: MeanSpec, p: float) -> float:
    """Closed-form L'' for an unweighted triple: positive prefactor times tilde_l.

    The two are combined in logs, so that neither the prefactor's underflow
    nor tilde_l's overflow at large |p| reaches the product.
    """
    _require_n3(spec)
    p = float(p)
    x1, x2, x3 = spec.values
    q = p - 1.0
    l1, l2, l3 = log(x1), log(x2), log(x3)
    log_pre = q * (l1 + l2 + l3)
    m = max(q * l1, q * l2, q * l3)
    log_den = 3.0 * (m + log(exp(q * l1 - m) + exp(q * l2 - m) + exp(q * l3 - m)))
    t = _tilde_l(spec, p)
    if t == 0:
        return 0.0
    log_t = math.log(abs(t)) if isinstance(t, float) else float(mp.log(abs(t)))
    try:
        return math.copysign(exp(log_pre - log_den + log_t), t)
    except OverflowError:
        return math.copysign(math.inf, t)


# tilde_l' = g1 + g2 + g3, each g = lq[a] lq[b] (pq[c] d[k] lq[e] + pq[c'] d[k'] lq[e']);
# a row is ((a, b), ((c, k, e), (c', k', e'))), each pair (i, j) of lq and pq by index
_SLOPE_TERMS = (
    (((1, 0), (1, 2)), (((1, 2), 0, (1, 0)), ((1, 0), 2, (2, 1)))),
    (((1, 0), (2, 0)), (((0, 2), 0, (1, 0)), ((0, 1), 1, (2, 0)))),
    (((2, 0), (2, 1)), (((2, 1), 1, (2, 0)), ((2, 0), 2, (2, 1)))),
)


def _slope(lq, elq, d, pq, total, u, q) -> tuple:
    """(tilde_l', a bound on its error) at q = p - 1.

    lq[i][j] is log(x_i / x_j) to within elq[i][j], pq[i][j] the power of
    x_i / x_j taken from it, u the unit roundoff of the arithmetic. Each of
    the six products carries the relative errors of its three logs, |q|
    times that of its power's log, the rounding of the power and 16 u for
    its own roundings; the bound sums the products' shares.
    """
    gs, shares = [], []
    for (a, b), parts in _SLOPE_TERMS:
        w = lq[a[0]][a[1]] * lq[b[0]][b[1]]
        terms = [pq[i][j] * d[k] * lq[e[0]][e[1]] for (i, j), k, e in parts]
        gs.append(w * (terms[0] + terms[1]))
        for ((i, j), _, e), t in zip(parts, terms):
            if w and t:
                rel = sum(elq[r][s] / abs(lq[r][s]) for r, s in (a, b, e))
                rel += abs(q) * elq[i][j] + u * (abs(q * lq[i][j]) + 16)
                shares.append(abs(w * t) * rel)
    return total(gs), total(shares)


def _slope_mp(spec: MeanSpec, q: float):
    """tilde_l' in mpmath from the values, the logs of the quotients taken
    there too, with more digits until its error bound is within the
    rounding of a double."""
    for dps in (40, 80, 160, 320):
        with mp.workdps(dps):
            x = [mp.mpf(v) for v in spec.values]
            lq = [[mp.log(xi / xj) for xj in x] for xi in x]
            elq = [[2 * mp.eps * (1 + abs(v)) for v in row] for row in lq]
            pq = [[mp.exp(q * v) for v in row] for row in lq]
            value, bound = _slope(lq, elq, (x[0] - x[1], x[0] - x[2], x[1] - x[2]), pq, mp.fsum, mp.eps, q)
            if bound <= _U * abs(value):
                break
    return value


def tilde_l_prime(spec: MeanSpec, p: float) -> float:
    """Derivative of tilde_l; non-positive for every p, strictly negative
    when the three values are pairwise distinct. Taken in the double range
    as tilde_l is; where the sum is within the rounding of its terms (the
    logs of quotients of near-equal values have lost their digits) it is
    taken again in mpmath (_slope_mp)."""
    _require_n3(spec)
    q = float(p) - 1.0
    lq = _quotients(spec)
    l = spec.log_values
    # the rounding of a quotient and of log, or of two logs and their difference
    elq = [[2.0 * _U * (1.0 + abs(li) + abs(lj)) for lj in l] for li in l]
    value, bound = _in_double_range(spec, lambda d, pq, total: _slope(lq, elq, d, pq, total, _U, q), lq, q)
    if abs(value) <= bound:
        value = _slope_mp(spec, q)
    return float(value)


def n3_inequalities(spec: MeanSpec, p: float) -> N3Slacks:
    """Slacks (right side minus left side) of the three pair inequalities
    behind the monotonicity of tilde_l; each is non-negative for every p.

    Every product (x_i - x_j) log(x_j / x_i) is non-positive by sign
    matching, so each left side is <= 0, each right side is >= 0, and the
    slack is a sum of non-negative quantities with no cancellation. Taken
    in the double range as tilde_l is.
    """
    _require_n3(spec)
    lq = _quotients(spec)

    def value(d, pq, total):
        lhs_a = pq[1][2] * d[0] * lq[1][0] + pq[1][0] * d[2] * lq[2][1]
        rhs_a = d[1] * lq[0][2]
        lhs_b = pq[0][2] * d[0] * lq[1][0] + pq[0][1] * d[1] * lq[2][0]
        rhs_b = d[2] * lq[1][2]
        lhs_c = pq[2][1] * d[1] * lq[2][0] + pq[2][0] * d[2] * lq[2][1]
        rhs_c = d[0] * lq[0][1]
        return (rhs_a - lhs_a, rhs_b - lhs_b, rhs_c - lhs_c)

    return N3Slacks(*(float(v) for v in _in_double_range(spec, value, lq, float(p) - 1.0)))


# ---------------------------------------------------------------------------
# finite-difference oracle


def fd_second_derivative(spec: MeanSpec, p: float, h: float = 1e-4, dps: int | None = None) -> float:
    """Central second difference (L(p+h) - 2 L(p) + L(p-h)) / h^2.

    Independent of the analytic path above. With dps set, the three mean
    evaluations run at that many significant digits, which removes the
    round-off term (~eps * L / h^2) that dominates small curvatures in
    double precision.
    """
    p = float(p)
    h = float(h)
    if h <= 0.0:
        raise UsageError(f"step must be positive, got {h!r}")
    if dps is None:
        f_plus = _lehmer_value(spec, p + h)
        f_mid = _lehmer_value(spec, p)
        f_minus = _lehmer_value(spec, p - h)
        return (f_plus - 2.0 * f_mid + f_minus) / (h * h)
    with mp.workdps(dps):
        pm = mp.mpf(p)
        hm = mp.mpf(h)
        f_plus = _mp_lehmer(spec, pm + hm)
        f_mid = _mp_lehmer(spec, pm)
        f_minus = _mp_lehmer(spec, pm - hm)
        return float((f_plus - 2 * f_mid + f_minus) / (hm * hm))
