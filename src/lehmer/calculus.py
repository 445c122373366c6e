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
decimal digits, precision "auto" (the default) evaluates L'' from the
pairwise form that the scan's sign kernel uses,

    L'' = sum_{i<j} w_i w_j (x_i x_j)^(p-1) (x_i - x_j) log(x_i/x_j) (d_i + d_j)
          / (sum_k w_k x_k^(p-1))^2,   d_i = log x_i - m_1(p-1),

taken from the ratios log(x_i/x_k) so that values a few ulps apart keep
their digits (see _pairwise_second_derivative). That sum cancels near a root
of L''. Only where it too loses more than ten digits, measured against the
rounding each of its terms can carry, does the computation escalate to
50-digit arithmetic; a 50-digit bracket that cancels to noise in turn gives
the pairwise value where that keeps ten digits, and 0.0 only where it does
not. The p-independent constants of the pairwise terms are kept per spec
(MeanSpec.pair_table) and shared with L'.

Each exponent gets one table of powers (core._powers: the shifted terms
w_i x_i^p, their largest and their exact sum), and the tables of p and p-1
serve L, m_1, m_2 and L' alike. The 50-digit path likewise computes the
powers w_i x_i^p and w_i x_i^(p-1) once per call and shares them among the
four moments and L; the values, weights, logs and squared logs it needs at
the working precision are kept for the last few specs, so a bisection or a
finite-difference oracle that asks about one spec many times converts and
takes logs only once. Both paths round exactly as separate passes would.

For two and three values the module also provides the closed forms of L''
and, for n=3, the constant K, the bracketed factor tilde_l whose single root
is the inflection point, its derivative, and the three inequality slacks
that certify tilde_l is decreasing.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from math import exp, fsum, log
from typing import NamedTuple

import mpmath as mp

from .core import MeanSpec, _lehmer_value, _powers
from .errors import UsageError


__all__ = [
    "LogMoment",
    "N3Constant",
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


# ---------------------------------------------------------------------------
# log-moments


@dataclass(frozen=True)
class LogMoment:
    """Weighted average of (log x_i)^k under softmax weights w_i x_i^p."""

    p: float
    k: int
    value: float

    @classmethod
    def compute(cls, spec: MeanSpec, p: float, k: int) -> "LogMoment":
        if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= 2:
            raise UsageError(f"moment order must be an integer in 0..2, got {k!r}")
        p = float(p)
        value = 1.0 if k == 0 else _table_moment(spec, _powers(spec, p), k)
        return cls(p=p, k=k, value=value)

    def __float__(self) -> float:
        return self.value


def _table_moment(spec: MeanSpec, table: tuple, k: int) -> float:
    """m_k at the exponent of table = _powers(spec, p), for k = 1 or 2."""
    _, _, u, s = table
    return fsum(ui * li**k for ui, li in zip(u, spec.log_values)) / s


def log_moment(spec: MeanSpec, p: float, k: int) -> float:
    """m_k(p) as a float; k must be 0, 1, or 2. m_0 is exactly 1."""
    return LogMoment.compute(spec, p, k).value


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
    if spec.is_constant:
        return 0.0
    q = p - 1.0
    ts = [g + q * sl + lr for _, _, g, sl, lr in spec.pair_table]
    tp = _powers(spec, p)
    tq = _powers(spec, q)
    t_max = max(ts)
    a_p, top_p, _, su = tp
    a_q, top_q, _, sv = tq
    shift = t_max - a_p[top_p] - a_q[top_q]
    s = fsum(exp(t - t_max) for t in ts)
    delta = exp(shift) * s / (su * sv)
    value = _lehmer_value(spec, p, tp, tq)
    if delta < sys.float_info.min:
        # a subnormal L'/L has lost digits: put L into the exponent instead
        return exp(shift + log(value)) * s / (su * sv)
    return value * delta


# ---------------------------------------------------------------------------
# second derivative


def second_derivative(spec: MeanSpec, p: float, precision: str = "auto") -> float:
    """L''(p) via the log-moment bracket; exactly 0 for constant specs.

    precision:
        "standard"  double precision only
        "extended"  the bracket at 50 significant digits; where even those
                    cancel to noise, the pairwise double form of the module
                    docstring if it keeps ten digits, else 0.0
        "auto"      the double bracket while it keeps ten decimal digits;
                    else the pairwise double form while that keeps ten;
                    else the 50-digit bracket while that keeps its own
                    floor; else 0.0 (default)
    """
    p = float(p)
    if precision not in ("standard", "extended", "auto"):
        raise UsageError(f"unknown precision mode {precision!r}")
    if spec.is_constant:
        return 0.0
    if precision == "extended":
        value = _second_derivative_mp(spec, p)
        if value is None:
            value = _pairwise_second_derivative(spec, p)
        return 0.0 if value is None else value
    tp = _powers(spec, p)
    tq = _powers(spec, p - 1.0)
    m1p = _table_moment(spec, tp, 1)
    m1q = _table_moment(spec, tq, 1)
    m2p = _table_moment(spec, tp, 2)
    m2q = _table_moment(spec, tq, 2)
    terms = (m2p, -m2q, -2.0 * m1q * m1p, 2.0 * m1q * m1q)
    bracket = fsum(terms)
    if precision == "auto":
        scale = max(abs(t) for t in terms)
        if scale > 0.0 and abs(bracket) < _CANCELLATION_LIMIT * scale:
            value = _pairwise_second_derivative(spec, p)
            if value is None:
                value = _second_derivative_mp(spec, p)
            # below the 50-digit floor the value is noise: reporting it
            # signed would contradict the closed forms
            return 0.0 if value is None else value
    return _lehmer_value(spec, p, tp, tq) * bracket


def _pairwise_second_derivative(spec: MeanSpec, p: float) -> float | None:
    """L''(p) from the pairwise form, or None where it keeps under ten digits.

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
    about |e| ulps, and so does the v_k taken from it. Neither the largest
    term nor the |d_i| would be a sound measure, since the d_i themselves
    cancel.
    """
    pairs = spec.pair_table
    if not pairs:
        return None
    q = p - 1.0
    n, r, lw = spec.n, spec.log_ratios, spec.log_weights
    top = max(range(n), key=lambda k: q * r[k][0] + lw[k])
    exps = [q * r[k][top] + (lw[k] - lw[top]) for k in range(n)]
    v = [exp(e) for e in exps]
    ulps = [1.0 + abs(q * r[k][top]) + abs(lw[k]) + abs(lw[top]) for k in range(n)]
    ts, sums, sizes = [], [], []
    for i, j, _, _, lr in pairs:
        qr = q * r[j][i]
        gap = qr + (lw[j] - lw[i])  # log(v_j / v_i)
        big, small = (i, j) if gap <= 0.0 else (j, i)
        diff = math.copysign(v[big] * math.expm1(-abs(gap)), gap)  # v_j - v_i
        others = [k for k in range(n) if k != i and k != j]
        sums.append(fsum([r[i][j] * diff] + [v[k] * r[i][k] for k in others] + [v[k] * r[j][k] for k in others]))
        sizes.append(
            abs(r[i][j]) * (abs(diff) * (ulps[big] + 1.0) + v[small] * (abs(qr) + abs(lw[i]) + abs(lw[j])))
            + sum(v[k] * ulps[k] * (abs(r[i][k]) + abs(r[j][k])) for k in others)
        )
        ts.append(exps[i] + exps[j] + lr)
    t_max = max(ts)
    e = [exp(t - t_max) for t in ts]
    s = fsum(ek * sk for ek, sk in zip(e, sums))
    size = fsum(ek * mk for ek, mk in zip(e, sizes))
    if abs(s) <= _CANCELLATION_LIMIT * size:
        return None
    try:
        return math.copysign(exp(t_max + log(abs(s)) - 3.0 * log(fsum(v))), s)
    except OverflowError:  # |L''| beyond the largest double, as L * bracket would give
        return math.copysign(math.inf, s)


@functools.lru_cache(maxsize=16)
def _mp_constants_at(
    values: tuple[float, ...], weights: tuple[float, ...], prec: int, rnd: str
) -> tuple[tuple[mp.mpf, ...], ...]:
    """The mpf values, weights, logs and squared logs of one spec.

    prec and rnd are the working precision and rounding in force, which these
    are computed at; they are part of the key so that a change of precision
    gets its own entry.
    """
    xs = tuple(mp.mpf(v) for v in values)
    logs = tuple(mp.log(x) for x in xs)
    return xs, tuple(mp.mpf(w) for w in weights), logs, tuple(li**2 for li in logs)


def _mp_constants(spec: MeanSpec) -> tuple[tuple[mp.mpf, ...], ...]:
    """(values, weights, logs, squared logs) of spec at the current working precision.

    Kept for the last 16 specs only: a scan, a 50-digit bisection or a
    finite-difference oracle asks for the same spec many times in a row.
    """
    prec, rnd = mp.mp._prec_rounding  # what mpf arithmetic itself reads
    return _mp_constants_at(spec.values, spec.weights, prec, rnd)


def _mp_terms(spec: MeanSpec, p) -> list[mp.mpf]:
    """Weights w_i x_i^p as mpf values at the current working precision."""
    xs, ws, _, _ = _mp_constants(spec)
    return [w * mp.power(x, p) for x, w in zip(xs, ws)]


def _mp_lehmer(spec: MeanSpec, p) -> mp.mpf:
    num = mp.fsum(_mp_terms(spec, p))
    den = mp.fsum(_mp_terms(spec, p - 1))
    return num / den


def _mp_curvature(spec: MeanSpec, p) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
    """The bracket L''/L, the largest of its terms, and L, in one pass.

    The powers w_i x_i^p and w_i x_i^(p-1) are each computed once and shared,
    with the cached logs and their squares, by the four moments and by L.
    """
    u_p = _mp_terms(spec, p)
    u_q = _mp_terms(spec, p - 1)
    s_p = mp.fsum(u_p)
    s_q = mp.fsum(u_q)
    _, _, logs, squares = _mp_constants(spec)
    m1p = mp.fsum(ui * li for ui, li in zip(u_p, logs)) / s_p
    m1q = mp.fsum(ui * li for ui, li in zip(u_q, logs)) / s_q
    m2p = mp.fsum(ui * li for ui, li in zip(u_p, squares)) / s_p
    m2q = mp.fsum(ui * li for ui, li in zip(u_q, squares)) / s_q
    bracket = m2p - m2q - 2 * m1q * (m1p - m1q)
    scale = max(abs(m2p), abs(m2q), abs(2 * m1q * m1p), abs(2 * m1q * m1q))
    return bracket, scale, s_p / s_q


def _mp_bracket(spec: MeanSpec, p) -> tuple[mp.mpf, mp.mpf]:
    """The bracket L''/L at the working precision, and the largest of its terms."""
    bracket, scale, _ = _mp_curvature(spec, p)
    return bracket, scale


def _second_derivative_mp(spec: MeanSpec, p: float, dps: int = _EXTENDED_DPS) -> float | None:
    """L''(p) from the bracket at dps digits, or None where it cancels below them."""
    with mp.workdps(dps):
        bracket, scale, value = _mp_curvature(spec, mp.mpf(p))
        if abs(bracket) < mp.mpf(10) ** (8 - dps) * scale:
            return None
        return float(value * bracket)


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
    """
    _require_n2(spec)
    p = float(p)
    x1, x2 = spec.values
    if x1 == x2:
        return 0.0
    s = log(x1) - log(x2)  # log a
    t = p * s
    d = abs(s - t)
    if d == 0.0:
        return 0.0
    m = max(s, t)
    # |a^p (a - a^p)| = exp(t + m) * (1 - exp(-d)), sign follows s - t
    log_num = t + m + math.log1p(-exp(-d))
    log_den = 3.0 * (m + log(exp(t - m) + exp(s - m)))
    magnitude = exp(log_num - log_den)
    a_minus_1 = math.expm1(s)
    return x1 * a_minus_1 * s * s * math.copysign(magnitude, s - t)


# ---------------------------------------------------------------------------
# closed forms for three values


def _require_n3(spec: MeanSpec) -> None:
    if spec.n != 3:
        raise UsageError(f"this operation needs exactly 3 values, got {spec.n}")
    if not spec.has_unit_weights:
        raise UsageError("this operation is defined for unit weights only")


@dataclass(frozen=True)
class N3Constant:
    """The p-independent term of the three-value second derivative.

    Zero exactly when all three values are equal; its sign tells on which
    side of p = 1 the unique inflection point lies (negative means below).
    """

    k: float

    def __float__(self) -> float:
        return self.k


class N3Slacks(NamedTuple):
    slack_a: float
    slack_b: float
    slack_c: float


def k_constant(spec: MeanSpec) -> N3Constant:
    """K for an unweighted triple; symmetric under value permutations."""
    _require_n3(spec)
    x1, x2, x3 = spec.values
    return N3Constant(k=_k_value(x1, x2, x3))


def _k_value(x1: float, x2: float, x3: float) -> float:
    return fsum(
        (
            (x1 - x2) * log(x1 / x2) * log(x1 * x2 / (x3 * x3)),
            (x1 - x3) * log(x1 / x3) * log(x1 * x3 / (x2 * x2)),
            (x2 - x3) * log(x2 / x3) * log(x2 * x3 / (x1 * x1)),
        )
    )


def tilde_l(spec: MeanSpec, p: float) -> float:
    """Bracketed factor of the three-value L''; strictly decreasing in p.

    Its unique root is the inflection point; at p = 1 the exponential
    differences vanish exactly and the value reduces to K.
    """
    _require_n3(spec)
    p = float(p)
    x1, x2, x3 = spec.values
    q = p - 1.0
    return fsum(
        (
            (pow(x2 / x3, q) - pow(x1 / x3, q)) * (x1 - x2) * log(x1 / x2) ** 2,
            (pow(x3 / x2, q) - pow(x1 / x2, q)) * (x1 - x3) * log(x1 / x3) ** 2,
            (pow(x3 / x1, q) - pow(x2 / x1, q)) * (x2 - x3) * log(x2 / x3) ** 2,
            _k_value(x1, x2, x3),
        )
    )


def second_derivative_n3(spec: MeanSpec, p: float) -> float:
    """Closed-form L'' for an unweighted triple: positive prefactor times tilde_l."""
    _require_n3(spec)
    p = float(p)
    x1, x2, x3 = spec.values
    q = p - 1.0
    l1, l2, l3 = log(x1), log(x2), log(x3)
    log_pre = q * (l1 + l2 + l3)
    m = max(q * l1, q * l2, q * l3)
    log_den = 3.0 * (m + log(exp(q * l1 - m) + exp(q * l2 - m) + exp(q * l3 - m)))
    return exp(log_pre - log_den) * tilde_l(spec, p)


def tilde_l_prime(spec: MeanSpec, p: float) -> float:
    """Derivative of tilde_l; non-positive for every p, strictly negative
    when the three values are pairwise distinct."""
    _require_n3(spec)
    p = float(p)
    x1, x2, x3 = spec.values
    q = p - 1.0
    g1 = (
        log(x2 / x1)
        * log(x2 / x3)
        * (pow(x2 / x3, q) * (x1 - x2) * log(x2 / x1) + pow(x2 / x1, q) * (x2 - x3) * log(x3 / x2))
    )
    g2 = (
        log(x2 / x1)
        * log(x3 / x1)
        * (pow(x1 / x3, q) * (x1 - x2) * log(x2 / x1) + pow(x1 / x2, q) * (x1 - x3) * log(x3 / x1))
    )
    g3 = (
        log(x3 / x1)
        * log(x3 / x2)
        * (pow(x3 / x2, q) * (x1 - x3) * log(x3 / x1) + pow(x3 / x1, q) * (x2 - x3) * log(x3 / x2))
    )
    return fsum((g1, g2, g3))


def n3_inequalities(spec: MeanSpec, p: float) -> N3Slacks:
    """Slacks (right side minus left side) of the three pair inequalities
    behind the monotonicity of tilde_l; each is non-negative for every p.

    Every product (x_i - x_j) log(x_j / x_i) is non-positive by sign
    matching, so each left side is <= 0, each right side is >= 0, and the
    slack is a sum of non-negative quantities with no cancellation.
    """
    _require_n3(spec)
    p = float(p)
    x1, x2, x3 = spec.values
    q = p - 1.0
    lhs_a = pow(x2 / x3, q) * (x1 - x2) * log(x2 / x1) + pow(x2 / x1, q) * (x2 - x3) * log(x3 / x2)
    rhs_a = (x1 - x3) * log(x1 / x3)
    lhs_b = pow(x1 / x3, q) * (x1 - x2) * log(x2 / x1) + pow(x1 / x2, q) * (x1 - x3) * log(x3 / x1)
    rhs_b = (x2 - x3) * log(x2 / x3)
    lhs_c = pow(x3 / x2, q) * (x1 - x3) * log(x3 / x1) + pow(x3 / x1, q) * (x2 - x3) * log(x3 / x2)
    rhs_c = (x1 - x2) * log(x1 / x2)
    return N3Slacks(rhs_a - lhs_a, rhs_b - lhs_b, rhs_c - lhs_c)


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
