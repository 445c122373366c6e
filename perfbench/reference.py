"""Independent reference values for checking the lehmer package.

Nothing here imports lehmer. Every quantity is computed from its definition
with mpmath, so a check that compares the package against this module does
not share code, formulas or rounding with the package:

- L(p) = A(p) / B(p), with A(p) = sum w_i x_i^p and B(p) = A(p - 1);
- L'(p) and L''(p) by the quotient rule on the power sums
  S_k(q) = sum w_i x_i^q (log x_i)^k, not by the package's log-moment form;
- K for three unit-weight values, from the paper's formula;
- the weighted-pair root 1 - log(w1/w2) / log(x1/x2);
- the count bound J from the n(n+4)(n-1)/6 terms of the curvature numerator.

The quotient rule cancels about |p| * log(max x / min x) / log(10) decimal
digits on top of the curvature's own cancellation, so the working precision
grows with that product.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath as mp

# digits kept after the spread-driven cancellation; covers the 1e-10
# curvature scale of clustered instances with 30 digits to spare
_BASE_DPS = 40


class Unresolved(ArithmeticError):
    """The sign of L'' could not be settled at any precision tried."""


def dps_for(values: Sequence[float], p: float) -> int:
    """Working precision for evaluating the derivatives at p."""
    spread = math.log(max(values)) - math.log(min(values))
    return _BASE_DPS + int(math.ceil((abs(p) + 1.0) * spread / math.log(10.0)))


def _power_sums(values, weights, q):
    s0 = s1 = s2 = mp.mpf(0)
    for x, w in zip(values, weights):
        lx = mp.log(x)
        t = w * mp.power(x, q)
        s0 += t
        s1 += t * lx
        s2 += t * lx * lx
    return s0, s1, s2


def derivatives(values: Sequence[float], weights: Sequence[float] | None, p: float, dps: int | None = None):
    """(L, L', L'', err', err'') at p as mpf values, at dps digits (default dps_for).

    err' and err'' bound the rounding of L' and L'' at that precision: the
    quotient-rule numerators lose the digits their products share.
    """
    if weights is None:
        weights = [1.0] * len(values)
    if dps is None:
        dps = dps_for(values, p)
    with mp.workdps(dps):
        xs = [mp.mpf(x) for x in values]
        ws = [mp.mpf(w) for w in weights]
        pm = mp.mpf(p)
        a, a1, a2 = _power_sums(xs, ws, pm)
        b, b1, b2 = _power_sums(xs, ws, pm - 1)
        b_sq = b * b
        num1 = a1 * b - a * b1
        size1 = abs(a1 * b) + abs(a * b1)
        d1 = num1 / b_sq
        d2 = (a2 * b - a * b2) / b_sq - 2 * b1 * num1 / (b_sq * b)
        ulp = mp.mpf(10) ** (3 - dps)
        err1 = ulp * size1 / b_sq
        err2 = ulp * ((abs(a2 * b) + abs(a * b2)) / b_sq + 2 * abs(b1) * size1 / abs(b_sq * b))
        return a / b, d1, d2, err1, err2


def second_derivative_sign(values: Sequence[float], weights: Sequence[float] | None, p: float) -> int:
    """Sign of L''(p), once it stands clear of the rounding bound.

    Raises Unresolved when it does not at up to 16 times the default
    precision, which happens only within rounding distance of a root.
    """
    dps = dps_for(values, p)
    for _ in range(5):
        _, _, d2, _, err2 = derivatives(values, weights, p, dps)
        if abs(d2) > err2:
            return int(mp.sign(d2))
        dps *= 2
    raise Unresolved(f"sign of L'' at p={p!r} not resolved at {dps // 2} digits")


def k_constant(x1: float, x2: float, x3: float) -> mp.mpf:
    """K = sum over the three pairs of (xi - xj) log(xi/xj) log(xi xj / xk^2)."""
    with mp.workdps(50):
        a, b, c = mp.mpf(x1), mp.mpf(x2), mp.mpf(x3)

        def term(xi, xj, xk):
            return (xi - xj) * mp.log(xi / xj) * mp.log(xi * xj / (xk * xk))

        return +(term(a, b, c) + term(a, c, b) + term(b, c, a))


def weighted_pair_root(x1: float, x2: float, w1: float, w2: float) -> mp.mpf:
    """Inflection exponent of a weighted pair: 1 - log(w1/w2) / log(x1/x2)."""
    with mp.workdps(50):
        return 1 - mp.log(mp.mpf(w1) / w2) / mp.log(mp.mpf(x1) / x2)


def count_bound(n: int) -> int:
    """J: one less than the n(n+4)(n-1)/6 terms, made odd."""
    j = n * (n + 4) * (n - 1) // 6 - 1
    return j if j % 2 else j - 1
