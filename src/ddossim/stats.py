"""Self-contained statistics kernel.

Sample moments for batch summaries, the regularized incomplete beta, and
the Student t quantile it gives: the critical value of the statistical
detector's tests and the half-width of a batch interval.  It is pure
Python on the math module, so numpy stays the only runtime dependency and
the whole path can be audited and cross-checked against independent
oracles.  The gate's z, the standard normal's upper MPAR_ALPHA quantile,
is not here: the detector takes it from the standard library's
statistics.NormalDist.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

__all__ = [
    "sample_mean",
    "sample_stddev",
    "student_t_quantile",
]


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------

def sample_mean(xs: Sequence[float]) -> float:
    if len(xs) == 0:
        raise ValueError("empty sample")
    return math.fsum(xs) / len(xs)


def sample_stddev(xs: Sequence[float]) -> float:
    """Sample standard deviation (n - 1 denominator), two-pass about the mean."""
    n = len(xs)
    if n < 2:
        raise ValueError("sample standard deviation needs at least 2 observations")
    mean = sample_mean(xs)
    ss = math.fsum((x - mean) ** 2 for x in xs)
    return math.sqrt(ss / (n - 1))


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 300
    eps = 1e-15
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("betainc_reg requires a > 0 and b > 0")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"betainc_reg requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b



@functools.lru_cache(maxsize=64)
def student_t_quantile(p: float, df: int) -> float:
    """The p quantile of the Student t distribution with df degrees.

    Bisection down to adjacent floats on the two-sided p-value
    I_{df/(df+t^2)}(df/2, 1/2), computed once per (p, df): a batch
    summary asks for the same one per metric.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile needs p in (0, 1), got {p}")
    if p < 0.5:
        return -student_t_quantile(1.0 - p, df)
    target = 2.0 * (1.0 - p)        # the two-sided p of the quantile

    def two_sided_p(t: float) -> float:
        return betainc_reg(df / 2.0, 0.5, df / (df + t * t))

    lo, hi = 0.0, 1.0
    while two_sided_p(hi) > target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if two_sided_p(mid) > target:
            lo = mid
        else:
            hi = mid
