"""Self-contained statistics kernel for the detection pipeline.

Summary statistics, the upper confidence bound, the pooled t-test,
Levene's variance test, and the regularized incomplete beta behind the
tests.  The bound's normal quantile comes from the standard library's
statistics.NormalDist, so numpy stays the only runtime dependency; the
rest is pure Python on the math module, so the whole decision path can
be audited and cross-checked against independent oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

__all__ = [
    "SummaryStats",
    "TestResult",
    "sample_mean",
    "sample_stddev",
    "betainc_reg",
    "student_t_two_sided_p",
    "student_t_quantile",
    "f_sf",
    "upper_conf_bound",
    "pooled_variance",
    "t_test_pooled",
    "levene_test",
]

@dataclass(frozen=True)
class SummaryStats:
    """Sample mean, sample standard deviation (n-1 denominator) and size."""

    mean: float
    stddev: float
    n: int

    @classmethod
    def from_sample(cls, xs: Sequence[float]) -> "SummaryStats":
        mean = sample_mean(xs)
        return cls(mean=mean, stddev=_stddev_about(xs, mean), n=len(xs))


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------

def sample_mean(xs: Sequence[float]) -> float:
    if len(xs) == 0:
        raise ValueError("empty sample")
    return math.fsum(xs) / len(xs)


def sample_stddev(xs: Sequence[float]) -> float:
    return _stddev_about(xs, sample_mean(xs))


def _stddev_about(xs: Sequence[float], mean: float) -> float:
    """Sample standard deviation of xs, whose mean is given."""
    n = len(xs)
    if n < 2:
        raise ValueError("sample standard deviation needs at least 2 observations")
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


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value of the Student t distribution with df degrees."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isinf(t):
        return 0.0
    return betainc_reg(df / 2.0, 0.5, df / (df + t * t))


@functools.lru_cache(maxsize=64)
def student_t_quantile(p: float, df: int) -> float:
    """The p quantile of the Student t distribution with df degrees.

    Bisection on student_t_two_sided_p down to adjacent floats, computed
    once per (p, df): a batch summary asks for the same one per metric.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile needs p in (0, 1), got {p}")
    if p < 0.5:
        return -student_t_quantile(1.0 - p, df)
    target = 2.0 * (1.0 - p)        # the two-sided p of the quantile
    lo, hi = 0.0, 1.0
    while student_t_two_sided_p(hi, df) > target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if student_t_two_sided_p(mid, df) > target:
            lo = mid
        else:
            hi = mid


def f_sf(w: float, d1: int, d2: int) -> float:
    """Survival function of the F(d1, d2) distribution."""
    if w <= 0.0:
        return 1.0
    return betainc_reg(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * w))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def upper_conf_bound(stats: SummaryStats, alpha: float) -> float:
    """One-sided upper confidence bound mean + z(alpha) * stddev / sqrt(n)."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must be in (0, 0.5], got {alpha}")
    if stats.n < 2:
        raise ValueError("upper confidence bound needs n >= 2")
    return stats.mean + _upper_quantile(alpha) * stats.stddev / math.sqrt(stats.n)


@functools.lru_cache(maxsize=16)
def _upper_quantile(alpha: float) -> float:
    """z(alpha), computed once per alpha: every check uses the same one."""
    return NormalDist().inv_cdf(1.0 - alpha)


def pooled_variance(s1: SummaryStats, s2: SummaryStats) -> float:
    if s1.n + s2.n < 3:
        raise ValueError("pooled variance needs n1 + n2 >= 3")
    return (((s1.n - 1) * s1.stddev ** 2 + (s2.n - 1) * s2.stddev ** 2)
            / (s1.n + s2.n - 2))


def t_test_pooled(s1: SummaryStats, s2: SummaryStats) -> TestResult:
    """Two-sided equal-variance t-test of two summarised samples.

    The pooled variance feeds both denominator terms; degrees of freedom
    are n1 + n2 - 2.
    """
    sp2 = pooled_variance(s1, s2)
    if sp2 == 0.0:
        if s1.mean == s2.mean:
            return TestResult(0.0, 1.0)
        return TestResult(math.copysign(math.inf, s1.mean - s2.mean), 0.0)
    t = (s1.mean - s2.mean) / math.sqrt(sp2 / s1.n + sp2 / s2.n)
    return TestResult(t, student_t_two_sided_p(t, s1.n + s2.n - 2))


def levene_test(sample1: Sequence[float], sample2: Sequence[float]) -> TestResult:
    """Levene's test for equality of variances of two groups.

    Classic mean-centered form: W on absolute deviations from the group
    means, referred to F(1, N - 2).
    """
    if len(sample1) < 2 or len(sample2) < 2:
        raise ValueError("Levene's test needs at least 2 observations per group")
    devs = []
    for g in (sample1, sample2):
        center = sample_mean(g)
        devs.append([abs(x - center) for x in g])
    sums = [math.fsum(z) for z in devs]
    dev_means = [s / len(z) for s, z in zip(sums, devs)]
    n_total = len(sample1) + len(sample2)
    grand = math.fsum(sums) / n_total
    numer = math.fsum(len(z) * (m - grand) ** 2 for z, m in zip(devs, dev_means))
    denom = math.fsum(math.fsum((v - m) ** 2 for v in z) for z, m in zip(devs, dev_means))
    if denom == 0.0:
        return TestResult(0.0, 1.0)
    w = (n_total - 2) * numer / denom
    return TestResult(w, f_sf(w, 1, n_total - 2))
