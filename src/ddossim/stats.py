"""Self-contained statistics kernel for the detection pipeline.

Summary statistics, the one-sample Kolmogorov-Smirnov normality test, the
pooled t-test, Levene's variance test, and the special functions (normal
CDF/quantile, regularized incomplete beta, Kolmogorov survival function)
that back their p-values.  Everything is pure Python on top of the math
module so the whole decision path can be audited and cross-checked
against independent oracles.  The K-S test is not on the decision path;
it describes the baseline sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "SummaryStats",
    "TestResult",
    "sample_mean",
    "sample_stddev",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "betainc_reg",
    "kolmogorov_sf",
    "student_t_two_sided_p",
    "f_sf",
    "ks_normality",
    "upper_conf_bound",
    "pooled_variance",
    "t_test_pooled",
    "levene_test",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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

def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


# Coefficients of Acklam's rational approximation to the normal quantile.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF.

    Rational approximation polished by two Newton steps; agrees with
    normal_cdf to better than 1e-12 away from the extreme tails.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {p}")
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    for _ in range(2):
        err = normal_cdf(x) - p
        d = normal_pdf(x)
        if d <= 0.0:
            break
        x -= err / d
    return x


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


def kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution.

    Uses the Jacobi theta form for small arguments and the alternating
    exponential series otherwise (cephes-style branch point).
    """
    if x <= 0.0:
        return 1.0
    if x < 1.18:
        t = math.exp(-math.pi * math.pi / (8.0 * x * x))
        cdf = (_SQRT_2PI / x) * (t + t ** 9 + t ** 25 + t ** 49)
        return min(1.0, max(0.0, 1.0 - cdf))
    s = 0.0
    sign = 1.0
    for k in range(1, 200):
        term = math.exp(-2.0 * k * k * x * x)
        s += sign * term
        if term < 1e-18:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * s))


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value of the Student t distribution with df degrees."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isinf(t):
        return 0.0
    return betainc_reg(df / 2.0, 0.5, df / (df + t * t))


def f_sf(w: float, d1: int, d2: int) -> float:
    """Survival function of the F(d1, d2) distribution."""
    if w <= 0.0:
        return 1.0
    return betainc_reg(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * w))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def ks_normality(xs: Sequence[float]) -> TestResult:
    """One-sample K-S test of xs against a normal fitted by mean/stddev.

    The p-value comes from the asymptotic Kolmogorov distribution with the
    sqrt(N) scaling.  Because the normal parameters are estimated from the
    same sample, this p-value is conservative (Lilliefors effect).
    """
    n = len(xs)
    if n < 8:
        raise ValueError("K-S normality test needs at least 8 observations")
    fit = SummaryStats.from_sample(xs)
    if fit.stddev == 0.0:
        raise ValueError("degenerate sample")
    d = 0.0
    for i, x in enumerate(sorted(xs)):
        f = normal_cdf((x - fit.mean) / fit.stddev)
        d = max(d, (i + 1) / n - f, f - i / n)
    return TestResult(statistic=d, p_value=kolmogorov_sf(math.sqrt(n) * d))


def upper_conf_bound(stats: SummaryStats, alpha: float) -> float:
    """One-sided upper confidence bound mean + z(alpha) * stddev / sqrt(n)."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"alpha must be in (0, 0.5], got {alpha}")
    if stats.n < 2:
        raise ValueError("upper confidence bound needs n >= 2")
    z = normal_quantile(1.0 - alpha)
    return stats.mean + z * stats.stddev / math.sqrt(stats.n)


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
