"""Statistics kernel tests against independent oracles.

scipy (never imported by the package itself) provides reference values
for the special functions and the two-sample tests; simple closed forms
and two-pass computations cover the summary statistics.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
import scipy.special
import scipy.stats

from ddossim.stats import (SummaryStats, betainc_reg, f_sf, levene_test, pooled_variance,
                           sample_mean, sample_stddev, student_t_quantile,
                           student_t_two_sided_p, t_test_pooled, upper_conf_bound)


def t_test(a, b):
    """The pooled t-test of two raw samples."""
    return t_test_pooled(SummaryStats.from_sample(a), SummaryStats.from_sample(b))


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------

def test_mean_basic():
    assert sample_mean([2, 4, 6]) == 4.0


def test_mean_constant():
    assert sample_mean([7.5] * 12) == 7.5


def test_mean_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        sample_mean([])


def test_stddev_basic():
    assert sample_stddev([2, 4, 6]) == 2.0


def test_stddev_constant_zero():
    assert sample_stddev([3.3] * 5) == 0.0


def test_stddev_needs_two():
    with pytest.raises(ValueError):
        sample_stddev([1.0])


def test_mean_stddev_match_two_pass_reference():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        xs = (rng.normal(rng.uniform(-50, 50), rng.uniform(0.1, 20), n)).tolist()
        # independent two-pass reference
        ref_mean = sum(xs) / n
        ref_sd = math.sqrt(sum((x - ref_mean) ** 2 for x in xs) / (n - 1))
        assert sample_mean(xs) == pytest.approx(ref_mean, rel=1e-12)
        assert sample_stddev(xs) == pytest.approx(ref_sd, rel=1e-12, abs=1e-15)


def test_mean_stddev_permutation_and_scaling():
    rng = np.random.default_rng(5)
    xs = rng.normal(3, 2, 25).tolist()
    shuffled = list(xs)
    rng.shuffle(shuffled)
    assert sample_mean(shuffled) == pytest.approx(sample_mean(xs), rel=1e-12)
    assert sample_stddev(shuffled) == pytest.approx(sample_stddev(xs), rel=1e-12)
    for a in (2.5, -3.0):
        scaled = [a * x for x in xs]
        assert sample_mean(scaled) == pytest.approx(a * sample_mean(xs), rel=1e-12)
        assert sample_stddev(scaled) == pytest.approx(abs(a) * sample_stddev(xs),
                                                      rel=1e-12)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def test_betainc_endpoints_and_symmetry():
    rng = np.random.default_rng(77)
    for _ in range(200):
        a = float(rng.uniform(0.1, 50))
        b = float(rng.uniform(0.1, 50))
        x = float(rng.uniform(0, 1))
        assert betainc_reg(a, b, 0.0) == 0.0
        assert betainc_reg(a, b, 1.0) == 1.0
        lhs = betainc_reg(a, b, x)
        rhs = 1.0 - betainc_reg(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_betainc_matches_scipy():
    rng = np.random.default_rng(88)
    for _ in range(300):
        a = float(rng.uniform(0.2, 120))
        b = float(rng.uniform(0.2, 120))
        x = float(rng.uniform(0, 1))
        assert betainc_reg(a, b, x) == pytest.approx(
            scipy.special.betainc(a, b, x), abs=1e-12)


def test_betainc_domain_rejected():
    with pytest.raises(ValueError):
        betainc_reg(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        betainc_reg(1.0, 1.0, 1.5)


def test_student_t_p_matches_scipy():
    rng = np.random.default_rng(99)
    for _ in range(200):
        t = float(rng.uniform(-6, 6))
        df = int(rng.integers(1, 200))
        ref = 2.0 * scipy.stats.t.sf(abs(t), df)
        assert student_t_two_sided_p(t, df) == pytest.approx(ref, abs=1e-12)
    assert student_t_two_sided_p(math.inf, 5) == 0.0


def test_student_t_quantile_matches_scipy():
    for df in range(1, 61):
        for p in (0.6, 0.9, 0.95, 0.975, 0.995):
            assert student_t_quantile(p, df) == pytest.approx(scipy.stats.t.ppf(p, df),
                                                              rel=1e-10)
            assert student_t_quantile(1.0 - p, df) == -student_t_quantile(p, df)
    assert student_t_quantile(0.5, 7) == 0.0
    with pytest.raises(ValueError):
        student_t_quantile(1.0, 3)


def test_f_sf_matches_scipy():
    rng = np.random.default_rng(111)
    for _ in range(200):
        w = float(rng.uniform(0, 20))
        d1 = int(rng.integers(1, 10))
        d2 = int(rng.integers(2, 200))
        assert f_sf(w, d1, d2) == pytest.approx(scipy.stats.f.sf(w, d1, d2),
                                                abs=1e-12)
    assert f_sf(0.0, 1, 10) == 1.0


# ---------------------------------------------------------------------------
# upper confidence bound
# ---------------------------------------------------------------------------

def test_ucb_reference_value():
    res = upper_conf_bound(SummaryStats(mean=10.0, stddev=2.0, n=100), 0.025)
    assert res == pytest.approx(10.3920, abs=1e-4)


def test_ucb_degenerate_cases():
    assert upper_conf_bound(SummaryStats(5.0, 0.0, 10), 0.025) == 5.0
    assert upper_conf_bound(SummaryStats(5.0, 2.0, 10), 0.5) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.025, 0.05, 0.3])
def test_ucb_is_the_uncached_formula(alpha):
    # z(alpha) is computed once per alpha; every later call gives the float
    # the formula with a fresh NormalDist().inv_cdf gives
    stats = SummaryStats(mean=3.7, stddev=1.9, n=30)
    expect = stats.mean + NormalDist().inv_cdf(1.0 - alpha) * stats.stddev / math.sqrt(stats.n)
    for _ in range(3):
        assert upper_conf_bound(stats, alpha) == expect


def test_ucb_quantile_matches_scipy():
    # the z(alpha) inside the bound, recovered through the public function
    s = SummaryStats(mean=3.7, stddev=1.9, n=30)
    for alpha in np.concatenate([np.geomspace(1e-6, 0.5, 120), [0.025, 0.05, 0.5]]):
        z = (upper_conf_bound(s, float(alpha)) - s.mean) * math.sqrt(s.n) / s.stddev
        assert z == pytest.approx(scipy.special.ndtri(1.0 - alpha), abs=1e-12)


def test_ucb_validation():
    with pytest.raises(ValueError):
        upper_conf_bound(SummaryStats(5.0, 1.0, 10), 0.6)
    with pytest.raises(ValueError):
        upper_conf_bound(SummaryStats(5.0, 1.0, 10), 0.0)
    with pytest.raises(ValueError):
        upper_conf_bound(SummaryStats(5.0, 1.0, 1), 0.025)


# ---------------------------------------------------------------------------
# t statistics and pooled variance
# ---------------------------------------------------------------------------

def test_pooled_variance_reference():
    # (1*1 + 2*4) / 3 = 3
    assert pooled_variance(SummaryStats(0, 1.0, 2),
                           SummaryStats(0, 2.0, 3)) == pytest.approx(3.0)
    # equal sizes, equal variances v -> v
    v = 2.73
    assert pooled_variance(SummaryStats(0, math.sqrt(v), 6),
                           SummaryStats(9, math.sqrt(v), 6)) == pytest.approx(v)
    # one group zero variance, equal sizes -> v/2
    assert pooled_variance(SummaryStats(0, 0.0, 5),
                           SummaryStats(0, math.sqrt(v), 5)) == pytest.approx(v / 2)


def test_pooled_variance_validation():
    with pytest.raises(ValueError):
        pooled_variance(SummaryStats(0, 0.0, 1), SummaryStats(0, 0.0, 1))


def test_t_test_equal_samples():
    xs = [1.0, 2.0, 3.0, 4.0]
    res = t_test(xs, list(xs))
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(1.0)


def test_t_test_strong_separation():
    rng = np.random.default_rng(13)
    a = rng.normal(0.1, 0.05, 50).tolist()
    b = rng.normal(0.3, 0.05, 50).tolist()
    res = t_test(a, b)
    assert res.p_value < 1e-6


def test_t_test_matches_scipy_on_random_fixtures():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n1 = int(rng.integers(2, 40))
        n2 = int(rng.integers(2, 40))
        a = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), n1).tolist()
        b = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), n2).tolist()
        res = t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=True)
        assert res.statistic == pytest.approx(ref.statistic, rel=1e-9, abs=1e-9)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-9)


def test_t_test_swap_negates_statistic_keeps_p():
    rng = np.random.default_rng(15)
    a = rng.normal(1, 1, 20).tolist()
    b = rng.normal(2, 1, 25).tolist()
    r1 = t_test(a, b)
    r2 = t_test(b, a)
    assert r1.statistic == pytest.approx(-r2.statistic, rel=1e-12)
    assert r1.p_value == pytest.approx(r2.p_value, rel=1e-12)


def test_t_test_degenerate_branches():
    res = t_test([2.0, 2.0], [2.0, 2.0])
    assert (res.statistic, res.p_value) == (0.0, 1.0)
    res = t_test([3.0, 3.0], [2.0, 2.0])
    assert math.isinf(res.statistic) and res.statistic > 0
    assert res.p_value == 0.0


# ---------------------------------------------------------------------------
# Levene
# ---------------------------------------------------------------------------

def test_levene_identical_groups():
    xs = [1.0, 2.0, 3.0, 4.0]
    res = levene_test(xs, list(xs))
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value >= 0.05


def test_levene_location_shift_invariant():
    rng = np.random.default_rng(16)
    a = rng.normal(0, 1, 20).tolist()
    b = [x + 3.0 for x in a]
    res = levene_test(a, b)
    assert res.statistic == pytest.approx(0.0, abs=1e-9)
    shifted = levene_test([x + 100.0 for x in a], b)
    assert shifted.statistic == pytest.approx(res.statistic, abs=1e-9)


def test_levene_power_on_variance_gap():
    rng = np.random.default_rng(17)
    rejected = 0
    for _ in range(1000):
        a = rng.normal(1.0, 0.05, 50).tolist()
        b = rng.normal(1.0, 0.5, 50).tolist()
        if levene_test(a, b).p_value < 0.05:
            rejected += 1
    assert rejected / 1000 > 0.99


def test_levene_matches_scipy_on_random_fixtures():
    rng = np.random.default_rng(18)
    for _ in range(100):
        n1 = int(rng.integers(2, 40))
        n2 = int(rng.integers(2, 40))
        a = rng.normal(0, rng.uniform(0.5, 3), n1).tolist()
        b = rng.normal(0, rng.uniform(0.5, 3), n2).tolist()
        res = levene_test(a, b)
        ref = scipy.stats.levene(a, b, center="mean")
        assert res.statistic == pytest.approx(ref.statistic, rel=1e-9, abs=1e-9)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-9)


def test_levene_degenerate_and_validation():
    res = levene_test([2.0, 2.0], [5.0, 5.0])
    assert (res.statistic, res.p_value) == (0.0, 1.0)
    with pytest.raises(ValueError):
        levene_test([1.0], [1.0, 2.0])


def test_all_p_values_in_unit_interval():
    rng = np.random.default_rng(19)
    for _ in range(100):
        a = rng.normal(0, 1, 15).tolist()
        b = rng.normal(0.5, 2, 15).tolist()
        for res in (t_test(a, b), levene_test(a, b)):
            assert 0.0 <= res.p_value <= 1.0
