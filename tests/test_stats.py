"""Statistics kernel tests against independent oracles.

scipy (never imported by the package itself) provides reference values
for the special functions and the quantiles; simple closed forms and
two-pass computations cover the summary statistics.  The two-sample
tests are checked as the detector decides them, in test_detector.py.
"""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from ddossim.detector import _GATE_Z2_DEN, _GATE_Z2_NUM, MPAR_ALPHA
from ddossim.stats import betainc_reg, sample_mean, sample_stddev, student_t_quantile


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


def test_student_t_quantile_matches_scipy():
    for df in range(1, 61):
        for p in (0.6, 0.9, 0.95, 0.975, 0.995):
            assert student_t_quantile(p, df) == pytest.approx(scipy.stats.t.ppf(p, df),
                                                              rel=1e-10)
            assert student_t_quantile(1.0 - p, df) == -student_t_quantile(p, df)
    # the critical value of sim2's checks: 30 baseline and 10 current
    # buckets, so 38 degrees, at alpha = 0.05
    assert student_t_quantile(0.975, 38) == pytest.approx(scipy.stats.t.ppf(0.975, 38),
                                                          rel=1e-14)
    assert student_t_quantile(0.5, 7) == 0.0
    with pytest.raises(ValueError):
        student_t_quantile(1.0, 3)


# ---------------------------------------------------------------------------
# the normal quantile of the upper confidence bound
# ---------------------------------------------------------------------------

def test_ucb_quantile_matches_scipy():
    # the gate's squared critical value, an exact ratio of ints, is the
    # square of z(MPAR_ALPHA), the standard normal's upper quantile
    z2 = _GATE_Z2_NUM / _GATE_Z2_DEN
    assert z2 == pytest.approx(scipy.special.ndtri(1.0 - MPAR_ALPHA) ** 2, rel=1e-12)


def test_ucb_reference_value():
    # the bound over 100 samples of mean 10 and deviation 2 is 10.392
    z = math.sqrt(_GATE_Z2_NUM / _GATE_Z2_DEN)
    assert 10.0 + z * 2.0 / math.sqrt(100) == pytest.approx(10.3920, abs=1e-4)
