"""Detector tests: sliding windows, the three detection rules, the frozen
baseline during episodes, and the end-to-end fire logic."""

import math
import warnings
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddossim.buffer import BufferState, run_ahead
from ddossim.detector import (ALL_METHODS, Detector, DetectorConfig, Method, detect_ratio,
                              detect_statistical, window_sums)
from reference import (ReferenceBuffer, ReferenceDetector, ReferenceRestorationMonitor,
                       ReferenceWindow, fraction_decision, monitor_state, step)


def make_cfg(**overrides) -> DetectorConfig:
    base = dict(w_s=10.0, w_l=45.0, r=0.6, c=45.0, alpha=0.05, baseline_len=30)
    base.update(overrides)
    return DetectorConfig(**base)


# ---------------------------------------------------------------------------
# sliding window
# ---------------------------------------------------------------------------

def test_window_push_and_average():
    win = ReferenceWindow(3)
    win.push(5)
    assert win.average() == 5.0
    win = ReferenceWindow(3)
    for v in (1, 2, 3, 4):
        win.push(v)
    assert list(win.contents) == [2, 3, 4]
    assert win.average() == 3.0


def test_window_running_sum_exact_over_many_pushes():
    rng = np.random.default_rng(31)
    win = ReferenceWindow(257)
    values = rng.integers(0, 10_000, size=1_000_000)
    for v in values:
        win.push(int(v))
    assert win.running_sum == sum(win.contents)
    assert win.average() == sum(win.contents) / len(win.contents)


def test_window_average_matches_mean_at_every_step():
    rng = np.random.default_rng(32)
    win = ReferenceWindow(16)
    for v in rng.integers(0, 100, size=2_000):
        win.push(int(v))
        assert win.running_sum == sum(win.contents)
        assert win.average() == sum(win.contents) / len(win.contents)


def test_window_errors():
    with pytest.raises(ValueError):
        ReferenceWindow(0)
    with pytest.raises(ValueError, match="warmed up"):
        ReferenceWindow(3).average()


@example(width=5, tail=[1, 2], values=[3, 4, 5, 6])      # shorter than width - 1
@example(width=5, tail=[1, 2, 3, 4], values=[5, 6])      # width - 1: full at once
@example(width=5, tail=list(range(9)), values=[9, 10])   # longer than width
@example(width=5, tail=[1, 2, 3], values=[])
@settings(max_examples=300, deadline=None)
@given(width=st.integers(min_value=1, max_value=12),
       tail=st.lists(st.integers(min_value=0, max_value=50), max_size=36),
       values=st.lists(st.integers(min_value=0, max_value=50), max_size=20))
def test_window_sums_match_pushes(width, tail, values):
    # the tail pushed into a window, then each value: NaN until the window
    # is full, then its running sum
    win = ReferenceWindow(width)
    for v in tail:
        win.push(v)
    full, running = [], []
    for v in values:
        win.push(v)
        full.append(win.is_full)
        running.append(win.running_sum)
    got = window_sums(np.array(tail, dtype=np.int64), np.array(values, dtype=np.int64), width)
    assert got.dtype == np.float64 and len(got) == len(values)
    assert (~np.isnan(got)).tolist() == full
    assert [s for s, f in zip(got.tolist(), full) if f] == [s for s, f in zip(running, full) if f]


# ---------------------------------------------------------------------------
# ratio and buffer rules
# ---------------------------------------------------------------------------

def test_ratio_boundary_is_strict():
    assert detect_ratio(1601, 1000, 0.6)
    assert not detect_ratio(1600, 1000, 0.6)
    assert not detect_ratio(100, 0, 0.6)     # warm-up guard
    # the array form run() uses: the same cases elementwise, plus a NaN
    # long average, a window not yet full
    short = np.array([1601.0, 1600.0, 100.0, 100.0])
    long = np.array([1000.0, 1000.0, 0.0, np.nan])
    hits = detect_ratio(short, long, 0.6)
    assert hits.tolist() == [bool(detect_ratio(float(a), float(b), 0.6))
                             for a, b in zip(short, long)] == [True, False, False, False]


def test_ratio_monotonicity():
    rng = np.random.default_rng(33)
    for _ in range(500):
        short = float(rng.uniform(0, 200))
        long = float(rng.uniform(1, 100))
        r = float(rng.uniform(0.1, 2.0))
        if detect_ratio(short, long, r):
            assert detect_ratio(short + rng.uniform(0, 50), long, r)
        if not detect_ratio(short, long, r):
            assert not detect_ratio(short, long, r + rng.uniform(0, 1))


def test_detect_buffer_thresholds():
    # the buffer-full method fires once the backlog left after a slot's
    # service reaches l1, and keeps firing while it stays there
    cfg = make_cfg(methods=(Method.BUFFER_FULL,))
    ref = ReferenceDetector(cfg, slot_dt=0.1)
    buf = ReferenceBuffer(l1=40, l2=30_000, service_per_slot=0)
    feed = ((39, False), (1, False), (0, True), (30_000, True), (0, True))
    for arrivals, fires in feed:
        step(buf, arrivals)
        assert (ref.observe(arrivals, buf) is Method.BUFFER_FULL) == fires
    assert buf.post_service_occupancy == 30_040
    # no buffer state given: the method cannot fire
    assert ref.observe(0) is None
    # run() stops at the first of those fires; frozen, a filter stretch
    # fires on each slot after it
    det, buf = Detector(cfg, slot_dt=0.1), BufferState(l1=40, l2=30_000, service_per_slot=0)
    assert det.run(np.array([a for a, _ in feed]), buf) == (3, Method.BUFFER_FULL, False)
    det.freeze()
    assert filter_slots(det, buf, [a for a, _ in feed[3:]]) == [Method.BUFFER_FULL] * 2


# ---------------------------------------------------------------------------
# statistical rule
# ---------------------------------------------------------------------------

def decide(baseline, current, alpha):
    """detect_statistical on two samples: one bucket list, baseline first."""
    buckets, n_b = [*baseline, *current], len(baseline)
    p1, p2 = [0, *accumulate(buckets)], [0, *accumulate(map(mul, buckets, buckets))]
    return detect_statistical(buckets, p1, p2, 0, n_b, n_b, len(buckets), alpha)


def test_statistical_same_data_not_detected():
    rng = np.random.default_rng(34)
    baseline = rng.poisson(5, 30).tolist()
    assert not decide(baseline, list(baseline[-10:]), 0.05)


def test_statistical_attack_regime_always_detected():
    # baseline mean 5/s vs attack mean 15/s, Poisson noise
    rng = np.random.default_rng(35)
    hits = 0
    for _ in range(1000):
        baseline = rng.poisson(5, 30).tolist()
        current = rng.poisson(15, 10).tolist()
        hits += decide(baseline, current, 0.05)
    assert hits == 1000


def test_statistical_null_false_alarm_rate():
    rng = np.random.default_rng(36)
    hits = 0
    for _ in range(1000):
        baseline = rng.poisson(5, 30).tolist()
        current = rng.poisson(5, 10).tolist()
        hits += decide(baseline, current, 0.05)
    assert hits / 1000 <= 0.05 + 0.02


def test_statistical_scale_consistency():
    rng = np.random.default_rng(37)
    for _ in range(50):
        baseline = rng.poisson(5, 30).tolist()
        current = rng.poisson(9, 10).tolist()
        hit1 = decide(baseline, current, 0.05)
        scale = Fraction(73, 10)
        hit2 = decide([scale * x for x in baseline], [scale * x for x in current], 0.05)
        assert hit1 == hit2


def test_statistical_degenerate_baseline_falls_back_to_threshold():
    baseline = [5] * 30
    assert decide(baseline, [6, 6], 0.05) is True
    assert decide(baseline, [5, 5], 0.05) is False


def test_statistical_input_validation():
    with pytest.raises(ValueError):
        decide([1] * 7, [1, 2], 0.05)
    with pytest.raises(ValueError):
        decide([1] * 10, [1], 0.05)


def scipy_decision(baseline, current, alpha):
    """The statistical rule from scipy: the gate at norm.ppf(0.975), then
    ttest_ind(equal_var=True) or levene(center="mean") at alpha.  None for
    a tie that rounding may break either way: a current mean within 1e-12
    of the gate bound, or a p-value within 1e-9 of alpha."""
    base = np.asarray(baseline, dtype=float)
    cur_mean = np.mean(current)
    mean, sd = base.mean(), base.std(ddof=1)
    if sd == 0.0:
        return bool(cur_mean > mean)
    bound = mean + scipy.stats.norm.ppf(0.975) * sd / math.sqrt(len(base))
    if abs(cur_mean - bound) <= 1e-12:
        return None
    if cur_mean < bound:
        return False
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        # scipy warns of cancellation on a constant current sample, whose
        # variance it still finds exactly 0
        warnings.filterwarnings("ignore", "Precision loss", RuntimeWarning)
        t_p = scipy.stats.ttest_ind(base, current, equal_var=True).pvalue
        lev_p = scipy.stats.levene(base, current, center="mean").pvalue
    if math.isnan(lev_p):             # 0/0: within each group every deviation is equal
        lev_p = 1.0
    if min(abs(t_p - alpha), abs(lev_p - alpha)) <= 1e-9:
        return None
    return bool(t_p < alpha or lev_p < alpha)


DECISIONS = dict(
    baseline=st.lists(st.integers(0, 60), min_size=8, max_size=40),
    # a raised floor lifts the current mean past the gate more often
    current=st.integers(0, 60).flatmap(
        lambda floor: st.lists(st.integers(floor, 60), min_size=2, max_size=15)),
    alpha=st.sampled_from([0.01, 0.05, 0.2]))


@settings(max_examples=400, deadline=None)
@given(**DECISIONS)
def test_statistical_decision_matches_scipy(baseline, current, alpha):
    expected = scipy_decision(baseline, current, alpha)
    assume(expected is not None)
    assert decide(baseline, current, alpha) == expected


BIG = 10 ** 12                  # counts whose squares pass 2**63


DECISION_EXAMPLES = [
    ([0, 1, 2, 3, 4, 5, 6, 7], [20, 20], 0.05),     # constant current, D_c = 0
    ([0, 2] * 4, [2, 2], 0.05),                     # Levene's 0/0
    ([5] * 8, [5, 6], 0.05),                        # degenerate baseline
    # near 10**12: the t-test fires; Levene fires; neither does
    ([BIG + i % 5 for i in range(30)], [BIG + 3, BIG + 7, BIG + 4], 0.05),
    ([BIG + i % 3 for i in range(30)], [BIG + x for x in [0, 6] + [1] * 7 + [6]], 0.05),
    ([BIG + i % 3 for i in range(30)], [BIG + x for x in [1] * 8 + [6, 0]], 0.05),
    # Levene's test reached with a count exactly at each group's mean
    # (n*x == S), which adds nothing to T: it fires; it does not
    ([5, 10, 5, 2, 2, 8, 2, 4, 7], [13, 14, 0, 15, 3, 9], 0.05),
    ([1, 11, 13, 5, 16, 16, 5, 5, 8, 0], [13, 28, 3, 8], 0.05),
    # baseline counts at S // n = 5, below the mean 5.25, which T leaves out
    ([7, 5, 1, 7, 5, 0, 10, 7], [19, 7], 0.05)]


def with_decision_examples(test):
    for args in DECISION_EXAMPLES:
        test = example(*args)(test)
    return test


@with_decision_examples
@settings(max_examples=300, deadline=None)
@given(**DECISIONS)
def test_statistical_decision_matches_fraction_oracle(baseline, current, alpha):
    assert decide(baseline, current, alpha) == fraction_decision(
        baseline, current, alpha)


@pytest.mark.slow
@with_decision_examples
@settings(max_examples=5000, deadline=None)
@given(**DECISIONS)
def test_statistical_decision_matches_fraction_oracle_many(baseline, current, alpha):
    assert decide(baseline, current, alpha) == fraction_decision(
        baseline, current, alpha)


@st.composite
def prefix_cases(draw):
    """One due check on a bucket series, as Detector.run makes it: a
    baseline of 8 or more buckets, a look-back gap, a current window of 2
    or more ending at top, and buckets before and after.  The baseline
    slides (start = top - most, with most = base_len + gap + ws), or it is
    the oldest base_len held at a fire (start = 0)."""
    pinned = draw(st.booleans())
    lead = [] if pinned else draw(st.lists(st.integers(0, 60), max_size=10))
    baseline = draw(DECISIONS["baseline"])
    gap = draw(st.lists(st.integers(0, 60), max_size=10))
    current = draw(DECISIONS["current"])
    tail = draw(st.lists(st.integers(0, 60), max_size=5))
    return prefix_case(pinned, lead, baseline, gap, current, tail, draw(DECISIONS["alpha"]))


def prefix_case(pinned, lead, baseline, gap, current, tail, alpha):
    """(series, base_len, ws, most, top, pinned, alpha)."""
    most = len(baseline) + len(gap) + len(current)
    return (lead + baseline + gap + current + tail, len(baseline), len(current), most,
            len(lead) + most, pinned, alpha)


def with_prefix_examples(test):
    # each decision example, near 10**12 too, with buckets before, between
    # and after its windows, on a sliding and on a pinned baseline
    for baseline, current, alpha in DECISION_EXAMPLES:
        x = baseline[0]
        test = example(prefix_case(False, [x + 1] * 3, baseline, [x + 2] * 2, current, [x] * 4,
                                   alpha))(test)
        test = example(prefix_case(True, [], baseline, [x + 5] * 6, current, [x + 1], alpha))(test)
    return test


def assert_prefix_decision(series, base_len, ws, most, top, pinned, alpha):
    """Detector.run's check of the windows ending at top, on the series'
    prefix sums, against decide() on the two slices and the Fraction
    oracle."""
    p1 = [0, *accumulate(series)]
    p2 = [0, *accumulate(map(mul, series, series))]
    start = 0 if pinned else top - most
    stop, cur = start + base_len, top - ws
    got = detect_statistical(series, p1, p2, start, stop, cur, top, alpha)
    baseline, current = series[start:stop], series[cur:top]
    assert got == decide(baseline, current, alpha) == fraction_decision(
        baseline, current, alpha)


@with_prefix_examples
@settings(max_examples=300, deadline=None)
@given(prefix_cases())
def test_prefix_sum_decision_matches_slices(case):
    assert_prefix_decision(*case)


@pytest.mark.slow
@with_prefix_examples
@settings(max_examples=5000, deadline=None)
@given(prefix_cases())
def test_prefix_sum_decision_matches_slices_many(case):
    assert_prefix_decision(*case)


# ---------------------------------------------------------------------------
# detector state machine
# ---------------------------------------------------------------------------

def typed(values):
    return [(type(v), v) for v in values]


def detector_state(det):
    """A Detector or a ReferenceDetector in one form, with the type of each
    value: the short window's slots; the long window's; the lambda-bar
    averages the reference's ring holds, which for a Detector are the means
    of the wl-slices of its long tail; the partial bucket's (sum, length);
    the buckets as the reference's deque holds them, with its length bound,
    which for a Detector are the newest of its buckets and its episode's;
    lambda-bar; the check counts; and, in an episode, the pinned baseline,
    the fresh buckets since the freeze or the last rearm, and the buckets
    since the freeze."""
    if isinstance(det, ReferenceDetector):
        short, long = list(det.short.contents), list(det.long.contents)
        ring = list(det._lambda_bar_ring)
        partial = [det._bucket_acc, det._bucket_fill]
        most, buckets = det.buckets.maxlen, list(det.buckets)
        episode = (None if not det._frozen else
                   (det._frozen_baseline, det._fresh_buckets, det._frozen_appended))
    else:
        wl, tail = det._wl_slots, det.long.tolist()
        short, long = det.short.tolist(), tail[-wl:]
        ring = [sum(tail[i:i + wl]) / wl for i in range(len(tail) - wl + 1)]
        partial = [sum(det._partial.tolist()), len(det._partial)]
        most, held = det._buckets_max, det.buckets
        buckets = (held + (det._episode or []))[-most:]
        episode = None
        if det._episode is not None:
            pinned = held[:det.cfg.baseline_len] if len(held) == most else None
            episode = (pinned, len(det._episode) - det._rearmed_at, len(det._episode))
    if episode is not None:
        pinned, fresh, appended = episode
        episode = (None if pinned is None else typed(pinned), typed([fresh, appended]))
    return {
        "short": typed(short),
        "long": typed(long),
        "ring": typed(ring),
        "buckets": (typed(buckets), most),
        "partial": typed(partial),
        "lambda_bar": typed([det.baseline_lambda_bar()]),
        "stat": typed([det.stat_checks, det.stat_positives]),
        "episode": episode,
    }


def buffer_fields(buf):
    return {name: getattr(buf, name) for name in BufferState.__slots__}


def observed(det, buf, arrivals):
    """The reference's observe() loop, each slot stepped through buf first:
    (slots consumed, method) at the first fire, as run() returns them."""
    for n, v in enumerate(arrivals, 1):
        step(buf, v)
        fired = det.observe(v, buf)
        if fired is not None:
            return n, fired
    return len(arrivals), None


def scanned(det, buf, arrivals):
    """run() the unfrozen detector over all of arrivals, fires and all,
    starting a new stretch after each fire: the method of each fire."""
    rest = np.asarray(arrivals, dtype=np.int64)
    fires = []
    while len(rest):
        n, fired, _ = det.run(rest, buf)
        rest = rest[n:]
        if fired is not None:
            fires.append(fired)
    return fires


def filter_slots(det, buf, arrivals):
    """The frozen Detector over filter slots, a one-slot stretch each, buf
    run through it: what each slot fired."""
    return [det.run(np.array([v], dtype=np.int64), buf)[1] for v in arrivals]


def reference_stretch(ref, buf, mon, arrivals, watch):
    """run() one slot at a time: step, observe() and the restoration
    monitor's update(), up to restoration or, when watched, a fire; (slots
    run, what fired in the last, whether restored)."""
    for n, v in enumerate(arrivals, 1):
        admitted = step(buf, v)
        fired = ref.observe(v, buf)
        if not watch:
            fired = None                # a measurement window ignores its fires
        if mon is not None and mon.update(buf.post_service_occupancy, admitted):
            return n, fired, True
        if fired is not None:
            return n, fired, False
    return len(arrivals), None, False


class Twins:
    """A Detector and a ReferenceDetector fed the same slots, each with its
    own buffer at the same rate, from a fresh one: the detector a stretch at
    a time through run(), the reference one observe() at a time.  In an
    episode they follow run_once's lifecycle: the first rearm() builds the
    detector's restoration monitor and the reference's, each from its own
    lambda-bar, every later frozen stretch is watched by both, and a
    stretch that restores unfreezes both, which drops the monitors."""

    def __init__(self, cfg, slot_dt, buf):
        self.det, self.ref = Detector(cfg, slot_dt), ReferenceDetector(cfg, slot_dt)
        self.slot_dt = slot_dt
        self.buf = buf
        self.ref_buf = ReferenceBuffer(buf.l1, buf.l2, buf.service_per_slot)
        self.ref_mon = None
        assert buffer_fields(buf) == buffer_fields(self.ref_buf)

    def monitor(self, arrivals):
        """Unfrozen slots: run() to the end of them, and observe() each."""
        scanned(self.det, self.buf, arrivals)
        for v in arrivals:
            step(self.ref_buf, v)
            self.ref.observe(v, self.ref_buf)

    def stretch(self, arrivals, watch):
        """A frozen stretch through run(), and the reference over the same
        slots with its monitor: (slots run, what fired, whether restored),
        on which both agree.  Restoration unfreezes both."""
        got = self.det.run(np.array(arrivals, dtype=np.int64), self.buf, watch=watch)
        assert got == reference_stretch(self.ref, self.ref_buf, self.ref_mon, arrivals, watch)
        if got[2]:
            self.unfreeze()
        return got

    def measure(self, arrivals):
        """A measurement window's stretch, whose fires are ignored."""
        return self.stretch(arrivals, False)

    def filter_slot(self, v):
        """One frozen filter slot: what fired."""
        return self.stretch([v], True)[1]

    def freeze(self):
        self.det.freeze()
        self.ref.freeze()

    def unfreeze(self):
        self.det.unfreeze()
        self.ref.unfreeze()
        self.ref_mon = None

    def rearm(self):
        """A classification: whether the detector's buffer-full must fire
        on the next slot."""
        if self.ref_mon is None:
            self.ref_mon = ReferenceRestorationMonitor(
                self.ref_buf.l1, self.ref.baseline_lambda_bar() / self.slot_dt,
                self.ref.cfg.r, self.ref.cfg.w_s, self.ref.short.capacity)
        self.ref.rearm()
        return self.det.rearm(self.buf)

    def assert_same(self):
        assert detector_state(self.det) == detector_state(self.ref)
        assert monitor_state(self.det.restoration) == monitor_state(self.ref_mon)
        assert buffer_fields(self.buf) == buffer_fields(self.ref_buf)


def first_fire(cfg, aggregates, buf=None):
    """(slots elapsed, method) at the first fire of a fresh detector, or
    (None, None): run() over the aggregates, which the reference's
    observe() loop must agree with.  buf, a fresh buffer when given, runs
    through the same slots; without it the buffer-full method cannot fire."""
    if buf is None:
        # served faster than any slot fills it, a buffer is never backlogged
        buf = BufferState(l1=40, l2=160, service_per_slot=float(max(aggregates)) + 1.0)
    t = Twins(cfg, 0.1, buf)
    ran, fired, restored = t.det.run(np.array(aggregates, dtype=np.int64), t.buf)
    assert (ran, fired) == observed(t.ref, t.ref_buf, aggregates) and not restored
    t.assert_same()
    return (ran, fired) if fired is not None else (None, None)


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(w_s=50.0)      # w_s >= w_l
    with pytest.raises(ValueError):
        make_cfg(r=0.0)
    with pytest.raises(ValueError):
        make_cfg(c=5.0)         # c < w_s
    with pytest.raises(ValueError):
        make_cfg(alpha=0.7)
    # in (0, 0.5), but the t quantile at 1 - alpha/2 = 1.0 does not exist;
    # at 2**-52 it is about 218 on 8 degrees
    with pytest.raises(ValueError, match="alpha=1e-17 is too small"):
        make_cfg(alpha=1e-17)
    make_cfg(alpha=2.0 ** -52)
    with pytest.raises(ValueError):
        make_cfg(baseline_len=4)
    with pytest.raises(ValueError):
        make_cfg(methods=())


@pytest.mark.parametrize("methods", [("statistical",), ("statistical", "ratio"),
                                     (Method.RATIO, "buffer_full"), Method.RATIO, "ratio",
                                     None])
def test_config_rejects_methods_that_are_not_methods(methods):
    # a name in place of a Method matches no rule, so its run would detect
    # nothing, and a bare Method is no collection of them
    with pytest.raises(ValueError, match="methods must be a tuple or list of Method members"):
        make_cfg(methods=methods)


@pytest.mark.parametrize("field", ["w_s", "w_l", "r", "c", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32(math.nan),
                                   np.float32(math.inf),
                                   pytest.param(10 ** 400, id="10**400"),
                                   pytest.param(-10 ** 400, id="-10**400")])
def test_config_rejects_non_finite_numbers(field, value):
    # an int past the float range has no finite float value: it would pass
    # the range checks and overflow in the first one that mixes it with a
    # float
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_cfg(**{field: value})


@pytest.mark.parametrize("field", ["w_s", "w_l", "r", "c", "alpha"])
@pytest.mark.parametrize("value", ["0.6", None, True])
def test_config_rejects_values_that_are_not_real_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a real number, got {value!r}"):
        make_cfg(**{field: value})
    make_cfg(r=1, alpha=np.float64(0.05))


@pytest.mark.parametrize("value", [30.0, 30.5, np.float64(30.0), True])
def test_config_rejects_a_non_integer_baseline_len(value):
    with pytest.raises(ValueError, match="baseline_len must be an integer"):
        make_cfg(baseline_len=value)
    make_cfg(baseline_len=np.int64(30))


def test_window_sizes_are_exact_slot_counts():
    det = Detector(make_cfg(), slot_dt=0.1)
    # 10 s and 45 s windows, a long tail of w_l + c less one slot; 45
    # look-back buckets plus a 30-bucket baseline
    assert ((det._ws_slots, det._wl_slots, det._long_slots, det._buckets_max)
            == (100, 450, 899, 75))
    ratio_only = Detector(make_cfg(w_s=10.5, c=45.5, methods=(Method.RATIO,)), slot_dt=0.1)
    assert ratio_only._ws_slots == 105
    # with the statistical method on, w_s and c size one-second buckets
    with pytest.raises(ValueError, match="whole seconds"):
        Detector(make_cfg(w_s=10.5, c=45.5), slot_dt=0.1)


def test_run_detection_silent_attack_never_fires():
    # attackers that send nothing: constant normal traffic throughout
    cfg = make_cfg(methods=(Method.RATIO,))
    assert first_fire(cfg, [100] * 2000) == (None, None)


def test_run_detection_step_change_fires_ratio():
    cfg = make_cfg(methods=(Method.RATIO,))
    elapsed, method = first_fire(cfg, [100] * 1000 + [300] * 500)
    assert method is Method.RATIO
    assert elapsed > 1000
    # a step before the 450-slot long window is full is compared with no
    # partial average: by the time it fills, the step is the reference
    assert first_fire(cfg, [100] * 200 + [300] * 1000) == (None, None)


def test_run_detection_with_buffer_feed():
    cfg = make_cfg(methods=(Method.BUFFER_FULL,))
    buf = BufferState(l1=40, l2=160, service_per_slot=10.0)
    elapsed, method = first_fire(cfg, [5] * 500 + [30] * 200, buf)
    assert method is Method.BUFFER_FULL
    assert elapsed > 500


def test_statistical_priority_over_ratio():
    # both fire on a large step change within the same slot eventually;
    # the statistical method takes priority when they coincide
    cfg = make_cfg(methods=ALL_METHODS)
    rng = np.random.default_rng(38)
    pre = rng.poisson(5, 1000).tolist()
    post = rng.poisson(50, 300).tolist()
    _, method = first_fire(cfg, pre + post)
    assert method in (Method.STATISTICAL, Method.RATIO)


def warm_ratio_detector():
    """A ratio-only detector and its buffer after 1000 slots of 10."""
    det, buf = Detector(make_cfg(methods=(Method.RATIO,)), slot_dt=0.1), BufferState(40, 160, 8.0)
    assert scanned(det, buf, [10] * 1_000) == []
    return det, buf


def test_frozen_lambda_bar_is_pinned():
    det, buf = warm_ratio_detector()
    before = det.baseline_lambda_bar()
    det.freeze()
    filter_slots(det, buf, [100] * 500)      # attack-level traffic while frozen
    assert det.baseline_lambda_bar() == before
    det.unfreeze()
    assert det._episode is None


def test_lambda_bar_pinned_through_an_episode():
    # freeze() pins lambda-bar: filter stretches and measurement windows,
    # each watched by the restoration monitor the first rearm() built on
    # it, leave it as it stood at the fire
    det, buf = warm_ratio_detector()
    wl = det._wl_slots
    before = det.baseline_lambda_bar()
    det.freeze()
    for arrivals, watch in (([30] * 100, False), ([25] * 40, True), ([12] * 100, False),
                            ([9] * 7, True), ([100] * 3, True)):
        det.rearm(buf)
        assert det.restoration.threshold_sum == (1.0 + 0.6) * (before / 0.1) * 10.0
        det.run(np.array(arrivals, dtype=np.int64), buf, watch=watch)
        assert det.baseline_lambda_bar() == before
    # unpinned again: after a monitor stretch, the mean of the oldest wl
    # slots of the long tail, which now holds slots of the new level
    det.unfreeze()
    assert det.run(np.full(700, 4, dtype=np.int64), buf) == (700, None, False)
    assert det.long.tolist() == [10] * (det._long_slots - 700) + [4] * 700
    assert det.baseline_lambda_bar() == sum(det.long[:wl].tolist()) / wl != before


@pytest.mark.parametrize("before, episode, after", [
    (0, 0, 0), (3, 0, 0),                  # fewer than w_l unfrozen slots
    (5, 0, 0), (6, 0, 0),                  # from w_l to w_l + c - 1
    (7, 0, 0), (8, 0, 0), (20, 0, 0),      # w_l + c - 1 and more
    (3, 4, 1), (6, 4, 3), (20, 4, 2),      # across an episode
])
def test_lambda_bar_at_freeze_matches_reference(before, episode, after):
    # 5-slot long window, 3-slot look-back: the long tail holds 7 slots.
    # An episode's slots never enter it
    rng = np.random.default_rng(before * 100 + episode * 10 + after)
    t = Twins(make_cfg(w_s=2.0, w_l=5.0, c=3.0, baseline_len=8), 1.0,
              BufferState(l1=40, l2=160, service_per_slot=8.0))
    t.monitor(rng.integers(0, 20, before).tolist())
    if episode:
        t.freeze()
        t.measure(rng.integers(20, 40, episode).tolist())
        t.unfreeze()
        t.monitor(rng.integers(0, 20, after).tolist())
    t.freeze()
    t.assert_same()
    lambda_bar = t.det.baseline_lambda_bar()
    assert type(lambda_bar) is float and lambda_bar == t.ref.baseline_lambda_bar()
    assert len(t.det.long) == min(before + after, 7)


def test_frozen_ratio_fires_against_pinned_baseline():
    det, buf = warm_ratio_detector()
    det.freeze()
    det.rearm(buf)
    fires = filter_slots(det, buf, [100] * 200)
    assert next(f for f in fires if f) is Method.RATIO


def test_rearm_requires_fresh_short_window():
    det, buf = warm_ratio_detector()
    det.freeze()
    filter_slots(det, buf, [100] * 200)
    det.rearm(buf)
    # immediately after rearm the short window is empty: no fire on a
    # normal-level slot even though the previous contents were attack-level
    assert filter_slots(det, buf, [10]) == [None]


@pytest.mark.parametrize("methods, w_s, slot_dt, service, above, expected", [
    (ALL_METHODS, 10.0, 0.1, 3.0, 3, True),     # the occupancy service above l1
    (ALL_METHODS, 10.0, 0.1, 3.0, 2, False),
    # a service just above 3, 3.0000000000000004: the occupancy 3 above l1
    # is below it (30 * 0.1 itself rounds to exactly 3.0)
    (ALL_METHODS, 10.0, 0.1, math.nextafter(3.0, math.inf), 3, False),
    # a one-slot short window, which one slot refills, with the ratio rule on
    ((Method.RATIO, Method.BUFFER_FULL), 1.0, 1.0, 3.0, 10, False),
    ((Method.BUFFER_FULL,), 1.0, 1.0, 3.0, 10, True),
    ((Method.STATISTICAL, Method.RATIO), 10.0, 0.1, 3.0, 10, False),  # buffer-full off
])
def test_must_fire_next(methods, w_s, slot_dt, service, above, expected):
    # rearm() returns whether buffer-full must fire on the next slot, and
    # nothing before it, whether or not it is the episode's first
    det = Detector(make_cfg(w_s=w_s, methods=methods), slot_dt)
    buf = BufferState(l1=40, l2=160, service_per_slot=service)
    buf.occupancy = buf.l1 + above
    det.freeze()
    assert det.rearm(buf) is expected
    assert det.rearm(buf) is expected


def test_restoration_is_watched_from_the_first_rearm_to_unfreeze():
    # the detector's restoration monitor follows run_once's episodes: none
    # through the first measurement window, one built by the first rearm()
    # on lambda-bar at the fire and kept, low-backlog run and all, through
    # each later rearm(), and none once unfreeze() has dropped it.  Quiet
    # slots restore any watched run of w_s of them
    det = Detector(make_cfg(w_s=2.0, w_l=4.0, c=2.0, methods=(Method.RATIO,)), 1.0)
    buf = BufferState(l1=10, l2=30, service_per_slot=8.0)
    quiet = np.zeros(2, dtype=np.int64)
    for _ in range(2):
        assert det.run(np.full(10, 2, dtype=np.int64), buf) == (10, None, False)
        det.freeze()
        assert det.restoration is None
        assert det.run(quiet, buf, watch=False) == (2, None, False)
        det.rearm(buf)
        watch = det.restoration
        assert watch.threshold_sum == (1.0 + 0.6) * 2.0 * 2.0
        assert det.run(quiet[:1], buf) == (1, None, False)
        det.rearm(buf)
        assert det.restoration is watch
        assert det.run(quiet[:1], buf) == (1, None, True)
        det.unfreeze()
        assert det.restoration is None


def test_restoration_ends_the_stretch_before_a_later_high_backlog():
    # a watched filter stretch in which restoration holds at slot 1 and the
    # backlog reaches l1 at slot 3: the stretch ends restored at slot 1, so
    # buffer-full, which reads the same high mask, never fires.  Buffer-full
    # alone, so that no ratio hit on the 30 cuts the stretch first
    t = Twins(make_cfg(w_s=2.0, w_l=4.0, c=2.0, baseline_len=8, methods=(Method.BUFFER_FULL,)),
              1.0, BufferState(l1=10, l2=30, service_per_slot=8.0))
    t.monitor([2] * 10)
    t.freeze()
    assert t.measure([2, 2]) == (2, None, False)
    t.rearm()
    # lambda-bar 2 a slot: an admitted sum of 6.4 at most over 2 slots
    assert t.det.restoration.threshold_sum == (1.0 + 0.6) * 2.0 * 2.0
    arrivals = [2, 2, 30, 0]
    assert (run_ahead(t.buf, np.array(arrivals)).backlog >= 10).nonzero()[0].tolist() == [3]
    assert t.stretch(arrivals, watch=True) == (2, None, True)
    t.assert_same()


def test_unfreeze_discards_excursion_buckets():
    cfg = make_cfg()
    det, buf = Detector(cfg, slot_dt=0.1), BufferState(l1=40, l2=160, service_per_slot=8.0)
    rng = np.random.default_rng(39)
    scanned(det, buf, rng.poisson(0.5, 10_000))
    det.freeze()
    # attack-level traffic while frozen: bucket sums around 50 vs normal 5
    filter_slots(det, buf, rng.poisson(5.0, 300).tolist())
    assert max(det._episode) > 30
    det.unfreeze()
    # every episode bucket is discarded; only pre-episode normal ones remain
    assert all(b < 30 for b in det.buckets)
    # resumed monitoring on normal traffic fires only at the null rate
    checks_before = det.stat_checks
    fires = scanned(det, buf, rng.poisson(0.5, 30_000)).count(Method.STATISTICAL)
    assert det.stat_checks > checks_before
    assert fires / (det.stat_checks - checks_before) <= 0.05 + 0.03


def test_freeze_and_unfreeze_need_the_other_phase():
    # a warm default detector: its 75 buckets are full, and so is its short
    # window, which a rearm would empty
    det, buf = Detector(make_cfg(), slot_dt=0.1), BufferState(l1=40, l2=160, service_per_slot=8.0)
    scanned(det, buf, np.random.default_rng(42).poisson(1, 1000))
    warm = detector_state(det)
    assert len(det.buckets) == 75 and len(det.short) == 100
    with pytest.raises(RuntimeError):
        det.unfreeze()
    assert detector_state(det) == warm
    with pytest.raises(RuntimeError):
        det.rearm(buf)
    assert detector_state(det) == warm and det.restoration is None
    det.freeze()
    frozen = detector_state(det)
    with pytest.raises(RuntimeError):
        det.freeze()
    assert detector_state(det) == frozen


# ---------------------------------------------------------------------------
# run, unfrozen: the monitor stretch run ahead to the next fire
# ---------------------------------------------------------------------------

def assert_scan_matches_observe(t, arrivals):
    """Run the twins' unfrozen detector over a stretch; compare with the
    reference's observe() slot by slot, then through a freeze() and a few
    filter slots."""
    t.assert_same()
    ran, fired, restored = t.det.run(np.array(arrivals, dtype=np.int64), t.buf)
    got = ran, fired
    assert got == observed(t.ref, t.ref_buf, arrivals) and not restored
    t.assert_same()
    t.freeze()
    t.assert_same()
    for v in arrivals[:40]:
        t.filter_slot(v)
    t.assert_same()
    return got


@st.composite
def aggregate_feeds(draw, max_segments, min_segments=0):
    """Steps, bursts and zero runs: constant or Poisson segments of levels."""
    segments = draw(st.lists(st.tuples(st.booleans(), st.sampled_from([0, 1, 2, 5, 12, 40]),
                                       st.integers(min_value=1, max_value=40)),
                             min_size=min_segments, max_size=max_segments))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    feed = []
    for poisson, level, length in segments:
        feed += rng.poisson(level, length).tolist() if poisson else [level] * length
    return feed


@st.composite
def scan_cases(draw):
    slots_per_second = draw(st.sampled_from([1, 2, 4]))
    w_s = draw(st.sampled_from([2.0, 3.0]))
    methods = draw(st.sets(st.sampled_from(ALL_METHODS), min_size=1))
    cfg = make_cfg(w_s=w_s, w_l=w_s + draw(st.integers(min_value=1, max_value=4)),
                   c=w_s + draw(st.integers(min_value=0, max_value=3)),
                   r=draw(st.sampled_from([0.3, 0.6])), baseline_len=8,
                   methods=tuple(m for m in ALL_METHODS if m in methods))
    l1, l2 = draw(st.sampled_from([3, 10, 40])), draw(st.sampled_from([0, 30]))
    buf = BufferState(l1, l2, service_per_slot=draw(st.sampled_from([0.4, 0.8, 8.0, 150.0])))
    t = Twins(cfg, 1 / slots_per_second, buf)
    # warm and carried-over state: the long window, the lambda-bar ring and
    # the buckets from before, optionally across an episode, which leaves
    # the long window non-contiguous and the short window empty
    t.monitor(draw(aggregate_feeds(6)))
    if draw(st.booleans()):
        t.freeze()
        t.measure(draw(aggregate_feeds(2)))
        t.unfreeze()
        t.monitor(draw(st.lists(st.integers(min_value=0, max_value=12), max_size=6)))
    return t, draw(aggregate_feeds(8, min_segments=1))


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_scan_matches_observe(case):
    t, arrivals = case
    assert_scan_matches_observe(t, arrivals)


@pytest.mark.parametrize("methods, expected", [
    (ALL_METHODS, Method.STATISTICAL),
    ((Method.RATIO, Method.BUFFER_FULL), Method.RATIO),
    ((Method.BUFFER_FULL,), Method.BUFFER_FULL),
    ((Method.STATISTICAL, Method.RATIO), Method.STATISTICAL),
])
def test_scan_fires_as_observe_does(methods, expected):
    # a fresh sim2-sized detector: warm-up, baseline, then a tenfold step
    rng = np.random.default_rng(40)
    arrivals = rng.poisson(1, 1000).tolist() + rng.poisson(10, 400).tolist()
    t = Twins(make_cfg(methods=methods), 0.1, BufferState(l1=40, l2=160, service_per_slot=8.0))
    _, fired = assert_scan_matches_observe(t, arrivals)
    assert fired is expected


def test_scan_ratio_boundary_is_strict():
    # 2-slot and 4-slot windows: after [1, 1, 4, 4] the short average 4 equals
    # 1.6 times the long average 2.5 exactly, which is not a fire
    t = Twins(make_cfg(w_s=2.0, w_l=4.0, c=2.0, methods=(Method.RATIO,)), 1.0,
              BufferState(l1=40, l2=160, service_per_slot=8.0))
    assert (1.0 + t.det.cfg.r) * 2.5 == 4.0
    got = assert_scan_matches_observe(t, [1, 1, 4, 4, 20])
    assert got == (5, Method.RATIO)


# ---------------------------------------------------------------------------
# run, frozen: measurement stretches on the frozen detector
# ---------------------------------------------------------------------------

def warmed_twins(draw):
    """Twins with each method subset, warmed by scan_cases(), and most often
    on enough Poisson slots to fill the buckets, so the baseline freezes."""
    t, _ = draw(scan_cases())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        t.monitor(rng.poisson(draw(st.sampled_from([1, 4])),
                              t.det._buckets_max * t.det._slots_per_bucket).tolist())
    return t


@st.composite
def frozen_cases(draw):
    """Warmed twins with each method subset, frozen, then stretches, each
    started right after freeze(), right after rearm(), or after a few
    filter slots.  From the first rearm() on, restoration is watched."""
    t = warmed_twins(draw)
    t.freeze()
    stretches = draw(st.lists(st.tuples(st.sampled_from(["none", "rearm", "observe"]),
                                        aggregate_feeds(4)), min_size=1, max_size=4))
    return t, stretches


@settings(max_examples=300, deadline=None)
@given(frozen_cases())
def test_run_frozen_matches_observe(case):
    t, stretches = case
    t.assert_same()
    for before, arrivals in stretches:
        if before == "rearm":
            t.rearm()
        elif before == "observe":
            for v in arrivals[:3]:
                t.filter_slot(v)
        if t.det._episode is not None:
            t.measure(arrivals)         # its fires are ignored, its checks counted
        t.assert_same()
        if t.det._episode is None:
            return                      # restored, so the twins are unfrozen
    t.unfreeze()
    t.assert_same()


@pytest.mark.parametrize("methods", [ALL_METHODS, (Method.STATISTICAL,),
                                     (Method.RATIO, Method.BUFFER_FULL)])
def test_run_frozen_counts_the_checks_of_a_window(methods):
    # a sim2-sized detector frozen at a tenfold step, then a 100-slot window
    # and a rearmed second one: every check is counted, none stops the run
    rng = np.random.default_rng(41)
    t = Twins(make_cfg(methods=methods), 0.1, BufferState(l1=40, l2=160, service_per_slot=8.0))
    t.monitor(rng.poisson(1, 1000).tolist())
    t.freeze()
    det = t.det
    checks, positives = det.stat_checks, det.stat_positives
    for _ in range(2):
        # the backlog climbs past l1, so restoration never holds
        assert t.measure(rng.poisson(10, 100).tolist()) == (100, None, False)
        t.assert_same()
        t.rearm()
    if Method.STATISTICAL in methods:
        # ten buckets a window, tested from the tenth fresh one on
        assert (det.stat_checks - checks, det.stat_positives - positives) == (2, 2)
    else:
        assert det.stat_checks == 0


def test_run_checks_exactly_at_huge_counts():
    # aggregates near 10**11 a slot on one-slot buckets, whose squares pass
    # 2**63: a stretch's prefix sums must stay Python ints, where an int64
    # cumsum of the squares would wrap silently.  Monitor stretches up to
    # each fire, then an episode's measurement windows, against the
    # reference's checks on the lists.  The buffer serves big a slot and
    # holds 2 * big, so its backlog passes l1 in some ten slots and
    # restoration never holds
    big = 10 ** 11
    rng = np.random.default_rng(43)
    t = Twins(make_cfg(w_s=2.0, w_l=4.0, c=2.0, baseline_len=8, methods=(Method.STATISTICAL,)),
              1.0, BufferState(l1=40, l2=2 * big, service_per_slot=float(big)))
    t.monitor((big + rng.poisson(4, 40)).tolist())
    t.assert_same()
    checks, positives = t.det.stat_checks, t.det.stat_positives
    assert_scan_matches_observe(t, (big + rng.poisson(12, 20)).tolist())
    for level in (12, 4):
        t.rearm()
        assert t.measure((big + rng.poisson(level, 6)).tolist()) == (6, None, False)
        t.assert_same()
    t.unfreeze()
    t.monitor((big + rng.poisson(4, 40)).tolist())
    t.assert_same()
    checks, positives = t.det.stat_checks - checks, t.det.stat_positives - positives
    assert checks > 20 and 0 < positives < checks


def test_run_frozen_needs_a_frozen_detector():
    # a measurement window, on an unfrozen detector
    det, buf = Detector(make_cfg(), slot_dt=0.1), BufferState(l1=40, l2=160, service_per_slot=8.0)
    with pytest.raises(RuntimeError):
        det.run(np.zeros(5, dtype=np.int64), buf, watch=False)
    assert detector_state(det) == detector_state(Detector(make_cfg(), slot_dt=0.1))
    assert buffer_fields(buf) == buffer_fields(BufferState(l1=40, l2=160, service_per_slot=8.0))


# ---------------------------------------------------------------------------
# run through an episode: monitor, measurement windows, filter slots, monitor
# ---------------------------------------------------------------------------

@st.composite
def episode_cases(draw):
    """Warmed twins, whose lambda-bar at the fire sets the restoration
    threshold, the arrivals of up to eight stretches, and a monitor stretch
    after the episode."""
    t = warmed_twins(draw)
    feeds = draw(st.lists(aggregate_feeds(3, min_segments=1), min_size=1, max_size=8))
    return t, feeds, draw(aggregate_feeds(3, min_segments=1))


def episode_example(feeds, l2=30, service=8.0):
    """An episode case on 1-slot buckets: w_s 2, a pinned lambda-bar of 2,
    so a ratio hit at a short sum above 6.4 and restoration at an admitted
    sum of 6.4 at most, and a statistical baseline of alternating 0 and 4,
    against which a current mean of 4 or 5 passes the gate but neither
    test.  The buffer's l1 is 10.  The monitor stretch after it ends at a
    ratio fire against the long window."""
    t = Twins(make_cfg(w_s=2.0, w_l=4.0, c=2.0, baseline_len=8), 1.0,
              BufferState(l1=10, l2=l2, service_per_slot=service))
    t.monitor([0, 4] * 10)
    return t, feeds, [0, 0, 9, 9, 0]


@example(episode_example(
    # after the window, the ratio hits on the filter stretch's second slot,
    # whose admitted sum 10 is above the threshold sum 6.4; restoration
    # would hold on its fourth: the stretch ends, unrestored, at the ratio
    [[4, 4], [5, 5, 0, 0, 0]]))
@example(episode_example(
    # a full buffer of l1 that serves 3 a slot: each filter slot's backlog
    # is 7 and it admits 3 of its 9.  So on the second, the ratio hit on 18
    # arrivals, a statistical fire and restoration on an admitted sum of 6
    # coincide: restoration wins
    [[9, 9], [9, 9, 9]], l2=0, service=3.0))
@settings(max_examples=300, deadline=None)
@given(episode_cases())
def test_frozen_stretch_matches_reference(case):
    # an episode as run_once runs it: freeze(); a measurement window of w_s
    # slots, unwatched by restoration; rearm(), whose first call starts the
    # restoration watch, and filter stretches up to a fire, which opens a
    # watched window; restoration, which unfreezes, or unfreeze() after the
    # last stretch; then a monitor stretch.  Each window and each filter
    # phase is cut into stretches of the drawn lengths, so phases continue
    # across stretches.  The reference runs the same slots one at a time
    t, feeds, after = case
    ws = t.det._ws_slots
    t.freeze()
    phase, window_left = "measure", ws
    for feed in feeds:
        arrivals = feed[:window_left] if phase == "measure" else feed
        ran, fired, restored = t.stretch(arrivals, watch=phase == "filter")
        t.assert_same()
        if restored:
            break                       # the filter and its monitor are released
        if phase == "measure":
            window_left -= ran
            if window_left == 0:
                t.rearm()
                phase = "filter"
        elif fired is not None:
            phase, window_left = "measure", ws
    else:
        t.unfreeze()
    t.assert_same()
    assert t.det.run(np.array(after, dtype=np.int64), t.buf) == reference_stretch(
        t.ref, t.ref_buf, None, after, True)
    t.assert_same()


# ---------------------------------------------------------------------------
# unfreeze: the buckets held at the fire, less the episode's share
# ---------------------------------------------------------------------------

UNFREEZE_CASES = dict(
    slots_per_second=st.sampled_from([1, 2]),
    w_s=st.sampled_from([2, 3, 4]),
    extra_c=st.integers(min_value=0, max_value=2),
    others=st.sets(st.sampled_from([Method.RATIO, Method.BUFFER_FULL])),
    # buckets run before the freeze, of at most 14 held, and the slots of
    # the episode: a 1-slot bucket's episode of 30 holds more than 14
    held=st.integers(min_value=0, max_value=16),
    lead=st.integers(min_value=0, max_value=1),
    episode=st.integers(min_value=0, max_value=30),
    rearm_after=st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
    seed=st.integers(min_value=0, max_value=2**32 - 1))


def with_unfreeze_examples(test):
    # 1-slot buckets and w_s = c = 2: 10 buckets held at most, 2 of them
    # the excursion
    for held, episode, rearm_after in [
            (6, 0, None), (6, 3, None), (6, 7, None),       # fewer than 10 held: no
            (6, 10, None), (6, 13, None),                   # episode, one within the
            (10, 0, None), (10, 5, None), (10, 10, None),   # room left, one past it,
            (14, 12, None),                                 # 10 or more; then full
            (0, 0, None), (1, 0, None), (1, 3, None),       # fewer than w_s held
            (10, 8, 3), (6, 9, 5)]:                         # a rearm part-way
        test = example(slots_per_second=1, w_s=2, extra_c=0, others=set(), held=held,
                       lead=0, episode=episode, rearm_after=rearm_after, seed=held)(test)
    # w_s = c = 3 and 2 held: a slice to held - w_s, not to 0, keeps one
    return example(slots_per_second=1, w_s=3, extra_c=0, others=set(), held=2, lead=0,
                   episode=0, rearm_after=None, seed=2)(test)


def assert_unfreeze_matches_reference(slots_per_second, w_s, extra_c, others, held, lead,
                                      episode, rearm_after, seed):
    """Twins on the statistical method, and the drawn others, run `held`
    buckets and `lead` slots of Poisson 1s, freeze, then an episode of 20s
    (rearmed part-way when drawn, which starts the restoration watch) and
    unfreeze: the state after each step,
    and a monitor stretch long enough to refill the buckets after it."""
    cfg = make_cfg(w_s=float(w_s), w_l=w_s + 1.0, c=float(w_s + extra_c), baseline_len=8,
                   methods=tuple(m for m in ALL_METHODS
                                 if m is Method.STATISTICAL or m in others))
    spb = slots_per_second
    t = Twins(cfg, 1 / spb, BufferState(l1=40, l2=160, service_per_slot=50.0))
    rng = np.random.default_rng(seed)
    t.monitor(rng.poisson(1, held * spb + lead % spb).tolist())
    t.freeze()
    t.assert_same()
    feed = rng.poisson(20, episode).tolist()
    cut = len(feed) if rearm_after is None else min(rearm_after, len(feed))
    t.measure(feed[:cut])
    if rearm_after is not None:
        t.rearm()
        t.assert_same()
        # the 20s are far above the restoration threshold of 1.6 times
        # lambda-bar a slot: the episode runs on
        assert t.measure(feed[cut:]) == (len(feed) - cut, None, False)
    t.assert_same()
    t.unfreeze()
    t.assert_same()
    assert_scan_matches_observe(t, rng.poisson(1, (t.det._buckets_max + 4) * spb).tolist())


@with_unfreeze_examples
@settings(max_examples=300, deadline=None)
@given(**UNFREEZE_CASES)
def test_unfreeze_slice_matches_reference(**case):
    assert_unfreeze_matches_reference(**case)


@pytest.mark.slow
@with_unfreeze_examples
@settings(max_examples=2000, deadline=None)
@given(**UNFREEZE_CASES)
def test_unfreeze_slice_matches_reference_many(**case):
    assert_unfreeze_matches_reference(**case)
