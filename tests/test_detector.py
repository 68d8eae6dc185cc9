"""Detector tests: sliding windows, the three detection rules, the frozen
baseline during episodes, and the end-to-end fire logic."""

import copy
import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddossim.buffer import BufferState, step
from ddossim.detector import (ALL_METHODS, Detector, DetectorConfig, Method,
                              SlidingWindow, detect_ratio, detect_statistical)
from reference import ReferenceDetector


def make_cfg(**overrides) -> DetectorConfig:
    base = dict(w_s=10.0, w_l=45.0, r=0.6, c=45.0, alpha=0.05, baseline_len=30)
    base.update(overrides)
    return DetectorConfig(**base)


# ---------------------------------------------------------------------------
# sliding window
# ---------------------------------------------------------------------------

def test_window_push_and_average():
    win = SlidingWindow(3)
    win.push(5)
    assert win.average() == 5.0
    win = SlidingWindow(3)
    for v in (1, 2, 3, 4):
        win.push(v)
    assert list(win.contents) == [2, 3, 4]
    assert win.average() == 3.0


def test_window_running_sum_exact_over_many_pushes():
    rng = np.random.default_rng(31)
    win = SlidingWindow(257)
    values = rng.integers(0, 10_000, size=1_000_000)
    for v in values:
        win.push(int(v))
    assert win.running_sum == sum(win.contents)
    assert win.average() == sum(win.contents) / len(win.contents)


def test_window_average_matches_mean_at_every_step():
    rng = np.random.default_rng(32)
    win = SlidingWindow(16)
    for v in rng.integers(0, 100, size=2_000):
        win.push(int(v))
        assert win.running_sum == sum(win.contents)
        assert win.average() == sum(win.contents) / len(win.contents)


def test_window_errors():
    with pytest.raises(ValueError):
        SlidingWindow(0)
    with pytest.raises(ValueError, match="warmed up"):
        SlidingWindow(3).average()


# ---------------------------------------------------------------------------
# ratio and buffer rules
# ---------------------------------------------------------------------------

def test_ratio_boundary_is_strict():
    assert detect_ratio(1601, 1000, 0.6)
    assert not detect_ratio(1600, 1000, 0.6)
    assert not detect_ratio(100, 0, 0.6)     # warm-up guard
    # the array form scan() uses: the same cases elementwise, plus a NaN
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
    buf = BufferState(l1=40, l2=30_000)
    feed = ((39, False), (1, False), (0, True), (30_000, True), (0, True))
    for arrivals, fires in feed:
        step(buf, arrivals, 0)
        assert (ref.observe(arrivals, buf) is Method.BUFFER_FULL) == fires
    assert buf.post_service_occupancy == 30_040
    # no buffer state given: the method cannot fire
    assert ref.observe(0) is None
    # scan() stops at the first of those fires; frozen, observe() fires on
    # each slot after it
    det, buf = Detector(cfg, slot_dt=0.1), BufferState(l1=40, l2=30_000)
    assert det.scan(np.array([a for a, _ in feed]), buf, 0.0) == (3, Method.BUFFER_FULL)
    det.freeze()
    assert filter_slots(det, buf, 0.0, [a for a, _ in feed[3:]]) == [Method.BUFFER_FULL] * 2


# ---------------------------------------------------------------------------
# statistical rule
# ---------------------------------------------------------------------------

def test_statistical_same_data_not_detected():
    rng = np.random.default_rng(34)
    baseline = rng.poisson(5, 30).astype(float).tolist()
    assert not detect_statistical(baseline, list(baseline[-10:]), 0.05)


def test_statistical_attack_regime_always_detected():
    # baseline mean 5/s vs attack mean 15/s, Poisson noise
    rng = np.random.default_rng(35)
    hits = 0
    for _ in range(1000):
        baseline = rng.poisson(5, 30).astype(float).tolist()
        current = rng.poisson(15, 10).astype(float).tolist()
        hits += detect_statistical(baseline, current, 0.05)
    assert hits == 1000


def test_statistical_null_false_alarm_rate():
    rng = np.random.default_rng(36)
    hits = 0
    for _ in range(1000):
        baseline = rng.poisson(5, 30).astype(float).tolist()
        current = rng.poisson(5, 10).astype(float).tolist()
        hits += detect_statistical(baseline, current, 0.05)
    assert hits / 1000 <= 0.05 + 0.02


def test_statistical_scale_consistency():
    rng = np.random.default_rng(37)
    for _ in range(50):
        baseline = rng.poisson(5, 30).astype(float).tolist()
        current = rng.poisson(9, 10).astype(float).tolist()
        hit1 = detect_statistical(baseline, current, 0.05)
        scale = 7.3
        hit2 = detect_statistical([scale * x for x in baseline],
                                  [scale * x for x in current], 0.05)
        assert hit1 == hit2


def test_statistical_degenerate_baseline_falls_back_to_threshold():
    baseline = [5.0] * 30
    assert detect_statistical(baseline, [6.0, 6.0], 0.05) is True
    assert detect_statistical(baseline, [5.0, 5.0], 0.05) is False


def test_statistical_input_validation():
    with pytest.raises(ValueError):
        detect_statistical([1.0] * 7, [1.0, 2.0], 0.05)
    with pytest.raises(ValueError):
        detect_statistical([1.0] * 10, [1.0], 0.05)


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


@settings(max_examples=400, deadline=None)
@given(baseline=st.lists(st.integers(0, 60), min_size=8, max_size=40),
       # a raised floor lifts the current mean past the gate more often
       current=st.integers(0, 60).flatmap(
           lambda floor: st.lists(st.integers(floor, 60), min_size=2, max_size=15)),
       alpha=st.sampled_from([0.01, 0.05, 0.2]))
def test_statistical_decision_matches_scipy(baseline, current, alpha):
    expected = scipy_decision(baseline, current, alpha)
    assume(expected is not None)
    assert detect_statistical(baseline, current, alpha) == expected


# ---------------------------------------------------------------------------
# detector state machine
# ---------------------------------------------------------------------------

def detector_state(det):
    """Every field of a detector, with the type of each value."""
    def typed(values):
        return [(type(v), v) for v in values]
    return {
        "short": (typed(det.short.contents), typed([det.short.running_sum])),
        "long": (typed(det.long.contents), typed([det.long.running_sum])),
        "ring": (typed(det._lambda_bar_ring), det._lambda_bar_ring.maxlen),
        "buckets": (typed(det.buckets), det.buckets.maxlen),
        "partial": typed([det._bucket_acc, det._bucket_fill]),
        "stat": (det.stat_checks, det.stat_positives),
        "frozen": (det._frozen, det._frozen_baseline, det._frozen_lambda_bar,
                   det._fresh_buckets, det._frozen_appended),
    }


def buffer_fields(buf):
    return {name: getattr(buf, name) for name in BufferState.__slots__}


def observed(det, buf, service, arrivals):
    """The reference's observe() loop, each slot stepped through buf first:
    (slots consumed, method) at the first fire, as scan() returns it."""
    for n, v in enumerate(arrivals, 1):
        step(buf, v, service)
        fired = det.observe(v, buf)
        if fired is not None:
            return n, fired
    return len(arrivals), None


def scanned(det, buf, service, arrivals):
    """scan() the unfrozen detector over all of arrivals, fires and all,
    starting a new scan after each fire: the method of each fire."""
    rest = np.asarray(arrivals, dtype=np.int64)
    fires = []
    while len(rest):
        n, fired = det.scan(rest, buf, service)
        rest = rest[n:]
        if fired is not None:
            fires.append(fired)
    return fires


def filter_slots(det, buf, service, arrivals):
    """observe() on the frozen detector over filter slots, each stepped
    through buf first: what each slot fired."""
    fires = []
    for v in arrivals:
        step(buf, v, service)
        fires.append(det.observe(v, buf))
    return fires


class Twins:
    """A Detector and a ReferenceDetector fed the same slots, each with its
    own copy of a buffer: the detector through the entry point of its
    phase, the reference one observe() at a time."""

    def __init__(self, cfg, slot_dt, buf, service):
        self.det, self.ref = Detector(cfg, slot_dt), ReferenceDetector(cfg, slot_dt)
        self.buf, self.ref_buf = buf, copy.deepcopy(buf)
        self.service = service

    def monitor(self, arrivals):
        """Unfrozen slots: scan() to the end of them, and observe() each."""
        scanned(self.det, self.buf, self.service, arrivals)
        for v in arrivals:
            step(self.ref_buf, v, self.service)
            self.ref.observe(v, self.ref_buf)

    def measure(self, arrivals):
        """A frozen stretch whose fires are ignored: run_frozen(), and
        observe() each slot; both buffers step through it."""
        self.det.run_frozen(np.array(arrivals, dtype=np.int64))
        for v in arrivals:
            step(self.buf, v, self.service)
            step(self.ref_buf, v, self.service)
            self.ref.observe(v, self.ref_buf)

    def filter_slot(self, v):
        """One frozen filter slot: what each detector fired."""
        return (filter_slots(self.det, self.buf, self.service, [v])[0],
                filter_slots(self.ref, self.ref_buf, self.service, [v])[0])

    def freeze(self):
        self.det.freeze()
        self.ref.freeze()

    def unfreeze(self):
        self.det.unfreeze()
        self.ref.unfreeze()

    def rearm(self):
        self.det.rearm()
        self.ref.rearm()

    def assert_same(self):
        assert detector_state(self.det) == detector_state(self.ref)
        assert buffer_fields(self.buf) == buffer_fields(self.ref_buf)


def first_fire(cfg, aggregates, buf=None, service=0.0):
    """(slots elapsed, method) at the first fire of a fresh detector, or
    (None, None): scan() over the aggregates, which the reference's
    observe() loop must agree with.  buf, when given, runs through the
    same slots; without it the buffer-full method cannot fire."""
    if buf is None:
        # served faster than any slot fills it, a buffer is never backlogged
        buf, service = BufferState(l1=40, l2=160), float(max(aggregates)) + 1.0
    t = Twins(cfg, 0.1, buf, service)
    got = t.det.scan(np.array(aggregates, dtype=np.int64), t.buf, service)
    assert got == observed(t.ref, t.ref_buf, service, aggregates)
    t.assert_same()
    return got if got[1] is not None else (None, None)


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(w_s=50.0).validate()          # w_s >= w_l
    with pytest.raises(ValueError):
        make_cfg(r=0.0).validate()
    with pytest.raises(ValueError):
        make_cfg(c=5.0).validate()             # c < w_s
    with pytest.raises(ValueError):
        make_cfg(alpha=0.7).validate()
    with pytest.raises(ValueError):
        make_cfg(baseline_len=4).validate()
    with pytest.raises(ValueError):
        make_cfg(methods=()).validate()


@pytest.mark.parametrize("field", ["w_s", "w_l", "r", "c", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_cfg(**{field: value}).validate()


def test_window_sizes_are_exact_slot_counts():
    det = Detector(make_cfg(), slot_dt=0.1)
    # 10 s and 45 s windows; 45 look-back buckets plus a 30-bucket baseline
    assert (det.short.capacity, det.long.capacity, det.buckets.maxlen) == (100, 450, 75)
    ratio_only = Detector(make_cfg(w_s=10.5, c=45.5, methods=(Method.RATIO,)), slot_dt=0.1)
    assert ratio_only.short.capacity == 105
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
    buf = BufferState(l1=40, l2=160)
    elapsed, method = first_fire(cfg, [5] * 500 + [30] * 200, buf, service=10.0)
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
    det, buf = Detector(make_cfg(methods=(Method.RATIO,)), slot_dt=0.1), BufferState(40, 160)
    assert scanned(det, buf, 8.0, [10] * 1_000) == []
    return det, buf


def test_frozen_lambda_bar_is_pinned():
    det, buf = warm_ratio_detector()
    before = det.baseline_lambda_bar()
    det.freeze()
    filter_slots(det, buf, 8.0, [100] * 500)      # attack-level traffic while frozen
    assert det.baseline_lambda_bar() == before
    det.unfreeze()
    assert not det._frozen


def test_frozen_ratio_fires_against_pinned_baseline():
    det, buf = warm_ratio_detector()
    det.freeze()
    det.rearm()
    fires = filter_slots(det, buf, 8.0, [100] * 200)
    assert next(f for f in fires if f) is Method.RATIO


def test_rearm_requires_fresh_short_window():
    det, buf = warm_ratio_detector()
    det.freeze()
    filter_slots(det, buf, 8.0, [100] * 200)
    det.rearm()
    # immediately after rearm the short window is empty: no fire on a
    # normal-level slot even though the previous contents were attack-level
    assert filter_slots(det, buf, 8.0, [10]) == [None]


def test_unfreeze_discards_excursion_buckets():
    cfg = make_cfg()
    det, buf = Detector(cfg, slot_dt=0.1), BufferState(l1=40, l2=160)
    rng = np.random.default_rng(39)
    scanned(det, buf, 8.0, rng.poisson(0.5, 10_000))
    det.freeze()
    # attack-level traffic while frozen: bucket sums around 50 vs normal 5
    filter_slots(det, buf, 8.0, rng.poisson(5.0, 300).tolist())
    assert max(det.buckets) > 30
    det.unfreeze()
    # every episode bucket is discarded; only pre-episode normal ones remain
    assert all(b < 30 for b in det.buckets)
    # resumed monitoring on normal traffic fires only at the null rate
    checks_before = det.stat_checks
    fires = scanned(det, buf, 8.0, rng.poisson(0.5, 30_000)).count(Method.STATISTICAL)
    assert det.stat_checks > checks_before
    assert fires / (det.stat_checks - checks_before) <= 0.05 + 0.03


def test_observe_needs_a_frozen_detector():
    det = Detector(make_cfg(), slot_dt=0.1)
    with pytest.raises(RuntimeError):
        det.observe(5, BufferState(l1=40, l2=160))
    assert detector_state(det) == detector_state(Detector(make_cfg(), slot_dt=0.1))


def test_freeze_and_unfreeze_need_the_other_phase():
    # a warm default detector: its 75-bucket deque is full
    det, buf = Detector(make_cfg(), slot_dt=0.1), BufferState(l1=40, l2=160)
    scanned(det, buf, 8.0, np.random.default_rng(42).poisson(1, 1000))
    warm = detector_state(det)
    assert len(det.buckets) == 75
    with pytest.raises(RuntimeError):
        det.unfreeze()
    assert detector_state(det) == warm
    det.freeze()
    frozen = detector_state(det)
    with pytest.raises(RuntimeError):
        det.freeze()
    assert detector_state(det) == frozen


# ---------------------------------------------------------------------------
# scan: the unfrozen detector run ahead to the next fire
# ---------------------------------------------------------------------------

def assert_scan_matches_observe(t, arrivals):
    """Scan the twins' detector; compare with the reference's observe() slot
    by slot, then through a freeze() and a few filter slots."""
    t.assert_same()
    got = t.det.scan(np.array(arrivals, dtype=np.int64), t.buf, t.service)
    assert got == observed(t.ref, t.ref_buf, t.service, arrivals)
    t.assert_same()
    t.freeze()
    t.assert_same()
    for v in arrivals[:40]:
        fired, expected = t.filter_slot(v)
        assert fired == expected
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
    buf = BufferState(l1=draw(st.sampled_from([3, 10, 40])), l2=draw(st.sampled_from([0, 30])))
    service = draw(st.sampled_from([0.4, 0.8, 8.0, 150.0]))
    t = Twins(cfg, 1 / slots_per_second, buf, service)
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
    t = Twins(make_cfg(methods=methods), 0.1, BufferState(l1=40, l2=160), 8.0)
    _, fired = assert_scan_matches_observe(t, arrivals)
    assert fired is expected


def test_scan_ratio_boundary_is_strict():
    # 2-slot and 4-slot windows: after [1, 1, 4, 4] the short average 4 equals
    # 1.6 times the long average 2.5 exactly, which is not a fire
    t = Twins(make_cfg(w_s=2.0, w_l=4.0, c=2.0, methods=(Method.RATIO,)), 1.0,
              BufferState(l1=40, l2=160), 8.0)
    assert (1.0 + t.det.cfg.r) * 2.5 == 4.0
    got = assert_scan_matches_observe(t, [1, 1, 4, 4, 20])
    assert got == (5, Method.RATIO)


def test_scan_needs_an_unfrozen_detector():
    det = Detector(make_cfg(), slot_dt=0.1)
    det.freeze()
    with pytest.raises(RuntimeError):
        det.scan(np.zeros(5, dtype=np.int64), BufferState(l1=40, l2=160), 8.0)


# ---------------------------------------------------------------------------
# run_frozen: a measurement stretch on the frozen detector
# ---------------------------------------------------------------------------

@st.composite
def frozen_cases(draw):
    """Warmed twins with each method subset, frozen, then stretches, each
    started right after freeze(), right after rearm(), or after a few
    filter slots."""
    t, _ = draw(scan_cases())
    spb = t.det._slots_per_bucket
    if draw(st.booleans()):
        # enough Poisson slots to fill the buckets, so the baseline freezes
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        t.monitor(rng.poisson(draw(st.sampled_from([1, 4])),
                              t.det.buckets.maxlen * spb).tolist())
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
                fired, expected = t.filter_slot(v)
                assert fired == expected
        t.measure(arrivals)             # its fires are ignored, its checks counted
        t.assert_same()
    t.unfreeze()
    t.assert_same()


@pytest.mark.parametrize("methods", [ALL_METHODS, (Method.STATISTICAL,),
                                     (Method.RATIO, Method.BUFFER_FULL)])
def test_run_frozen_counts_the_checks_of_a_window(methods):
    # a sim2-sized detector frozen at a tenfold step, then a 100-slot window
    # and a rearmed second one: every check is counted, none stops the run
    rng = np.random.default_rng(41)
    t = Twins(make_cfg(methods=methods), 0.1, BufferState(l1=40, l2=160), 8.0)
    t.monitor(rng.poisson(1, 1000).tolist())
    t.freeze()
    det = t.det
    checks, positives = det.stat_checks, det.stat_positives
    for _ in range(2):
        t.measure(rng.poisson(10, 100).tolist())
        t.assert_same()
        t.rearm()
    if Method.STATISTICAL in methods:
        # ten buckets a window, tested from the tenth fresh one on
        assert (det.stat_checks - checks, det.stat_positives - positives) == (2, 2)
    else:
        assert det.stat_checks == 0


def test_run_frozen_needs_a_frozen_detector():
    det = Detector(make_cfg(), slot_dt=0.1)
    with pytest.raises(RuntimeError):
        det.run_frozen(np.zeros(5, dtype=np.int64))
