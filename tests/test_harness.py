"""End-to-end harness tests: determinism, metric consistency, restoration,
batch aggregation, and the window sweep."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddossim import harness
from ddossim.detector import DetectorConfig, Method, RestorationMonitor
from ddossim.harness import batch_seeds, run_batch, run_once, sweep_window
from ddossim.presets import PRESETS
from ddossim.stats import sample_mean, sample_stddev
from ddossim.traffic import ScenarioConfig, slots_in
from reference import ReferenceRestorationMonitor, reference_run


SIM2 = PRESETS["sim2"]


def small_run(**overrides):
    scenario = dataclasses.replace(SIM2.scenario, **overrides)
    return scenario, SIM2.detector, SIM2.id_method


# ---------------------------------------------------------------------------
# run_once
# ---------------------------------------------------------------------------

def test_run_once_deterministic():
    scenario, det, idm = small_run()
    a = run_once(scenario, det, idm, seed=123)
    b = run_once(scenario, det, idm, seed=123)
    assert a == b


def test_run_once_detects_and_restores():
    scenario, det, idm = small_run()
    m = run_once(scenario, det, idm, seed=42)
    assert m.detected
    assert m.detection_time is not None and m.detection_time >= 0
    assert m.restore_time is not None and m.restore_time > m.detection_time
    assert m.correctly_identified_attackers > 0
    # metric bounds
    assert m.correctly_identified_attackers <= scenario.n_attack
    assert m.legal_filtered <= scenario.n_legal
    assert m.max_buffer_level <= scenario.l1 + scenario.l2
    assert m.packets_dropped >= 0


@pytest.mark.parametrize("seed", [27, 39, 40])
def test_primary_episode_restored_before_classifying(seed):
    # a false alarm's episode is filtering when the attack fires it again:
    # that fire is the detection, and restoration ends the episode in the
    # re-measurement window the fire opened, before it is classified.  So
    # the primary episode has no block set, and no later episode's may be
    # reported in its place
    p = PRESETS["case1"]
    m = run_once(p.scenario, p.detector, "history", seed=seed)
    assert m == reference_run(p.scenario, p.detector, "history", seed=seed)
    assert m.detected and m.false_alarms > 0 and m.restore_time is not None
    assert (m.correctly_identified_attackers, m.legal_filtered) == (0, 0)


def test_run_once_no_attack_baseline():
    # approximate detectors only: at this scale neither fires without attack
    scenario, _, idm = small_run(n_attack=0)
    det = dataclasses.replace(SIM2.detector,
                              methods=(Method.RATIO, Method.BUFFER_FULL))
    m = run_once(scenario, det, idm, seed=5)
    assert not m.detected
    assert m.detection_time is None
    assert m.restore_time is None
    assert m.legal_filtered == 0
    assert m.correctly_identified_attackers == 0


def test_run_once_config_errors():
    scenario, det, idm = small_run()
    with pytest.raises(ValueError):
        run_once(scenario, dataclasses.replace(det, w_l=150.0), idm, seed=1)
    with pytest.raises(ValueError):  # statistical warm-up must end before t*
        run_once(dataclasses.replace(scenario, t_star=60.0, attack_end=80.0),
                 det, idm, seed=1)
    with pytest.raises(ValueError):
        run_once(scenario, det, "nonsense", seed=1)


@pytest.mark.parametrize("seed", [1, -1])
@pytest.mark.parametrize("scenario, detector, id_method, match", [
    (dict(mu=-1.0), dict(r=0.0), "nonsense", "mu must be > 0"),
    ({}, dict(r=0.0), "nonsense", "r must be > 0"),
    ({}, dict(w_s=10.5), "nonsense", "whole seconds"),
    ({}, dict(w_l=150.0), "nonsense", "w_l must warm up"),
    ({}, {}, "nonsense", "unknown identification method"),
])
def test_run_once_reports_the_first_error_in_check_order(scenario, detector, id_method, match,
                                                         seed):
    # the scenario, the detector config and its windows, the pair, the
    # identification method, and last the seed, which numpy checks
    with pytest.raises(ValueError, match=match):
        run_once(dataclasses.replace(SIM2.scenario, **scenario),
                 dataclasses.replace(SIM2.detector, **detector), id_method, seed=seed)


def test_run_once_checks_the_seed_last():
    with pytest.raises(ValueError, match="non-negative"):
        run_once(SIM2.scenario, SIM2.detector, SIM2.id_method, seed=-1)


@pytest.mark.parametrize("overrides, match", [
    # the statistical method would test 10 one-second buckets against a
    # 10.5 s ratio window
    (dict(w_s=10.5), "whole seconds"),
    # a 45.5 s look-back for the ratio baseline but 46 buckets for the
    # statistical one
    (dict(c=45.5), "whole seconds"),
    # a single one-second sample has no variance to test
    (dict(w_s=1.0), "w_s >= 2"),
    # 450.5 slots
    (dict(w_l=45.05), "w_l=45.05 is not on the grid"),
])
def test_detector_windows_that_do_not_fit_rejected(overrides, match):
    scenario, det, idm = small_run()
    with pytest.raises(ValueError, match=match):
        run_once(scenario, dataclasses.replace(det, **overrides), idm, seed=1)


def test_ratio_only_fractional_window_runs():
    # without the statistical method no one-second bucket is sized from
    # w_s, so a 105-slot window is valid
    scenario, det, idm = small_run()
    det = dataclasses.replace(det, w_s=10.5, methods=(Method.RATIO, Method.BUFFER_FULL))
    m = run_once(scenario, det, idm, seed=5)
    assert m.detected and m.detection_method == "ratio"
    assert m.stat_checks == 0


def test_measurement_divides_by_the_window_length(monkeypatch):
    # the fire slot never enters the denominator: (t + w_s) - t is not
    # w_s for 200 of the 3000 fire slots of sim2
    durations = []
    identify = harness.identify

    def measure(counts, w_s, baseline_rate, exempt=None):
        durations.append(w_s)
        return identify(counts, w_s, baseline_rate, exempt)

    scenario, det, idm = small_run()
    monkeypatch.setattr(harness, "identify", measure)
    run_once(scenario, det, idm, seed=0)
    assert durations and all(d == det.w_s for d in durations)


def test_forced_refire_shares_the_window_stretch(monkeypatch):
    # a classification that leaves the occupancy a slot's service above l1
    # is followed by a buffer-full fire on the next slot: that slot runs in
    # one unwatched stretch with the window it opens, never as a watched
    # one-slot stretch under the detector's restoration monitor
    scenario, det, idm = small_run()
    ws_slots = det.window_slots(scenario.slot_dt)[0]
    untraced = [run_once(scenario, det, idm, seed=s) for s in range(4)]
    stretches = []
    detector_run = harness.Detector.run

    def counted(self, arrivals, buffer, watch=True):
        stretches.append((len(arrivals), watch, self.restoration is not None))
        return detector_run(self, arrivals, buffer, watch)

    monkeypatch.setattr(harness.Detector, "run", counted)
    assert [run_once(scenario, det, idm, seed=s) for s in range(4)] == untraced
    assert (1, True, True) not in stretches
    assert (1 + ws_slots, False, True) in stretches


@pytest.mark.parametrize("preset, overrides, seed", [
    ("sim2", {}, 0),                    # history identification
    ("sim1", {}, 500),                  # greedy over 15 000 sources
    ("sim2", {"n_attack": 0}, 3),       # false alarms only
    ("case1", {}, 0),                   # fractional service, 0.4 packets a slot
    ("sim2", {"slot_dt": 1.0}, 0),      # whole service, 8 packets a slot
])
def test_packet_ledger_balances(monkeypatch, preset, overrides, seed, id_method=None):
    # every generated packet is filtered, dropped, served or still queued;
    # the filtered ones are counted from the split, apart from the filter:
    # the blocked packets of every slot that a stretch took
    taken, streams, buffers = [], [], []
    block_set = [None]           # the sources blocked, as the episodes widen and release it
    traffic_stream, buffer_state = harness.TrafficStream, harness.BufferState

    def kept_stream(*args):
        stream = traffic_stream(*args)
        slots, rewind = stream.slots, stream.rewind

        def taken_slots(lo, hi):
            ids, bounds = slots(lo, hi)
            taken.append([block_set[0], ids, bounds, lo, hi])
            return ids, bounds

        def handed_back(i):
            taken[-1][4] = i
            rewind(i)

        stream.slots, stream.rewind = taken_slots, handed_back
        streams.append(stream)
        return stream

    def kept_buffer(*args):
        buffers.append(buffer_state(*args))
        return buffers[-1]

    def widening(identify):
        def identified(*args):
            suspects = identify(*args)
            block_set[0] = suspects if block_set[0] is None else block_set[0] | suspects
            return suspects
        return identified

    unfreeze = harness.Detector.unfreeze

    def released(det):
        block_set[0] = None
        unfreeze(det)

    monkeypatch.setattr(harness, "TrafficStream", kept_stream)
    monkeypatch.setattr(harness, "BufferState", kept_buffer)
    monkeypatch.setattr(harness, "identify", widening(harness.identify))
    monkeypatch.setattr(harness.Detector, "unfreeze", released)
    p = PRESETS[preset]
    scenario = dataclasses.replace(p.scenario, **overrides)
    m = run_once(scenario, p.detector, id_method or p.id_method, seed=seed)
    (stream,), (buf,) = streams, buffers
    filtered = [int(np.count_nonzero(blocked[ids[:bounds[hi - lo]]]))
                for blocked, ids, bounds, lo, hi in taken if blocked is not None]
    generated = int(stream.totals.sum())
    assert buf._slot == scenario.n_slots
    if scenario.n_attack:
        assert sum(filtered) > 0
    assert buf.cumulative_offered == generated - sum(filtered)
    assert buf.cumulative_offered == (buf.cumulative_dropped + buf.cumulative_served
                                      + buf.occupancy)
    assert m.packets_dropped == buf.cumulative_dropped


def test_packet_ledger_balances_when_restored_mid_window(monkeypatch):
    # case1 under greedy identification, seed 7: restoration holds inside a
    # re-measurement window while blocked legal sources still send, so the
    # slots after it must reach the filter unblocked, as monitor slots
    test_packet_ledger_balances(monkeypatch, "case1", {}, 7, id_method="greedy")


@pytest.mark.parametrize("preset", ["sim1", "case3"])
def test_remeasured_window_counts_only_unblocked_packets(monkeypatch, preset):
    # a window classified under the filter is counted whole, without
    # filtering its packets: its counts must be a bincount of the window's
    # unblocked packet ids, and zero on every blocked source
    p = PRESETS[preset]
    ws_slots = p.detector.window_slots(p.scenario.slot_dt)[0]
    taken = []
    block_set = [None]           # the sources blocked, as the episodes widen and release it
    remeasured = []
    traffic_stream, identify = harness.TrafficStream, harness.identify

    def kept_stream(*args):
        stream = traffic_stream(*args)
        slots = stream.slots

        def taken_slots(lo, hi):
            taken.append(slots(lo, hi))
            return taken[-1]

        stream.slots = taken_slots
        return stream

    def identified(counts, *args):
        blocked = block_set[0]
        if blocked is not None:
            # the window is the last ws_slots slots of the stretch it ends
            ids, bounds = taken[-1]
            window = ids[bounds[len(bounds) - 1 - ws_slots]:]
            assert np.array_equal(counts, np.bincount(window[~blocked[window]],
                                                      minlength=len(counts)))
            assert not counts[blocked].any()
            remeasured.append(int(np.count_nonzero(blocked[window])))
        suspects = identify(counts, *args)
        block_set[0] = suspects if blocked is None else blocked | suspects
        return suspects

    unfreeze = harness.Detector.unfreeze

    def released(det):
        block_set[0] = None
        unfreeze(det)

    monkeypatch.setattr(harness, "TrafficStream", kept_stream)
    monkeypatch.setattr(harness, "identify", identified)
    monkeypatch.setattr(harness.Detector, "unfreeze", released)
    for seed in range(3):
        run_once(p.scenario, p.detector, p.id_method, seed=seed)
    # some 10 re-measurements a run, each window holding blocked packets
    assert len(remeasured) > 10 and all(remeasured)


def logged_runs(monkeypatch, scenario, det, id_method, seeds):
    """Each seed's run_once as a list of (event, value), in call order: a
    stretch ("run", slots elapsed after it), a split ("slots", its first
    slot), a window counted ("count", None), a window ranked ("identify",
    the suspects), a classification ("rearm", slots elapsed), an episode's
    start ("freeze", None) and end ("unfreeze", None)."""
    log, elapsed = [], [0]
    detector, stream = harness.Detector, harness.TrafficStream
    run, slots = detector.run, stream.slots
    count_window, identify = harness.count_window, harness.identify

    def ran(self, arrivals, *args, **kwargs):
        out = run(self, arrivals, *args, **kwargs)
        elapsed[0] += out[0]
        log.append(("run", elapsed[0]))
        return out

    def marked(name):
        method = getattr(detector, name)

        def spy(self, *args):
            log.append((name, elapsed[0] if name == "rearm" else None))
            return method(self, *args)
        return spy

    def taken(self, lo, hi):
        log.append(("slots", lo))
        return slots(self, lo, hi)

    def counted(*args):
        log.append(("count", None))
        return count_window(*args)

    def ranked(*args):
        log.append(("identify", identify(*args)))
        return log[-1][1]

    monkeypatch.setattr(detector, "run", ran)
    for name in ("freeze", "unfreeze", "rearm"):
        monkeypatch.setattr(detector, name, marked(name))
    monkeypatch.setattr(stream, "slots", taken)
    monkeypatch.setattr(harness, "count_window", counted)
    monkeypatch.setattr(harness, "identify", ranked)
    runs = []
    for seed in seeds:
        log.clear()
        elapsed[0] = 0
        runs.append((run_once(scenario, det, id_method, seed=seed), list(log)))
    return runs


def replay_settling(log, settles_at):
    """Check one run's events against the settling rule.  Returns how the
    block set stood at the run's first settled classification ("members",
    "empty", or "first" for an episode's first classification; None if none
    settled) and how many episode stretches and windows went unsplit after
    it.

    A classification at settles_at slots or later (None: never) ranks a
    window whose fire is c past every source's activation, so every source
    is exempt.  From the first one on, no window is split, counted or
    ranked, a stretch is split only while the block set has a member, and
    once it has none the stream is never split again.  Before it, every
    classification counts and ranks its window once."""
    settled = spent = members = in_episode = False
    first_of_episode, shape, unsplit, since = True, None, 0, []
    for event, value in log:
        if event == "freeze":
            in_episode = first_of_episode = True
        elif event == "unfreeze":
            in_episode = members = False
            spent = settled
        elif event == "run":
            if since:
                # the stretch's own split
                assert [e for e, _ in since] == ["slots"]
                assert not spent and (members or not settled)
            elif in_episode and spent:
                unsplit += 1
            since = []
        elif event == "rearm":
            if settles_at is not None and value >= settles_at and not settled:
                settled = True
                shape = "members" if members else "first" if first_of_episode else "empty"
            if settled:
                assert since == []
                spent = spent or not members
                unsplit += spent
            else:
                assert [e for e, _ in since if e != "slots"] == ["count", "identify"]
                members = members or bool(since[-1][1].any())
            first_of_episode, since = False, []
        else:
            since.append((event, value))
    return shape, unsplit


# five quiet sources whose first classification, before c has passed,
# picks nobody, so the run settles at a re-measurement with an empty block set
FIVE_QUIET = (ScenarioConfig(n_legal=5, n_attack=0, lambda_n=1.0, lambda_a=0.2, mu=4.5,
                             l1=5, l2=0, t_star=12.0, attack_end=17.0, total_duration=17.0),
              DetectorConfig(w_s=2.0, w_l=3.0, r=0.3, c=3.0, baseline_len=8))


@pytest.mark.parametrize("scenario, det, shape", [
    (SIM2.scenario, SIM2.detector, "members"),     # settles mid-episode, under a block set
    (PRESETS["case1"].scenario, PRESETS["case1"].detector, "members"),
    # settled at its episode's first window
    (dataclasses.replace(SIM2.scenario, n_attack=0), SIM2.detector, "first"),
    (*FIVE_QUIET, "empty"),
], ids=["sim2", "case1", "sim2-quiet", "five-quiet"])
def test_settled_run_splits_and_ranks_nothing(monkeypatch, scenario, det, shape):
    # under the history method every source is exempt once a fire is c
    # past the last class's activation, so no later classification can
    # pick anyone: from the first such classification on, nothing is
    # counted or ranked, and the stream is split only for a block set that
    # gained members before; every row is still the per-slot reference's
    ws_slots, _, c_slots = det.window_slots(scenario.slot_dt)
    last_active = slots_in(scenario.t_star, scenario.slot_dt, "t_star") if scenario.n_attack else 0
    seeds = range(6)
    expected = [reference_run(scenario, det, "history", seed=s) for s in seeds]
    runs = logged_runs(monkeypatch, scenario, det, "history", seeds)
    assert [m for m, _ in runs] == expected
    replays = [replay_settling(log, last_active + c_slots + ws_slots) for _, log in runs]
    assert shape in [s for s, _ in replays]
    assert sum(unsplit for _, unsplit in replays) > 0


def test_greedy_run_ranks_every_window(monkeypatch):
    # greedy identification exempts nobody, so it never settles: every
    # classification counts and ranks its window, as sim1 shows
    p = PRESETS["sim1"]
    assert p.id_method == "greedy"
    runs = logged_runs(monkeypatch, p.scenario, p.detector, p.id_method, range(3))
    for _, log in runs:
        assert replay_settling(log, None) == (None, 0)
        assert sum(e == "rearm" for e, _ in log) == sum(e == "identify" for e, _ in log) > 0


def test_reported_times_are_exact_decimals():
    # times are slot counts divided by slots per second, so they carry no
    # float residue from multiplying by slot_dt
    scenario, det, idm = small_run()
    assert run_once(scenario, det, idm, seed=0).restore_time == 39.2
    m = run_once(scenario, det, idm, seed=5)
    assert (m.detection_time, m.restore_time, m.max_buffer_time) == (7.0, 49.7, 179.6)


def test_detection_never_precedes_attack_when_no_false_alarm():
    scenario, det, idm = small_run()
    for seed in range(8):
        m = run_once(scenario, det, idm, seed=seed)
        if m.detected and m.false_alarms == 0:
            assert m.detection_time >= 0.0


# ---------------------------------------------------------------------------
# restoration
# ---------------------------------------------------------------------------

def test_restoration_monitor_degenerate_overblocking():
    # admitted 0 and an empty buffer is still "restored": service load is normal
    mon = ReferenceRestorationMonitor(l1=40, baseline_rate=100.0, r=0.6, w_s=1.0,
                                      ws_slots=10)
    hit = False
    for _ in range(10):
        hit = mon.update(0, 0)
    assert hit


def test_restoration_requires_sustained_low_occupancy():
    mon = ReferenceRestorationMonitor(l1=40, baseline_rate=10.0, r=0.6, w_s=1.0,
                                      ws_slots=10)
    for _ in range(9):
        assert not mon.update(0, 1)
    mon.update(50, 1)          # backlog spike resets the streak
    for _ in range(9):
        assert not mon.update(0, 1)
    assert mon.update(0, 1)


def test_restoration_requires_admitted_near_baseline():
    mon = ReferenceRestorationMonitor(l1=40, baseline_rate=10.0, r=0.6, w_s=1.0,
                                      ws_slots=10)
    # threshold sum is (1+0.6)*10*1 = 16 over the window; 2/slot = 20 > 16
    for _ in range(50):
        assert not mon.update(0, 2)
    for _ in range(20):
        restored = mon.update(0, 1)
    assert restored


def test_declare_restored_times_first_instant():
    def first_restored_slot(backlogs):
        mon = ReferenceRestorationMonitor(l1=40, baseline_rate=10.0, r=0.6, w_s=1.0,
                                          ws_slots=10)
        return next((i + 1 for i, b in enumerate(backlogs) if mon.update(b, 0)), None)

    # 10 bad slots + 10-slot clean streak: restored 2.0 s in
    assert first_restored_slot([100] * 10 + [0] * 30) == 20
    assert first_restored_slot([100] * 20) is None


def monitor_state(mon):
    """A RestorationMonitor or its reference in one form, typed: the admitted
    tail, then the low-backlog run."""
    admitted = mon._admitted
    tail = admitted.tolist() if isinstance(admitted, np.ndarray) else list(admitted.contents)
    return [(type(v), v) for v in tail + [mon._occ_ok]]


def updated_to_restoration(mon, backlogs, admitted):
    """first_restored() as a loop of update()."""
    for i, (backlog, count) in enumerate(zip(backlogs, admitted)):
        if mon.update(backlog, count):
            return i
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.sampled_from([2, 5, 40]),
       st.sampled_from([0.5, 1.0, 3.0, 10.0]),
       st.lists(st.tuples(st.integers(min_value=0, max_value=60),
                          st.integers(min_value=0, max_value=8)), max_size=30),
       st.lists(st.tuples(st.integers(min_value=0, max_value=60),
                          st.integers(min_value=0, max_value=8)), max_size=60))
# the longest run of low backlogs a stretch holds at exactly ws_slots - 1,
# where no window is summed, and at exactly ws_slots: before the first high
# slot, counting the 2 low slots carried in, between two high slots, and
# after the last
@example(5, 5, 1.0, [(10, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (10, 0), (0, 0)])
@example(5, 5, 1.0, [(10, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (0, 0), (10, 0)])
@example(5, 5, 1.0, [], [(10, 0), *[(0, 0)] * 4, (10, 0), (0, 0)])
@example(5, 5, 1.0, [], [(10, 0), *[(0, 0)] * 5, (10, 0)])
@example(5, 5, 1.0, [(10, 0)], [(0, 0), (10, 0), *[(0, 0)] * 4])
@example(5, 5, 1.0, [(10, 0)], [(0, 0), (10, 0), *[(0, 0)] * 5])
def test_first_restored_matches_update(ws_slots, l1, baseline_rate, warm, slots):
    args = dict(l1=l1, baseline_rate=baseline_rate, r=0.6, w_s=ws_slots * 0.1,
                ws_slots=ws_slots)
    mon, reference = RestorationMonitor(**args), ReferenceRestorationMonitor(**args)
    # a streak and a window carried in: advance() over the warm slots
    # leaves the monitor as update() over each does
    mon.advance(np.array([b for b, _ in warm], dtype=np.int64),
                np.array([a for _, a in warm], dtype=np.int64))
    for backlog, count in warm:
        reference.update(backlog, count)
    assert monitor_state(mon) == monitor_state(reference)
    backlogs, admitted = [b for b, _ in slots], [a for _, a in slots]
    warm_state = monitor_state(mon)
    at = mon.first_restored(np.array(backlogs, dtype=np.int64),
                            np.array(admitted, dtype=np.int64))
    assert at == updated_to_restoration(reference, backlogs, admitted)
    # the search leaves the monitor alone; advance() over the slots up to
    # the restoring one, or over every slot, leaves it as update() does
    assert monitor_state(mon) == warm_state
    ran = len(slots) if at is None else at + 1
    mon.advance(np.array(backlogs[:ran], dtype=np.int64),
                np.array(admitted[:ran], dtype=np.int64))
    assert monitor_state(mon) == monitor_state(reference)


def test_first_restored_on_the_last_slot():
    # a 10-slot streak that completes on the stretch's last slot
    def monitor():
        return RestorationMonitor(l1=40, baseline_rate=10.0, r=0.6, w_s=1.0, ws_slots=10)
    backlogs, admitted = np.array([100] * 10 + [0] * 10), np.ones(20, dtype=np.int64)
    assert monitor().first_restored(backlogs, admitted) == 19
    mon = monitor()
    assert mon.first_restored(backlogs[:-1], admitted[:-1]) is None
    mon.advance(backlogs[:-1], admitted[:-1])
    assert mon.first_restored(backlogs[-1:], admitted[-1:]) == 0
    # and after a restoring slot nothing more is taken in
    mon = monitor()
    assert mon.first_restored(np.concatenate((backlogs, [100] * 5)),
                              np.concatenate((admitted, [7] * 5))) == 19
    mon.advance(backlogs, admitted)
    assert monitor_state(mon) == [(int, 1)] * 10 + [(int, 10)]


# ---------------------------------------------------------------------------
# batches and sweeps
# ---------------------------------------------------------------------------

def test_batch_seeds_deterministic_and_distinct():
    a = batch_seeds(7, 50)
    assert a == batch_seeds(7, 50)
    assert len(set(a)) == 50


def test_run_batch_aggregates_and_ci():
    scenario, det, idm = small_run()
    stats, runs = run_batch(scenario, det, idm, n_runs=4, base_seed=11)
    assert stats.n_runs == 4
    assert 0.0 <= stats.detected_rate <= 1.0
    dts = [float(r.detection_time) for r in runs if r.detection_time is not None]
    s = stats.metrics["detection_time"]
    assert s.n == len(dts)
    assert s.min == min(dts)
    assert s.avg == pytest.approx(sample_mean(dts))
    # the 95% Student t interval on n - 1 degrees
    assert s.ci95_halfwidth == pytest.approx(
        scipy.stats.t.ppf(0.975, len(dts) - 1) * sample_stddev(dts) / math.sqrt(len(dts)))


def test_run_batch_two_point_ci_closed_form():
    scenario, det, idm = small_run()
    stats, runs = run_batch(scenario, det, idm, n_runs=2, base_seed=13)
    vals = [float(r.detection_time) for r in runs]
    # sample stddev of two points is |a-b|/sqrt(2), and on one degree the
    # t distribution is Cauchy, whose 0.975 quantile is tan(0.475 pi)
    expect = math.tan(0.475 * math.pi) * abs(vals[0] - vals[1]) / math.sqrt(2) / math.sqrt(2)
    assert stats.metrics["detection_time"].ci95_halfwidth == pytest.approx(expect)


def test_run_batch_needs_two_runs():
    scenario, det, idm = small_run()
    with pytest.raises(ValueError):
        run_batch(scenario, det, idm, n_runs=1, base_seed=0)


def test_sweep_single_value_matches_run_once():
    scenario, det, idm = small_run()
    rows = sweep_window(scenario, det, idm, [10.0], runs_per_value=1,
                        base_seed=17)
    assert len(rows) == 1
    w_s, runs = rows[0]
    assert w_s == 10.0
    direct = run_once(scenario, dataclasses.replace(det, w_s=10.0), idm,
                      seed=batch_seeds(17, 1)[0])
    assert runs[0] == direct


def test_sweep_rejects_empty_values():
    scenario, det, idm = small_run()
    with pytest.raises(ValueError):
        sweep_window(scenario, det, idm, [])
    with pytest.raises(ValueError, match="runs_per_value"):
        sweep_window(scenario, det, idm, [10.0], runs_per_value=0)
