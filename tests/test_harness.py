"""End-to-end harness tests: determinism, metric consistency, restoration,
batch aggregation, and the window sweep."""

import dataclasses
import math

import numpy as np
import pytest

from ddossim import harness
from ddossim.detector import Method
from ddossim.harness import (RestorationMonitor, batch_seeds, run_batch, run_once,
                             sweep_window)
from ddossim.presets import PRESETS
from ddossim.stats import sample_mean, sample_stddev


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
    measure_per_source = harness.measure_per_source

    def measure(window_counts, duration):
        durations.append(duration)
        return measure_per_source(window_counts, duration)

    scenario, det, idm = small_run()
    monkeypatch.setattr(harness, "measure_per_source", measure)
    run_once(scenario, det, idm, seed=0)
    assert durations and all(d == det.w_s for d in durations)


@pytest.mark.parametrize("preset, overrides, seed", [
    ("sim2", {}, 0),                    # history identification
    ("sim1", {}, 500),                  # greedy over 15 000 sources
    ("sim2", {"n_attack": 0}, 3),       # false alarms only
    ("case1", {}, 0),                   # fractional service, 0.4 packets a slot
    ("sim2", {"slot_dt": 1.0}, 0),      # whole service, 8 packets a slot
])
def test_packet_ledger_balances(monkeypatch, preset, overrides, seed):
    # every generated packet is filtered, dropped, served or still queued
    filtered, streams, buffers = [], [], []
    apply_filter, traffic_stream, buffer_state = (harness.apply_filter, harness.TrafficStream,
                                                  harness.BufferState)

    def counted_filter(blocked, traffic):
        # the packets from blocked sources, counted apart from the filter
        filtered.append(int(np.count_nonzero(blocked[traffic.sources])))
        return apply_filter(blocked, traffic)

    def kept_stream(*args):
        streams.append(traffic_stream(*args))
        return streams[-1]

    def kept_buffer(*args):
        buffers.append(buffer_state(*args))
        return buffers[-1]

    monkeypatch.setattr(harness, "apply_filter", counted_filter)
    monkeypatch.setattr(harness, "TrafficStream", kept_stream)
    monkeypatch.setattr(harness, "BufferState", kept_buffer)
    p = PRESETS[preset]
    scenario = dataclasses.replace(p.scenario, **overrides)
    m = run_once(scenario, p.detector, p.id_method, seed=seed)
    (stream,), (buf,) = streams, buffers
    # generated: the slot-by-slot aggregates, drawn again after the run
    # (an unsplit slot uses no randomness)
    generated = sum(stream.slot(i).aggregate for i in range(scenario.n_slots))
    assert int(stream.totals.sum()) == generated
    assert buf._slot == scenario.n_slots
    if scenario.n_attack:
        assert sum(filtered) > 0
    assert buf.cumulative_offered == generated - sum(filtered)
    assert buf.cumulative_offered == (buf.cumulative_dropped + buf.cumulative_served
                                      + buf.occupancy)
    assert m.packets_dropped == buf.cumulative_dropped


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
    mon = RestorationMonitor(l1=40, baseline_rate=100.0, r=0.6, w_s=1.0,
                             ws_slots=10)
    hit = False
    for _ in range(10):
        hit = mon.update(0, 0)
    assert hit


def test_restoration_requires_sustained_low_occupancy():
    mon = RestorationMonitor(l1=40, baseline_rate=10.0, r=0.6, w_s=1.0,
                             ws_slots=10)
    for _ in range(9):
        assert not mon.update(0, 1)
    mon.update(50, 1)          # backlog spike resets the streak
    for _ in range(9):
        assert not mon.update(0, 1)
    assert mon.update(0, 1)


def test_restoration_requires_admitted_near_baseline():
    mon = RestorationMonitor(l1=40, baseline_rate=10.0, r=0.6, w_s=1.0,
                             ws_slots=10)
    # threshold sum is (1+0.6)*10*1 = 16 over the window; 2/slot = 20 > 16
    for _ in range(50):
        assert not mon.update(0, 2)
    for _ in range(20):
        restored = mon.update(0, 1)
    assert restored


def test_declare_restored_times_first_instant():
    def first_restored_slot(backlogs):
        mon = RestorationMonitor(l1=40, baseline_rate=10.0, r=0.6, w_s=1.0,
                                 ws_slots=10)
        return next((i + 1 for i, b in enumerate(backlogs) if mon.update(b, 0)), None)

    # 10 bad slots + 10-slot clean streak: restored 2.0 s in
    assert first_restored_slot([100] * 10 + [0] * 30) == 20
    assert first_restored_slot([100] * 20) is None


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
    assert s.ci95_halfwidth == pytest.approx(
        1.96 * sample_stddev(dts) / math.sqrt(len(dts)))


def test_run_batch_two_point_ci_closed_form():
    scenario, det, idm = small_run()
    stats, runs = run_batch(scenario, det, idm, n_runs=2, base_seed=13)
    vals = [float(r.detection_time) for r in runs]
    # sample stddev of two points is |a-b|/sqrt(2)
    expect = 1.96 * abs(vals[0] - vals[1]) / math.sqrt(2) / math.sqrt(2)
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
