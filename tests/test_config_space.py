"""A config that can be made runs: run_once over drawn pairs of configs.

Hypothesis draws a scenario and a detector config over their fields:
source counts 0-200 and their rates, a slot size that tiles a second with
times and windows on its grid, every non-empty subset of the methods and
both identification methods, in runs of at most 1000 slots; half the
pairs then have one field redrawn, out of its range, off the grid or of
the wrong type, which the test puts in.  Either the config cannot be
made, with a ValueError that names a field; or check_configs rejects the
pair with such an error, and run_once raises the very same error; or
run_once returns a row that passes the benchmark's row invariants and a
buffer whose packets are conserved.  Rates whose runs would expect more
than RUN_PACKETS_LIMIT packets, runs of more than RUN_SLOTS_LIMIT slots,
and more than RUN_SOURCES_LIMIT sources are drawn apart, and no config
of them can be made.
"""

import dataclasses
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from ddossim import harness
from ddossim.buffer import BufferState
from ddossim.detector import ALL_METHODS, DetectorConfig, Method
from ddossim.harness import check_configs, run_once
from ddossim.presets import PRESETS
from ddossim.traffic import (RUN_PACKETS_LIMIT, RUN_SLOTS_LIMIT, RUN_SOURCES_LIMIT,
                             ScenarioConfig, TrafficStream)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from golden import invariant_errors, normalize  # noqa: E402

FIELDS = sorted({f.name for f in dataclasses.fields(ScenarioConfig)}
                | {f.name for f in dataclasses.fields(DetectorConfig)})
NAMES_A_FIELD = re.compile(r"\b(%s)\b" % "|".join(FIELDS))

# slot sizes that tile a second
SLOT_DTS = [1.0, 0.5, 0.25, 0.2, 0.1]


def seconds(hi):
    """A span of whole seconds, on every grid of SLOT_DTS, or any span."""
    return st.one_of(st.integers(0, hi).map(float), st.floats(0.0, hi))


def count(lo, hi):
    """A count in [lo, hi], or True, a bool, which is no count."""
    return st.one_of(st.integers(lo, hi), st.just(True))


# values of a float field that are no real numbers: a string, None and a bool
NOT_REALS = ["8", None, True]


def real(values):
    """A value of a float field drawn from values, or one of NOT_REALS."""
    return st.one_of(values, st.sampled_from(NOT_REALS))


# methods that are none or not Methods
NOT_METHODS = [(), Method.RATIO, "ratio", ("statistical", "ratio")]

# a value for one field that may break the pair: out of range, off the
# grid, too long for the warm-up to end before the onset, a slot size that
# does not tile a second, a bool in an int field, one of NOT_REALS in a
# float field, or methods from NOT_METHODS (a list of Methods runs)
BROKEN = {
    "w_s": real(seconds(20)), "w_l": real(seconds(100)), "c": real(seconds(100)),
    "r": real(st.floats(-1.0, 1.0)), "alpha": real(st.floats(0.0, 1.0)),
    "baseline_len": count(0, 60),
    "t_star": real(seconds(30)), "attack_end": real(seconds(100)),
    "lambda_n": real(st.floats(-1.0, 1.0)), "lambda_a": real(st.floats(-1.0, 1.0)),
    "mu": real(st.floats(-1.0, 1.0)), "l1": count(-2, 2), "l2": count(-2, 2),
    "slot_dt": st.sampled_from([0.15, 0.3, 0.7, 2.0]),
    "methods": st.one_of(st.sampled_from(NOT_METHODS),
                         st.lists(st.sampled_from(ALL_METHODS), min_size=1)),
}


# service rates on a decimal grid: the buffer serves mu * slot_dt as
# written, and a float of 16 or 17 digits is mostly too precise for its
# int64 capacity sums
MU = st.integers(50, 100_000).map(lambda k: k / 100)


@st.composite
def config_pairs(draw):
    """A pair that runs, in at most 1000 slots, the field of it to break
    and its value from BROKEN, or None and None, an identification method
    and a run seed."""
    slot_dt = draw(st.sampled_from(SLOT_DTS))
    per_second = round(1 / slot_dt)
    methods = draw(st.sets(st.sampled_from(ALL_METHODS), min_size=1))
    statistical = Method.STATISTICAL in methods
    # windows in slots; the statistical method takes whole seconds, and
    # w_s of two at least
    unit = per_second if statistical else 1
    ws = unit * draw(st.integers(2 if statistical else 1, 10))
    wl = ws + draw(st.integers(1, 40))
    c = ws + unit * draw(st.integers(0, 10))
    baseline_len = draw(st.integers(8, 20))
    warm = max(wl, c + baseline_len * per_second if statistical else 0)
    t_star = warm + draw(st.integers(1, 100))
    attack_end = t_star + draw(st.integers(1, 200))
    n_slots = attack_end + draw(st.integers(0, 200))
    scenario = ScenarioConfig(
        n_legal=draw(st.integers(0, 200)), n_attack=draw(st.integers(0, 200)),
        lambda_n=draw(st.floats(0.01, 5.0)), lambda_a=draw(st.floats(0.01, 10.0)),
        mu=draw(MU),
        l1=draw(st.integers(1, 100)), l2=draw(st.integers(0, 200)),
        t_star=t_star * slot_dt, attack_end=attack_end * slot_dt,
        total_duration=n_slots * slot_dt, slot_dt=slot_dt)
    detector = DetectorConfig(
        w_s=ws * slot_dt, w_l=wl * slot_dt, r=draw(st.floats(0.05, 2.0)), c=c * slot_dt,
        alpha=draw(st.sampled_from([0.01, 0.05, 0.2])), baseline_len=baseline_len,
        methods=tuple(m for m in ALL_METHODS if m in methods))
    broken = draw(st.sampled_from([None] * len(BROKEN) + sorted(BROKEN)))
    value = None if broken is None else draw(BROKEN[broken])
    return (scenario, detector, broken, value, draw(st.sampled_from(["greedy", "history"])),
            draw(st.integers(0, 2 ** 32)))


def assert_runs_or_is_rejected(scenario, detector, broken, value, id_method, seed):
    if broken is not None:
        try:
            if hasattr(scenario, broken):
                scenario = dataclasses.replace(scenario, **{broken: value})
            else:
                detector = dataclasses.replace(detector, **{broken: value})
        except ValueError as err:
            event("rejected when made")
            assert NAMES_A_FIELD.search(str(err)), f"no field named in {err}"
            return
    try:
        check_configs(scenario, detector)
    except ValueError as err:
        event("rejected")
        assert NAMES_A_FIELD.search(str(err)), f"no field named in {err}"
        with pytest.raises(ValueError) as got:
            run_once(scenario, detector, id_method, seed)
        assert str(got.value) == str(err)
        return
    event("runs")
    streams, buffers = [], []

    class KeptStream(TrafficStream):
        def __init__(self, *args):
            super().__init__(*args)
            streams.append(self)

    class KeptBuffer(BufferState):
        def __init__(self, *args):
            super().__init__(*args)
            buffers.append(self)

    with mock.patch.object(harness, "TrafficStream", KeptStream), \
            mock.patch.object(harness, "BufferState", KeptBuffer):
        m = run_once(scenario, detector, id_method, seed)
    assert invariant_errors(normalize(m.as_row()), seed) == []
    (stream,), (buf,) = streams, buffers
    assert buf._slot == scenario.n_slots
    # the filter only drops packets, and every packet offered was served,
    # dropped or is still queued
    assert buf.cumulative_offered <= int(stream.totals.sum())
    assert buf.cumulative_offered == (buf.cumulative_served + buf.cumulative_dropped
                                      + buf.occupancy)
    assert m.packets_dropped == buf.cumulative_dropped
    assert m.max_buffer_level == buf.peak_occupancy <= buf.capacity


SIM2 = PRESETS["sim2"]


def with_pair_examples(test):
    # sim2 with a long window, and with a statistical warm-up, that ends
    # at the onset: each config is valid alone, and the pair is not
    for detector in (dict(w_l=100.0), dict(baseline_len=55)):
        pair = (SIM2.scenario, dataclasses.replace(SIM2.detector, **detector), None, None,
                SIM2.id_method, 0)
        test = example(pair)(test)
    # sim2 with each broken value that a seed's draws may miss: every value
    # of NOT_METHODS, a bool as a count, a string, None or a bool as a real
    # number, an int past the float range, which has no finite float value,
    # in a scenario and a detector field, an int count past any run, and a
    # mu too precise for the buffer's int64 capacity sums
    for broken, value in [*(("methods", m) for m in NOT_METHODS),
                          ("n_attack", True), ("l1", True), ("baseline_len", True),
                          ("mu", "8"), ("lambda_n", None), ("lambda_n", True), ("r", "0.6"),
                          ("mu", 10 ** 400), ("r", 10 ** 400), ("baseline_len", 10 ** 400),
                          ("mu", 0.1 + 0.2)]:
        test = example((SIM2.scenario, SIM2.detector, broken, value, SIM2.id_method, 0))(test)
    return test


@with_pair_examples
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config_pairs())
def test_config_space_runs_or_is_rejected(pair):
    assert_runs_or_is_rejected(*pair)


@pytest.mark.slow
@with_pair_examples
@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config_pairs())
def test_config_space_runs_or_is_rejected_many(pair):
    assert_runs_or_is_rejected(*pair)


@settings(max_examples=100, deadline=None)
@given(rate=st.sampled_from(["lambda_n", "lambda_a"]), n_legal=st.integers(1, 200),
       n_attack=st.integers(1, 200), excess=st.floats(1.001, 1e250))
def test_traffic_past_the_packet_limit_is_rejected_unrun(rate, n_legal, n_attack, excess):
    # sim2's times, with one class's rate raised until the run expects
    # `excess` times RUN_PACKETS_LIMIT packets, the other class as preset
    s = dataclasses.replace(SIM2.scenario, n_legal=n_legal, n_attack=n_attack)
    legal = n_legal * s.lambda_n * s.total_duration
    attack = n_attack * s.lambda_a * (s.attack_end - s.t_star)
    target = RUN_PACKETS_LIMIT * excess
    value = ((target - attack) / (n_legal * s.total_duration) if rate == "lambda_n"
             else (target - legal) / (n_attack * (s.attack_end - s.t_star)))
    with pytest.raises(ValueError) as got:
        dataclasses.replace(s, **{rate: value})
    err = str(got.value)
    assert f"{rate}={value}" in err
    assert f"{RUN_PACKETS_LIMIT:.0e} a run may hold" in err


@settings(max_examples=100, deadline=None)
@given(slot_dt=st.sampled_from(SLOT_DTS + [1e-3, 1e-6]), excess=st.integers(1, 10 ** 12))
def test_slots_past_the_limit_are_rejected_unrun(slot_dt, excess):
    # sim2 at 1e-3 pkt/s a source, `excess` slots past RUN_SLOTS_LIMIT and
    # never shorter than its 300 s, which at a microsecond slot are 3e8
    n_slots = max(RUN_SLOTS_LIMIT + excess, round(SIM2.scenario.total_duration / slot_dt))
    with pytest.raises(ValueError) as got:
        dataclasses.replace(SIM2.scenario, lambda_n=1e-3, lambda_a=1e-3, mu=1.0,
                            slot_dt=slot_dt, total_duration=n_slots * slot_dt)
    err = str(got.value)
    assert f"total_duration={n_slots * slot_dt} at slot_dt={slot_dt}" in err
    assert f"{RUN_SLOTS_LIMIT:.0e} a run may hold" in err


@settings(max_examples=100, deadline=None)
@given(excess=st.integers(1, 10 ** 12), legal_share=st.floats(0.0, 1.0))
def test_sources_past_the_limit_are_rejected_unrun(excess, legal_share):
    # sim2 with `excess` sources past RUN_SOURCES_LIMIT, shared between the
    # classes, each at 1e-9 pkt/s a source, so the run expects at most
    # some 3e5 packets, inside RUN_PACKETS_LIMIT
    total = RUN_SOURCES_LIMIT + excess
    n_legal = round(legal_share * total)
    with pytest.raises(ValueError) as got:
        dataclasses.replace(SIM2.scenario, n_legal=n_legal, n_attack=total - n_legal,
                            lambda_n=1e-9, lambda_a=1e-9)
    err = str(got.value)
    assert f"n_legal={n_legal} and n_attack={total - n_legal} are {total} sources" in err
    assert f"{RUN_SOURCES_LIMIT:.0e} a run may hold" in err
