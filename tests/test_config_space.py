"""A config that validates runs: run_once over drawn pairs of configs.

Hypothesis draws a scenario and a detector config over their fields:
source counts 0-200 and their rates, a slot size that tiles a second with
times and windows on its grid, every non-empty subset of the methods and
both identification methods, in runs of at most 1000 slots; half the
pairs then have one field redrawn, out of its range or off the grid.
Either check_configs rejects the pair with a ValueError that names a
field, and run_once raises the very same error, or run_once returns a
row that passes the benchmark's row invariants and a buffer whose packets
are conserved.  Rates whose runs would expect more than RUN_PACKETS_LIMIT
packets, and runs of more than RUN_SLOTS_LIMIT slots, are drawn apart and
must be rejected before a single draw.
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
from ddossim.traffic import RUN_PACKETS_LIMIT, RUN_SLOTS_LIMIT, ScenarioConfig, TrafficStream

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


# a value for one field that may break the pair: out of range, off the
# grid, too long for the warm-up to end before the onset, or a slot size
# that does not tile a second
BROKEN = {
    "w_s": seconds(20), "w_l": seconds(100), "c": seconds(100),
    "r": st.floats(-1.0, 1.0), "alpha": st.floats(0.0, 1.0),
    "baseline_len": st.integers(0, 60),
    "t_star": seconds(30), "attack_end": seconds(100),
    "lambda_n": st.floats(-1.0, 1.0), "lambda_a": st.floats(-1.0, 1.0),
    "mu": st.floats(-1.0, 1.0), "l1": st.integers(-2, 2), "l2": st.integers(-2, 2),
    "slot_dt": st.sampled_from([0.15, 0.3, 0.7, 2.0]),
}


@st.composite
def config_pairs(draw):
    """A pair that runs, in at most 1000 slots, or that pair with one
    field drawn from BROKEN, an identification method and a run seed."""
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
        mu=draw(st.floats(0.5, 1000.0)),
        l1=draw(st.integers(1, 100)), l2=draw(st.integers(0, 200)),
        t_star=t_star * slot_dt, attack_end=attack_end * slot_dt,
        total_duration=n_slots * slot_dt, slot_dt=slot_dt)
    detector = DetectorConfig(
        w_s=ws * slot_dt, w_l=wl * slot_dt, r=draw(st.floats(0.05, 2.0)), c=c * slot_dt,
        alpha=draw(st.sampled_from([0.01, 0.05, 0.2])), baseline_len=baseline_len,
        methods=tuple(m for m in ALL_METHODS if m in methods))
    broken = draw(st.sampled_from([None] * len(BROKEN) + sorted(BROKEN)))
    if broken is not None:
        value = draw(BROKEN[broken])
        if hasattr(scenario, broken):
            scenario = dataclasses.replace(scenario, **{broken: value})
        else:
            detector = dataclasses.replace(detector, **{broken: value})
    return (scenario, detector, draw(st.sampled_from(["greedy", "history"])),
            draw(st.integers(0, 2 ** 32)))


def assert_runs_or_is_rejected(scenario, detector, id_method, seed):
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
        pair = SIM2.scenario, dataclasses.replace(SIM2.detector, **detector), SIM2.id_method, 0
        test = example(pair)(test)
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


class NoDraws:
    """A generator that fails the test if anything is drawn from it."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} called on the generator of a rejected config")


class Undrawn(TrafficStream):
    def __init__(self, config, rng, split_rng):
        super().__init__(config, NoDraws(), NoDraws())


def assert_rejected_unrun(scenario, detector, id_method):
    """check_configs rejects the pair, and a stream and run_once raise the
    same error with generators that fail the test if drawn from; return
    the error's message."""
    with pytest.raises(ValueError) as err:
        check_configs(scenario, detector)
    with pytest.raises(ValueError) as got:
        Undrawn(scenario, None, None)
    assert str(got.value) == str(err.value)
    with mock.patch.object(harness, "TrafficStream", Undrawn), pytest.raises(ValueError) as got:
        run_once(scenario, detector, id_method)
    assert str(got.value) == str(err.value)
    return str(err.value)


@settings(max_examples=100, deadline=None)
@given(rate=st.sampled_from(["lambda_n", "lambda_a"]), n_legal=st.integers(1, 200),
       n_attack=st.integers(1, 200), excess=st.floats(1.001, 1e250))
def test_traffic_past_the_packet_limit_is_rejected_unrun(rate, n_legal, n_attack, excess):
    # sim2's times, with one class's rate raised until the run expects
    # `excess` times RUN_PACKETS_LIMIT packets, the other class as preset
    p = SIM2
    s = dataclasses.replace(p.scenario, n_legal=n_legal, n_attack=n_attack)
    legal = n_legal * s.lambda_n * s.total_duration
    attack = n_attack * s.lambda_a * (s.attack_end - s.t_star)
    target = RUN_PACKETS_LIMIT * excess
    scenario = dataclasses.replace(s, **(
        {"lambda_n": (target - attack) / (n_legal * s.total_duration)} if rate == "lambda_n"
        else {"lambda_a": (target - legal) / (n_attack * (s.attack_end - s.t_star))}))
    err = assert_rejected_unrun(scenario, p.detector, p.id_method)
    assert f"{rate}={getattr(scenario, rate)}" in err
    assert f"{RUN_PACKETS_LIMIT:.0e} a run may hold" in err


@settings(max_examples=100, deadline=None)
@given(slot_dt=st.sampled_from(SLOT_DTS + [1e-3, 1e-6]), excess=st.integers(1, 10 ** 12))
def test_slots_past_the_limit_are_rejected_unrun(slot_dt, excess):
    # sim2 at 1e-3 pkt/s a source, `excess` slots past RUN_SLOTS_LIMIT and
    # never shorter than its 300 s, which at a microsecond slot are 3e8
    p = SIM2
    n_slots = max(RUN_SLOTS_LIMIT + excess, round(p.scenario.total_duration / slot_dt))
    scenario = dataclasses.replace(p.scenario, lambda_n=1e-3, lambda_a=1e-3, mu=1.0,
                                   slot_dt=slot_dt, total_duration=n_slots * slot_dt)
    err = assert_rejected_unrun(scenario, p.detector, p.id_method)
    assert f"total_duration={scenario.total_duration} at slot_dt={slot_dt}" in err
    assert f"{RUN_SLOTS_LIMIT:.0e} a run may hold" in err
