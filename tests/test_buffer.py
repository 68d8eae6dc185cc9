"""Two-tier buffer invariants: conservation, bounds, fractional service."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddossim.buffer import BufferState, advance, step


def step_counts(buf, arrivals, service):
    """(admitted, dropped, served) of one step, from the cumulative counters."""
    dropped, served = buf.cumulative_dropped, buf.cumulative_served
    admitted = step(buf, arrivals, service)
    return admitted, buf.cumulative_dropped - dropped, buf.cumulative_served - served


def test_empty_buffer_serves_nothing():
    buf = BufferState(l1=40, l2=160)
    admitted, _, served = step_counts(buf, arrivals=10, service=15)
    assert served == 0
    assert admitted == 10
    assert buf.occupancy == 10


def test_saturated_buffer_drops_everything():
    buf = BufferState(l1=40, l2=160)
    step(buf, arrivals=200, service_per_slot=0)
    assert buf.occupancy == 200
    admitted, dropped, _ = step_counts(buf, arrivals=17, service=0)
    assert dropped == 17
    assert admitted == 0


def test_is_l1_full_boundaries():
    buf = BufferState(l1=40, l2=30000)
    step(buf, 39, 0)
    assert buf.occupancy == 39 < buf.l1
    step(buf, 1, 0)
    assert buf.occupancy == buf.l1
    # this slot's arrivals are not backlog until a slot of service passes
    assert not buf.is_l1_backlogged()
    step(buf, 30000, 0)
    assert buf.occupancy == 30040
    assert buf.is_l1_backlogged()


def test_conservation_under_random_arrivals():
    rng = np.random.default_rng(21)
    buf = BufferState(l1=40, l2=160)
    arrivals = rng.integers(0, 30, size=100_000)
    for a in arrivals:
        before = buf.occupancy
        admitted, dropped, served = step_counts(buf, int(a), 7.5)
        # per-slot conservation
        assert buf.occupancy == before - served + admitted
        assert admitted + dropped == a
        assert 0 <= buf.occupancy <= buf.capacity
    # cumulative conservation
    assert (buf.cumulative_offered
            == buf.cumulative_served + buf.cumulative_dropped + buf.occupancy)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
def test_conservation_property(arrivals, service):
    buf = BufferState(l1=10, l2=25)
    for a in arrivals:
        before = buf.occupancy
        admitted, dropped, served = step_counts(buf, a, service)
        assert buf.occupancy == before - served + admitted
        assert admitted + dropped == a
        assert 0 <= buf.occupancy <= buf.capacity
    assert (buf.cumulative_offered
            == buf.cumulative_served + buf.cumulative_dropped + buf.occupancy)


def test_drain_time_without_arrivals():
    buf = BufferState(l1=40, l2=160)
    step(buf, 100, 0)
    service = 7
    slots = 0
    while buf.occupancy > 0:
        step(buf, 0, service)
        slots += 1
    assert slots == math.ceil(100 / service)


def test_fractional_service_long_run_rate():
    # service 0.75/slot on a backlogged buffer must serve 3 packets per 4 slots
    buf = BufferState(l1=10, l2=10_000)
    step(buf, 8000, 0)
    for _ in range(4000):
        step(buf, 0, 0.75)
    assert buf.cumulative_served == 3000


def test_idle_capacity_not_banked():
    buf = BufferState(l1=10, l2=10)
    # 100 idle slots of service 5 must not accumulate a 500-packet credit
    for _ in range(100):
        step(buf, 0, 5)
    _, _, served = step_counts(buf, 12, 5)
    assert served == 0              # service precedes admission in the slot
    assert buf.occupancy == 12
    _, _, served = step_counts(buf, 0, 5)
    assert served == 5              # not 12


def test_fractional_remainder_carries_when_idle():
    buf = BufferState(l1=10, l2=10)
    # 0.5/slot over an empty buffer: the fraction carries, whole packets do not
    step(buf, 0, 0.5)
    step(buf, 1, 0.0)
    _, _, served = step_counts(buf, 0, 0.5)
    assert served == 1              # 0.5 carried + 0.5 = 1.0


def test_post_service_backlog_vs_raw_occupancy():
    buf = BufferState(l1=40, l2=160)
    # a single large arrival batch exceeds l1 at end of slot...
    step(buf, 100, 150)
    assert buf.occupancy >= buf.l1
    # ...but is fully cleared by one slot of service, so no backlog persists
    step(buf, 100, 150)
    assert not buf.is_l1_backlogged()
    # sustained overload does leave a post-service backlog
    for _ in range(5):
        step(buf, 100, 50)
    assert buf.is_l1_backlogged()


def test_peak_tracking():
    buf = BufferState(l1=5, l2=20)
    step(buf, 3, 0)
    step(buf, 10, 0)
    step(buf, 0, 100)
    assert buf.peak_occupancy == 13
    assert buf.peak_slot == 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        BufferState(0, 10)
    with pytest.raises(ValueError):
        BufferState(10, -1)


def test_step_input_validation():
    buf = BufferState(10, 10)
    with pytest.raises(ValueError):
        step(buf, -1, 1.0)
    with pytest.raises(ValueError):
        step(buf, 1, -1.0)


# ---------------------------------------------------------------------------
# bulk advance: the same state as step() slot by slot
# ---------------------------------------------------------------------------

def buffer_fields(buf):
    return {name: getattr(buf, name) for name in BufferState.__slots__}


def stepped(buf, arrivals, service, stop_at_l1):
    """advance() as a loop of step(): the slots stepped."""
    for n, count in enumerate(arrivals, 1):
        step(buf, count, service)
        if stop_at_l1 and buf.is_l1_backlogged():
            return n
    return len(arrivals)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.4, 0.8, 8.0, 150.0]),
       st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=200),
       st.lists(st.integers(min_value=0, max_value=300), max_size=60),
       st.lists(st.integers(min_value=0, max_value=300), max_size=300),
       st.booleans())
def test_advance_matches_repeated_step(service, l1, l2, warm, arrivals, stop_at_l1):
    bulk = BufferState(l1=l1, l2=l2)
    for count in warm:              # carried occupancy, credit, peak and slot
        step(bulk, count, service)
    reference = BufferState(l1=l1, l2=l2)
    for count in warm:
        step(reference, count, service)
    ran = advance(bulk, arrivals, service, stop_at_l1)
    assert ran == stepped(reference, arrivals, service, stop_at_l1)
    # every field, the float service credit and peak_slot included, exactly
    assert buffer_fields(bulk) == buffer_fields(reference)
    assert type(bulk._service_credit) is float


def test_advance_stops_at_the_first_backlogged_slot():
    buf = BufferState(l1=10, l2=100)
    # backlog after service: 0, 0, 12 (20 - 8), then it would keep growing
    assert advance(buf, [5, 20, 20, 20, 20], 8.0) == 3
    assert buf.post_service_occupancy == 12 and buf.occupancy == 32
    assert advance(buf, [], 8.0) == 0
    assert advance(buf, [20, 20], 8.0, stop_at_l1=False) == 2


def test_advance_input_validation():
    buf = BufferState(10, 10)
    with pytest.raises(ValueError):
        advance(buf, [1, -1], 1.0)
    with pytest.raises(ValueError):
        advance(buf, [1], -1.0)
    assert buffer_fields(buf) == buffer_fields(BufferState(10, 10))
