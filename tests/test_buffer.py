"""Two-tier buffer invariants: conservation, bounds, fractional service.

The per-slot rules are tests/reference.py's step() on a ReferenceBuffer;
run_ahead() and commit() must give what it gives over every slot of a
stretch, at the rate the buffer was built with."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddossim import buffer
from ddossim.buffer import BufferState, commit, run_ahead
from ddossim.harness import run_once
from ddossim.presets import PRESETS
from reference import ReferenceBuffer, step


def backlogged(buf):
    """The buffer-full signal: the backlog the last slot's service left is
    at or above l1."""
    return buf.post_service_occupancy >= buf.l1


def step_counts(buf, arrivals):
    """(admitted, dropped, served) of one step, from the cumulative counters."""
    dropped, served = buf.cumulative_dropped, buf.cumulative_served
    admitted = step(buf, arrivals)
    return admitted, buf.cumulative_dropped - dropped, buf.cumulative_served - served


def test_empty_buffer_serves_nothing():
    buf = ReferenceBuffer(l1=40, l2=160, service_per_slot=15)
    admitted, _, served = step_counts(buf, arrivals=10)
    assert served == 0
    assert admitted == 10
    assert buf.occupancy == 10


def test_saturated_buffer_drops_everything():
    buf = ReferenceBuffer(l1=40, l2=160, service_per_slot=0)
    step(buf, arrivals=200)
    assert buf.occupancy == 200
    admitted, dropped, _ = step_counts(buf, arrivals=17)
    assert dropped == 17
    assert admitted == 0


def test_is_l1_full_boundaries():
    buf = ReferenceBuffer(l1=40, l2=30000, service_per_slot=0)
    step(buf, 39)
    assert buf.occupancy == 39 < buf.l1
    step(buf, 1)
    assert buf.occupancy == buf.l1
    # this slot's arrivals are not backlog until a slot of service passes
    assert not backlogged(buf)
    step(buf, 30000)
    assert buf.occupancy == 30040
    assert backlogged(buf)


def test_conservation_under_random_arrivals():
    rng = np.random.default_rng(21)
    buf = ReferenceBuffer(l1=40, l2=160, service_per_slot=7.5)
    arrivals = rng.integers(0, 30, size=100_000)
    for a in arrivals:
        before = buf.occupancy
        admitted, dropped, served = step_counts(buf, int(a))
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
    buf = ReferenceBuffer(l1=10, l2=25, service_per_slot=service)
    for a in arrivals:
        before = buf.occupancy
        admitted, dropped, served = step_counts(buf, a)
        assert buf.occupancy == before - served + admitted
        assert admitted + dropped == a
        assert 0 <= buf.occupancy <= buf.capacity
    assert (buf.cumulative_offered
            == buf.cumulative_served + buf.cumulative_dropped + buf.occupancy)


def test_drain_time_without_arrivals():
    service = 7
    buf = ReferenceBuffer(l1=40, l2=160, service_per_slot=service)
    step(buf, 100)                  # an empty buffer serves nothing first
    slots = 0
    while buf.occupancy > 0:
        step(buf, 0)
        slots += 1
    assert slots == math.ceil(100 / service)


def test_fractional_service_long_run_rate():
    # service 0.75/slot on a backlogged buffer must serve 3 packets per 4
    # slots: the slot that admits the backlog serves nothing but carries 0.75
    buf = ReferenceBuffer(l1=10, l2=10_000, service_per_slot=0.75)
    step(buf, 8000)
    for _ in range(3999):
        step(buf, 0)
    assert buf.cumulative_served == 3000


def test_idle_capacity_not_banked():
    buf = ReferenceBuffer(l1=10, l2=10, service_per_slot=5)
    # 100 idle slots of service 5 must not accumulate a 500-packet credit
    for _ in range(100):
        step(buf, 0)
    _, _, served = step_counts(buf, 12)
    assert served == 0              # service precedes admission in the slot
    assert buf.occupancy == 12
    _, _, served = step_counts(buf, 0)
    assert served == 5              # not 12


def test_fractional_remainder_carries_when_idle():
    buf = ReferenceBuffer(l1=10, l2=10, service_per_slot=0.5)
    # 0.5/slot over an empty buffer: the fraction carries, whole packets do not
    step(buf, 1)
    _, _, served = step_counts(buf, 0)
    assert served == 1              # 0.5 carried + 0.5 = 1.0


def test_post_service_backlog_vs_raw_occupancy():
    buf = ReferenceBuffer(l1=40, l2=160, service_per_slot=150)
    # a single large arrival batch exceeds l1 at end of slot...
    step(buf, 100)
    assert buf.occupancy >= buf.l1
    # ...but is fully cleared by one slot of service, so no backlog persists
    step(buf, 100)
    assert not backlogged(buf)
    # sustained overload does leave a post-service backlog
    buf = ReferenceBuffer(l1=40, l2=160, service_per_slot=50)
    for _ in range(5):
        step(buf, 100)
    assert backlogged(buf)


def test_peak_tracking():
    buf = ReferenceBuffer(l1=5, l2=20, service_per_slot=0.4)
    step(buf, 3)
    step(buf, 10)
    step(buf, 0)                    # the credit reaches 1.2: one packet served
    assert buf.occupancy == 12
    assert buf.peak_occupancy == 13
    assert buf.peak_slot == 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        BufferState(0, 10, 1.0)
    with pytest.raises(ValueError):
        BufferState(10, -1, 1.0)


def test_step_input_validation():
    buf = ReferenceBuffer(10, 10, 1.0)
    with pytest.raises(ValueError):
        step(buf, -1)
    with pytest.raises(ValueError):
        ReferenceBuffer(10, 10, -1.0)


# ---------------------------------------------------------------------------
# stretches: run_ahead() and commit() against step() slot by slot
# ---------------------------------------------------------------------------

def buffer_fields(buf):
    return {name: getattr(buf, name) for name in BufferState.__slots__}


def assert_same_state(buf, reference):
    # every BufferState field, peak_slot included, exactly, and of the same
    # type: no numpy scalar may leak into the state
    assert buffer_fields(buf) == buffer_fields(reference)
    assert ({name: type(v) for name, v in buffer_fields(buf).items()}
            == {name: type(v) for name, v in buffer_fields(reference).items()})


def warmed(l1, l2, warm, service):
    buf = ReferenceBuffer(l1=l1, l2=l2, service_per_slot=service)
    for count in warm:              # carried occupancy, credit, peak and slot
        step(buf, count)
    return buf


def assert_stretch_matches_step(bulk, reference, arrivals):
    """run_ahead() from bulk against step() on reference, slot by slot: each
    slot's admitted count, backlog and occupancy, which follow from its
    capacity; state unchanged."""
    stretch = run_ahead(bulk, np.array(arrivals, dtype=np.int64))
    assert_same_state(bulk, reference)      # the pass leaves the state alone
    admitted, backlogs, occupancies = [], [], []
    for count in arrivals:
        admitted.append(step(reference, count))
        backlogs.append(reference.post_service_occupancy)
        occupancies.append(reference.occupancy)
    assert stretch.admitted.tolist() == admitted
    assert stretch.backlog.tolist() == backlogs
    assert stretch.occupancy.tolist() == occupancies
    return stretch


# one rate per buffer, which warms at the rate it was built with
SERVICE = st.sampled_from([0.4, 0.8, 8.0, 150.0])

# l2 of 0 or 5 fills the buffer often, and counts up to 12 meet its walls
# exactly, so both regimes and the switches between them are drawn
L2 = st.sampled_from([0, 5]) | st.integers(min_value=0, max_value=200)
COUNTS = st.lists(st.integers(min_value=0, max_value=300)
                  | st.integers(min_value=0, max_value=12), max_size=300)
STRETCHES = given(SERVICE, st.integers(min_value=1, max_value=40), L2,
                  st.lists(st.integers(min_value=0, max_value=300), max_size=60), COUNTS,
                  st.data())


def check_commit_matches_repeated_step(service, l1, l2, warm, arrivals, data):
    bulk = warmed(l1, l2, warm, service)
    reference = warmed(l1, l2, warm, service)
    stretch = run_ahead(bulk, np.array(arrivals, dtype=np.int64))
    assert_same_state(bulk, reference)      # the pass leaves the state alone
    k = data.draw(st.integers(min_value=0, max_value=len(arrivals)), label="k")
    commit(bulk, stretch, k)
    for count in arrivals[:k]:
        step(reference, count)
    assert_same_state(bulk, reference)


@settings(max_examples=300, deadline=None)
@STRETCHES
def test_commit_matches_repeated_step(service, l1, l2, warm, arrivals, data):
    check_commit_matches_repeated_step(service, l1, l2, warm, arrivals, data)


@pytest.mark.slow
@settings(max_examples=3000, deadline=None)
@STRETCHES
def test_commit_matches_repeated_step_many(service, l1, l2, warm, arrivals, data):
    check_commit_matches_repeated_step(service, l1, l2, warm, arrivals, data)


@settings(max_examples=300, deadline=None)
@given(SERVICE, st.integers(min_value=1, max_value=40), L2,
       st.lists(st.integers(min_value=0, max_value=300), max_size=60), COUNTS)
def test_run_ahead_gives_what_step_gives_each_slot(service, l1, l2, warm, arrivals):
    assert_stretch_matches_step(warmed(l1, l2, warm, service),
                                warmed(l1, l2, warm, service), arrivals)


@pytest.mark.parametrize("service", [0.8, 7.3])
@pytest.mark.parametrize("warm", [4000, 4200])
def test_stretch_past_the_cached_table(service, warm):
    # the first table cached for a rate holds 4096 slots: a stretch from
    # slot 4000 crosses its end, one from slot 4200 starts past it, and
    # each reads a longer table; each slot and the state after commit()
    # against step()
    rng = np.random.default_rng(warm)
    warm_counts = rng.integers(0, 3 * service + 3, warm).tolist()
    bulk = warmed(10, 5, warm_counts, service)
    reference = warmed(10, 5, warm_counts, service)
    arrivals = rng.integers(0, 3 * service + 3, 300).tolist()
    stretch = assert_stretch_matches_step(bulk, reference, arrivals)
    commit(bulk, stretch, len(arrivals))
    assert_same_state(bulk, reference)
    assert bulk._slot == warm + 300 > buffer._TABLE_SLOTS


def test_run_ahead_through_both_regimes():
    # capacity 10, service 3: slot 1 fills the buffer (4 dropped), slots 2-5
    # serve all 3 (6 more dropped in slot 2), slot 6 finds 1 queued and
    # admits 10 of 12
    buf = BufferState(l1=10, l2=0, service_per_slot=3.0)
    stretch = run_ahead(buf, np.array([8, 9, 9, 0, 0, 0, 12]))
    assert stretch.backlog.tolist() == [0, 5, 7, 7, 4, 1, 0]
    assert stretch.occupancy.tolist() == [8, 10, 10, 7, 4, 1, 10]
    assert stretch.admitted.tolist() == [8, 5, 3, 0, 0, 0, 10]
    commit(buf, stretch, 7)
    assert (buf.cumulative_offered, buf.cumulative_served, buf.cumulative_dropped) == (38, 16, 12)
    assert (buf.peak_occupancy, buf.peak_slot, buf._slot) == (10, 1, 7)
    assert stretch.backlog[-1] < buf.l1 and buf.occupancy == 10


def test_runs_with_two_service_rates_do_not_share_a_table():
    # sim2 serves 0.8 packets a slot and sim1 150; each rate has its own
    # cached sequence, so a run gives the row a fresh process gives
    def row(name):
        p = PRESETS[name]
        return run_once(p.scenario, p.detector, p.id_method, seed=3).as_row()

    rows = [row(name) for name in ("sim2", "sim1", "sim2")]
    fresh = []
    for name in ("sim2", "sim1", "sim2"):
        buffer._service_table.cache_clear()
        fresh.append(row(name))
    assert rows == fresh


def test_run_ahead_input_validation():
    buf = BufferState(10, 10, 1.0)
    with pytest.raises(ValueError):
        run_ahead(buf, np.array([1, -1]))
    # the rate is checked once, when the buffer is built: a NaN would pass
    # a `< 0` test, and neither it nor an infinity has whole capacities
    for rate in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="service_per_slot must be finite and >= 0"):
            BufferState(10, 10, rate)
    stretch = run_ahead(buf, np.array([1, 2]))
    for k in (-1, 3):
        with pytest.raises(ValueError):
            commit(buf, stretch, k)
    assert buffer_fields(buf) == buffer_fields(BufferState(10, 10, 1.0))


def test_run_ahead_raises_rather_than_wraps():
    # 100 slots at 1e17 packets a slot serve 1e19, past int64: the stretch's
    # prefix sums would wrap, and the buffer admit -9.1e18 packets
    buf = BufferState(10, 10, 1e17)
    with pytest.raises(OverflowError, match="int64"):
        run_ahead(buf, np.full(100, 5))
    assert buffer_fields(buf) == buffer_fields(BufferState(10, 10, 1e17))
    # 40 slots serve 4e18, within SERVICE_SUM_LIMIT: exact, slot by slot
    assert 40 * 1e17 < buffer.SERVICE_SUM_LIMIT < 100 * 1e17
    stretch = assert_stretch_matches_step(buf, ReferenceBuffer(10, 10, 1e17), [5] * 40)
    assert stretch.admitted.tolist() == [5] * 40 and not stretch.backlog.any()
