"""Two-tier FIFO buffer with deterministic per-slot service.

The buffer has a normal-operation tier of size l1 and an excess tier of
size l2; occupancy at or above l1 is the overload signal the buffer-full
detector watches.  Within a slot, service happens before admission, and a
fractional service credit keeps the long-run served rate equal to
mu * slot_dt even when that product is not an integer.
"""

from __future__ import annotations

__all__ = ["BufferState", "step", "advance"]


class BufferState:
    __slots__ = ("l1", "l2", "occupancy", "post_service_occupancy",
                 "cumulative_offered", "cumulative_served",
                 "cumulative_dropped", "peak_occupancy", "peak_slot",
                 "_service_credit", "_slot")

    def __init__(self, l1: int, l2: int):
        if l1 <= 0 or l2 < 0:
            raise ValueError("buffer tiers must satisfy l1 > 0 and l2 >= 0")
        self.l1 = l1
        self.l2 = l2
        self.occupancy = 0
        self.post_service_occupancy = 0
        self.cumulative_offered = 0
        self.cumulative_served = 0
        self.cumulative_dropped = 0
        self.peak_occupancy = 0
        self.peak_slot = 0
        self._service_credit = 0.0
        self._slot = 0

    @property
    def capacity(self) -> int:
        return self.l1 + self.l2

    def is_l1_backlogged(self) -> bool:
        """Occupancy net of the last slot's service still at or above l1.

        At coarse slot sizes a single slot's arrival batch can exceed l1 on
        its own even in normal operation; the backlog that survives a full
        slot of service is the persistent-overload signal.  With very small
        slots this coincides with occupancy >= l1.
        """
        return self.post_service_occupancy >= self.l1

    def __repr__(self) -> str:
        return (f"BufferState(occupancy={self.occupancy}, l1={self.l1}, l2={self.l2}, "
                f"served={self.cumulative_served}, dropped={self.cumulative_dropped})")


def step(state: BufferState, arrivals: int, service_per_slot: float) -> int:
    """Advance the buffer by one slot: serve, then admit, then account.

    Returns the packets admitted.  Conservation: occupancy after the slot
    is occupancy before - served + admitted, and admitted + dropped =
    arrivals; the state's cumulative counters carry served and dropped.
    """
    if arrivals < 0:
        raise ValueError("arrivals must be >= 0")
    if service_per_slot < 0:
        raise ValueError("service_per_slot must be >= 0")

    credit = state._service_credit + service_per_slot
    served = min(state.occupancy, int(credit))
    state.occupancy -= served
    if state.occupancy == 0:
        # idle capacity is not banked; only the fractional remainder carries
        credit -= int(credit)
    else:
        credit -= served
    state._service_credit = credit
    state.post_service_occupancy = state.occupancy

    room = state.capacity - state.occupancy
    admitted = arrivals if arrivals <= room else room
    dropped = arrivals - admitted
    state.occupancy += admitted

    state.cumulative_offered += arrivals
    state.cumulative_served += served
    state.cumulative_dropped += dropped
    if state.occupancy > state.peak_occupancy:
        state.peak_occupancy = state.occupancy
        state.peak_slot = state._slot
    state._slot += 1
    return admitted


def advance(state: BufferState, arrivals: list[int], service_per_slot: float,
            stop_at_l1: bool = True) -> int:
    """step() over each count of arrivals in turn; the slots advanced.

    With stop_at_l1 it stops after the first slot whose backlog (occupancy
    net of that slot's service) is at or above l1, the buffer-full signal.
    The same arithmetic as step(), run on locals and written back once.
    """
    if arrivals and min(arrivals) < 0:
        raise ValueError("arrivals must be >= 0")
    if service_per_slot < 0:
        raise ValueError("service_per_slot must be >= 0")

    l1 = state.l1
    capacity = state.capacity
    occupancy = state.occupancy
    post = state.post_service_occupancy
    credit = state._service_credit
    offered = served_total = dropped = 0
    peak, peak_slot, slot = state.peak_occupancy, state.peak_slot, state._slot
    for count in arrivals:
        credit += service_per_slot
        whole = int(credit)
        served = occupancy if occupancy < whole else whole
        occupancy -= served
        if occupancy == 0:
            credit -= whole
        else:
            credit -= served
        post = occupancy
        room = capacity - occupancy
        admitted = count if count <= room else room
        occupancy += admitted
        offered += count
        served_total += served
        dropped += count - admitted
        if occupancy > peak:
            peak = occupancy
            peak_slot = slot
        slot += 1
        if stop_at_l1 and post >= l1:
            break

    state.occupancy = occupancy
    state.post_service_occupancy = post
    state._service_credit = credit
    state.cumulative_offered += offered
    state.cumulative_served += served_total
    state.cumulative_dropped += dropped
    state.peak_occupancy = peak
    state.peak_slot = peak_slot
    ran = slot - state._slot
    state._slot = slot
    return ran
