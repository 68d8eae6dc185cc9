"""Two-tier FIFO buffer with deterministic per-slot service.

The buffer has a normal-operation tier of size l1 and an excess tier of
size l2; occupancy at or above l1 is the overload signal the buffer-full
detector watches.  A buffer serves at one rate, service_per_slot = mu *
slot_dt, fixed when it is built.  Within a slot, service happens before
admission, and a fractional service credit keeps the long-run served rate
equal to that rate even when it is not an integer.

run_ahead() runs a stretch of slots at once and commit() leaves the state
as the per-slot rules (tests/reference.py's step) over any prefix of them
leave it.  Two facts make the stretch exact in int64:

- Service does not depend on arrivals.  A slot's whole capacity is
  int(credit), and the credit keeps only its fractional part whether or
  not the buffer empties (when it does not, exactly int(credit) was
  served).  So the capacity of every slot follows from the rate and the
  slot index alone: one read-only table is cached per rate, and a
  stretch is a slice of it at the state's slot.
- Between the two walls the backlog is a Lindley recursion (Lindley 1952)
  on prefix sums.  With S_k = occupancy + sum(a[:k]) - sum(w[:k + 1]) for
  arrivals a and capacities w, the backlog after slot k's service is
  S_k - min(0, min(S[:k + 1])) up to the first slot whose admission would
  pass l1 + l2.  From there the buffer serves its whole capacity each
  slot, and its occupancy is V_k - max(0, max(V[:k + 1] - l1 - l2)) for
  V_k = occupancy + sum(a[:k + 1] - w[:k + 1]), up to the first slot that
  cannot.  A stretch alternates the two regimes, one numpy pass each.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

__all__ = ["BufferState", "run_ahead", "commit"]

# the shortest capacity table cached for a rate: a preset run's 3000 slots
_TABLE_SLOTS = 4096

# the most packets a stretch may serve, slots times service_per_slot: half
# the int64 range, so that its prefix sums, with the arrivals and the
# occupancy added, stay exact
SERVICE_SUM_LIMIT = 2.0 ** 62


class BufferState:
    __slots__ = ("l1", "l2", "service_per_slot", "occupancy",
                 "cumulative_offered", "cumulative_served",
                 "cumulative_dropped", "peak_occupancy", "peak_slot", "_slot")

    def __init__(self, l1: int, l2: int, service_per_slot: float):
        if l1 <= 0 or l2 < 0:
            raise ValueError("buffer tiers must satisfy l1 > 0 and l2 >= 0")
        if not 0 <= service_per_slot < math.inf:
            raise ValueError(f"service_per_slot must be finite and >= 0, "
                             f"got {service_per_slot!r}")
        self.l1 = l1
        self.l2 = l2
        self.service_per_slot = float(service_per_slot)
        self.occupancy = 0
        self.cumulative_offered = 0
        self.cumulative_served = 0
        self.cumulative_dropped = 0
        self.peak_occupancy = 0
        self.peak_slot = 0
        self._slot = 0

    @property
    def capacity(self) -> int:
        return self.l1 + self.l2

    def __repr__(self) -> str:
        return (f"BufferState(occupancy={self.occupancy}, l1={self.l1}, l2={self.l2}, "
                f"served={self.cumulative_served}, dropped={self.cumulative_dropped})")


class Stretch(NamedTuple):
    """What each slot of a stretch gives, from the state run_ahead() saw."""

    arrivals: np.ndarray     # int64 packets offered
    backlog: np.ndarray      # int64 occupancy net of the slot's service
    occupancy: np.ndarray    # int64 occupancy after the slot's admission

    @property
    def admitted(self) -> np.ndarray:
        return self.occupancy - self.backlog


@functools.lru_cache(maxsize=8)
def _service_table(service_per_slot: float, n: int) -> np.ndarray:
    """The whole service capacity of each of a buffer's first n slots,
    read-only: the per-slot rule's float credit from 0.0, slot by slot."""
    whole, credit = [], 0.0
    for _ in range(n):
        credit += service_per_slot
        w = int(credit)
        credit -= w
        whole.append(w)
    table = np.array(whole, dtype=np.int64)
    table.flags.writeable = False
    return table


def run_ahead(state: BufferState, arrivals: np.ndarray) -> Stretch:
    """Each count of arrivals run through the per-slot rules in turn, as
    arrays; state unchanged.

    Exact in int64: the empty-floored and the full regime of the module
    docstring, alternated at each switch.  commit() then leaves the state
    as the rules over any prefix of the slots would.  A stretch that would
    serve SERVICE_SUM_LIMIT packets or more raises OverflowError rather
    than wrap.
    """
    arrivals = np.asarray(arrivals, dtype=np.int64)
    n = len(arrivals)
    if n and arrivals.min() < 0:
        raise ValueError("arrivals must be >= 0")
    if n * state.service_per_slot >= SERVICE_SUM_LIMIT:
        raise OverflowError(f"{n} slots at {state.service_per_slot} packets a slot pass "
                            "the int64 range of a stretch's prefix sums")

    lo, hi = state._slot, state._slot + n
    size = max(_TABLE_SLOTS, 1 << (hi - 1).bit_length())
    whole = _service_table(state.service_per_slot, size)[lo:hi]
    cap = state.capacity
    # each regime's slots: almost every stretch is one empty-floored pass
    # that never reaches capacity, and its arrays are the stretch's
    backlogs, occupancies = [], []
    occ, k = state.occupancy, 0
    while True:
        # empty-floored: every arrival admitted, up to the first slot that
        # would pass capacity, which admits what fits
        a = arrivals[k:]
        s = occ + np.add.accumulate(a - whole[k:]) - a
        post = s - np.minimum(np.minimum.accumulate(s), 0)
        level = post + a
        over = (level > cap).nonzero()[0]
        if not len(over):
            backlogs.append(post)
            occupancies.append(level)
            break
        m = int(over[0]) + 1
        level[m - 1] = occ = cap
        backlogs.append(post[:m])
        occupancies.append(level[:m])
        k += m
        if k == n:
            break
        # full: each slot serves its whole capacity, up to the first that
        # cannot because less than that is queued
        v = occ + np.add.accumulate(arrivals[k:] - whole[k:])
        full = v - np.maximum(np.maximum.accumulate(v - cap), 0)
        post = np.concatenate(([occ], full[:-1])) - whole[k:]
        short = (post < 0).nonzero()[0]
        m = int(short[0]) if len(short) else n - k
        backlogs.append(post[:m])
        occupancies.append(full[:m])
        if m:
            occ = int(full[m - 1])
        k += m
        if k == n:
            break
    if len(backlogs) == 1:
        return Stretch(arrivals, backlogs[0], occupancies[0])
    return Stretch(arrivals, np.concatenate(backlogs), np.concatenate(occupancies))


def commit(state: BufferState, stretch: Stretch, k: int) -> None:
    """Leave the state as the per-slot rules over the first k slots of the
    stretch, which run_ahead() gave from this state, leave it."""
    if not 0 <= k <= len(stretch.arrivals):
        raise ValueError(f"cannot commit {k} of {len(stretch.arrivals)} slots")
    if k == 0:
        return
    occupancy = stretch.occupancy[:k]
    offered = int(stretch.arrivals[:k].sum())
    top = int(occupancy.argmax())
    peak = int(occupancy[top])
    # a slot drops packets only when its admission fills the buffer, so
    # below capacity every packet offered was admitted
    admitted = (offered if peak < state.capacity
                else int(occupancy.sum() - stretch.backlog[:k].sum()))
    after = int(occupancy[-1])
    state.cumulative_offered += offered
    state.cumulative_served += state.occupancy + admitted - after
    state.cumulative_dropped += offered - admitted
    if peak > state.peak_occupancy:
        state.peak_occupancy = peak
        state.peak_slot = state._slot + top
    state.occupancy = after
    state._slot += k
