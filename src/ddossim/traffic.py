"""Slotted Poisson traffic generation for legal and attacking sources.

A scenario has two source classes: legal sources with ids 0..n_legal-1,
active for the whole run, and attackers with the ids that follow, active
over [t_star, attack_end).  Each class is sampled as one Poisson aggregate
per slot; a slot's packets are attributed to sources by a conditional
multinomial split proportional to the member rates, which is exact for
superposed independent Poisson sources.  The members of a class share one
rate, so a packet's member is uniform over its class: a uniform key u in
[0, 1) goes to member floor(u * n) of a class of n, and u * n rounds below
n for every u < 1, so each key stays in its class.  A slot is the source
id of each of its packets, so its cost follows the packets, not the number
of sources, and a stream splits exactly the slots of the asks that
filter them or count a window.

The split generator's position is a stream's only split state: it is
the number of packets handed out and not taken back.  unblocked() is the
run loop's one traffic call a stretch, and it decides what to split: an
ask with neither a blocked mask nor a window splits nothing, and every
ask first takes back the slots from its start on that the last split
handed out, stepping a PCG64 back over their packets in one jump.  A
split writes its keys and ids into its thread's work arena, one float64
and one int64 array held in a threading.local and grown to the largest
split the thread has asked for, so the run loop allocates no
packet-sized array per ask.  Arena memory stays inside the call that
fills it: unblocked() returns a stretch's arrivals and its window's
counts in arrays that no later ask changes.  A split of more than
SPLIT_ARENA_LIMIT packets gets arrays of its own.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from .buffer import SERVICE_SUM_LIMIT

__all__ = [
    "ScenarioConfig",
    "TrafficStream",
    "require_numbers",
    "slots_in",
]

# how far a span in slots may sit from a whole number, relative to its size
_GRID_TOL = 1e-9

# the most packets a run may expect: a window's split holds 16 bytes a
# packet of keys and ids, and up to 9 more at once (a class column repeated
# to its packets, or the blocked mask and the blocked packets' indices),
# 25 in all, and window counts stay far below the 2**52 that identify's
# exact integer ranking needs; case3, the largest preset, expects 800 000
RUN_PACKETS_LIMIT = 1e8

# the most packets a split may keep in its thread's work arena, which then
# holds 4 MiB of keys and ids: case3's largest ask is some 60 000 packets,
# and a larger ask gets arrays of its own, so that one huge run cannot pin
# its memory for the rest of the process
SPLIT_ARENA_LIMIT = 1 << 18

# the most slots a run may hold: a stream keeps some 60 bytes a slot and
# the buffer 8 to 16 of capacity sums, and a stretch between episodes runs
# at most 4096 slots; sim2 without attackers over 10**6 slots peaks at
# some 43 MiB (tracemalloc), and the presets run 3000 slots.  The stream's
# split tables, 32 of its bytes a slot, stay cached after the run until a
# run of another config replaces them
RUN_SLOTS_LIMIT = 10 ** 6

# the most sources a run may hold: each classification builds int64 arrays
# with one entry per source (the window's bincount, the ranking, its sort),
# whatever the packets; sim1 and case3, the largest presets, have 15 000
RUN_SOURCES_LIMIT = 10 ** 6


def slots_in(seconds: float, slot_dt: float, name: str) -> int:
    """Whole slots of slot_dt in a span of seconds.

    Every seconds-to-slots conversion goes through here, so a span that is
    not a positive whole number of slots is rejected rather than rounded.
    """
    slots = seconds / slot_dt
    whole = round(slots)
    if whole < 1 or abs(slots - whole) > _GRID_TOL * max(1.0, slots):
        raise ValueError(f"{name}={seconds} is not on the grid of slot_dt={slot_dt}: "
                         "it is not a whole number of slots")
    return whole


# the numbers an int and a float field take, the exact types that need no
# ABC check, and the name a fault gives them; the config modules'
# annotations are strings
_NUMBER_FIELDS = {"int": (numbers.Integral, (int,), "an integer"),
                  "float": (numbers.Real, (float, int), "a real number")}


def require_numbers(config) -> None:
    """Reject, field by field, a value of a config dataclass's int field
    that is not a Python or numpy integer, and one of a float field that
    is not a real number or has no finite float value: NaN, an infinity,
    or an int too large for a float.  A bool is neither.  The first faulty
    field is named."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, exact, name = _NUMBER_FIELDS.get(f.type, (None, (), None))
        if kind is not None and type(value) not in exact and (
                isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(f"{f.name} must be {name}, got {value!r}")
        if kind is numbers.Real:
            try:
                finite = math.isfinite(value)
            except OverflowError:           # an int past the float range, not printed
                raise ValueError(f"{f.name} must be finite, got an int too large "
                                 f"for a float") from None
            if not finite:
                raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description for one simulated scenario."""

    n_legal: int
    n_attack: int
    lambda_n: float        # packets/sec per legal source
    lambda_a: float        # packets/sec per attacking source
    mu: float              # service rate, packets/sec
    l1: int
    l2: int
    t_star: float          # attack onset, seconds
    attack_end: float
    total_duration: float
    slot_dt: float = 0.1

    def __post_init__(self) -> None:
        """Raise ValueError on a config that cannot run as specified, so
        that every config that exists has passed these checks once."""
        require_numbers(self)
        if self.n_legal < 0 or self.n_attack < 0:
            raise ValueError("source counts must be >= 0")
        # as Python ints, which a sum of two numpy ones near 2**63 cannot wrap
        sources = int(self.n_legal) + int(self.n_attack)
        if sources > RUN_SOURCES_LIMIT:
            raise ValueError(f"n_legal={self.n_legal} and n_attack={self.n_attack} are "
                             f"{sources} sources, more than the {RUN_SOURCES_LIMIT:.0e} "
                             "a run may hold")
        if self.lambda_n <= 0:
            raise ValueError("lambda_n must be > 0")
        if self.n_attack > 0 and self.lambda_a <= 0:
            raise ValueError("lambda_a must be > 0 when attackers are present")
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if self.l1 <= 0 or self.l2 < 0:
            raise ValueError("buffer sizes must satisfy l1 > 0, l2 >= 0")
        if not (0 < self.t_star < self.attack_end <= self.total_duration):
            raise ValueError("need 0 < t_star < attack_end <= total_duration")
        if self.slot_dt <= 0:
            raise ValueError("slot_dt must be > 0")
        # one-second arrival buckets and times reported in seconds are
        # whole numbers of slots
        slots_in(1.0, self.slot_dt, "one second")
        for name in ("t_star", "attack_end", "total_duration"):
            slots_in(getattr(self, name), self.slot_dt, name)
        if self.n_slots > RUN_SLOTS_LIMIT:
            raise ValueError(f"total_duration={self.total_duration} at slot_dt={self.slot_dt} "
                             f"is {self.n_slots} slots, more than the {RUN_SLOTS_LIMIT:.0e} "
                             "a run may hold")
        # the buffer serves p/q packets a slot, and its capacity sums up to
        # the run's last slot, k * p for each slot k, must stay in int64
        rate = self.service_per_slot
        if max(self.n_slots * rate.numerator, rate.denominator) >= SERVICE_SUM_LIMIT:
            raise ValueError(f"mu={self.mu} at slot_dt={self.slot_dt} is {rate} packets a slot, "
                             "too many or too precise for the buffer's int64 capacity sums")
        # each class sends n * lambda packets a second while it is active
        expected = (self.n_legal * self.lambda_n * self.total_duration
                    + self.n_attack * self.lambda_a * (self.attack_end - self.t_star))
        if expected > RUN_PACKETS_LIMIT:
            raise ValueError(
                f"n_legal={self.n_legal} at lambda_n={self.lambda_n} over total_duration="
                f"{self.total_duration} and n_attack={self.n_attack} at lambda_a="
                f"{self.lambda_a} over [t_star, attack_end) expect {expected:.4g} packets, "
                f"more than the {RUN_PACKETS_LIMIT:.0e} a run may hold")

    @functools.cached_property
    def service_per_slot(self) -> Fraction:
        """The packets the buffer serves a slot, mu * slot_dt as written:
        each read from its shortest repr, so mu = 4.5 at slot_dt = 0.1 is
        exactly 9/20, which no float is."""
        return Fraction(str(self.mu)) * Fraction(str(self.slot_dt))

    @property
    def slots_per_second(self) -> int:
        return slots_in(1.0, self.slot_dt, "one second")

    @property
    def n_slots(self) -> int:
        return slots_in(self.total_duration, self.slot_dt, "total_duration")


@functools.lru_cache(maxsize=1)
def _class_tables(config: ScenarioConfig) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Each source class's Poisson mean a slot and active slots [lo, hi),
    and the split's tables: each cell's class size and first member id,
    one row a slot.  Built once for the last config run and shared,
    read-only, by its streams.  Keyed on the config alone: a config
    passed its checks when it was made, and an equal one of other field
    types (an np.int64 count, an np.float64 rate) builds the same tables."""
    n_slots = config.n_slots
    # per class: members, rate, first member id, active slots [lo, hi)
    classes = [c for c in (
        (config.n_legal, config.lambda_n, 0, 0, n_slots),
        (config.n_attack, config.lambda_a, config.n_legal,
         slots_in(config.t_star, config.slot_dt, "t_star"),
         slots_in(config.attack_end, config.slot_dt, "attack_end"))) if c[0]]
    # the class rate is the numpy sum of the member rates; n * rate
    # differs in the last bit (999.9999999999999 vs 1000.0 on sim1) and
    # would change every Poisson draw of a seed
    means = tuple((float(np.full(n, rate).sum()) * config.slot_dt, lo, hi)
                  for n, rate, _, lo, hi in classes)
    # contiguous: np.repeat of a broadcast view is several times slower
    size = np.tile(np.array([c[0] for c in classes], dtype=np.float64), (n_slots, 1))
    first = np.tile(np.array([c[2] for c in classes], dtype=np.int64), (n_slots, 1))
    size.flags.writeable = first.flags.writeable = False
    return means, size, first


class _Arena(threading.local):
    """One thread's split work arrays, reused from split to split."""

    def __init__(self):
        self.keys = np.empty(0)
        self.ids = np.empty(0, dtype=np.int64)


_arena = _Arena()


class TrafficStream:
    """Pre-drawn slot sequence for a whole run.

    Class aggregates for every slot are drawn up front (vectorized), and
    totals holds their sum per slot, the run's arrivals as one int64 array;
    the multinomial per-source split is done lazily, only for the slots
    of an ask that filters them or counts a window.  A separate split RNG
    keeps the aggregate sequence independent of which slots are split.

    An ask, unblocked(lo, hi, ...), that filters or counts a window
    draws one uniform key for each packet of slots lo..hi-1, in
    slot-then-class order, in one call of the split RNG, and one pass
    sends each key u of a class of n members to its first id plus
    floor(u * n).  Every ask first steps the split RNG back over the
    packets of the slots from lo on that the last split handed out, so
    the generator's position is always the number of packets handed out
    and not taken back: the k-th key drawn goes to the k-th such packet,
    and each slot gets the split that one draw per slot, in the order
    asked, would give it.  An ask may not start before the last one did.
    The position is the stream's only split state, and stepping back
    needs the jump-ahead of a PCG64 (numpy's default_rng), so no other
    bit generator is taken.

    The keys and ids of an ask live in the calling thread's work arena,
    and no read of them outlives the call that made them: unblocked()
    returns the slots' unblocked arrivals and the window's counts in
    arrays that no later ask changes.  A stream is used on one thread.

    A config is checked when it is made, so a stream checks only its
    split generator.  A stream of the last config run shares its class
    rates and the split's read-only per-slot tables of class sizes and
    first ids.
    """

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator,
                 split_rng: np.random.Generator):
        if not isinstance(getattr(split_rng, "bit_generator", None), np.random.PCG64):
            raise ValueError("the split generator must run on a PCG64, which an ask steps "
                             "back; np.random.default_rng gives one")
        self.n_sources = config.n_legal + config.n_attack
        self._split_rng = split_rng
        classes, self._size, self._first = _class_tables(config)
        n_slots = len(self._size)
        # packets of each class in each slot, one row a class, and their
        # sum per slot: a sum over the short class axis of slot-major cells
        # costs some 15 times the adds of whole rows
        self._cells = np.zeros((len(classes), n_slots), dtype=np.int64)
        for c, (mean, lo, hi) in enumerate(classes):
            self._cells[c, lo:hi] = rng.poisson(mean, size=hi - lo)
        self.totals = self._cells.sum(axis=0)
        # the packets before each slot, and the run's
        self._prefix = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(self.totals, out=self._prefix[1:])
        # the last ask's first slot, and the end of the slots the last
        # split handed out and no ask has taken back
        self._lo = self._hi = 0

    def _split(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Split slots lo..hi-1 into the arena, or past SPLIT_ARENA_LIMIT
        packets into arrays of their own: their packet source ids, end to
        end, and each slot's bounds in them, slot lo + j being
        ids[bounds[j]:bounds[j + 1]]."""
        bounds = self._prefix[lo:hi + 1] - self._prefix[lo]
        n_keys = int(bounds[-1])
        if n_keys > SPLIT_ARENA_LIMIT:
            keys, ids = np.empty(n_keys), np.empty(n_keys, dtype=np.int64)
        else:
            arena = _arena
            if n_keys > len(arena.keys):
                # the old arrays go before the new ones are made, so that
                # the two are never held at once
                arena.keys = arena.ids = None
                arena.keys, arena.ids = np.empty(n_keys), np.empty(n_keys, dtype=np.int64)
            keys, ids = arena.keys[:n_keys], arena.ids[:n_keys]
        self._split_rng.random(out=keys)
        # each key attributes one packet of its class aggregate to member
        # floor(key * size) of its class; the keys run slot by slot, and
        # within a slot class by class.  The unsafe cast of the float
        # product into the int64 ids truncates it, and it is >= 0
        cells = self._cells[:, lo:hi].T.ravel()
        np.multiply(keys, np.repeat(self._size[lo:hi], cells), out=ids, casting="unsafe")
        ids += np.repeat(self._first[lo:hi], cells)
        self._hi = hi
        return ids, bounds

    def unblocked(self, lo: int, hi: int, blocked: Optional[np.ndarray],
                  window: Optional[int] = None) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The packets of each of slots lo..hi-1 that the blocked mask lets
        through, every packet without a mask; given the first slot of a
        measurement window that ends at hi, also the window's int64 packet
        counts by source, zero on the blocked sources, and None otherwise.

        The ask first takes back the slots from lo on that the last split
        handed out, and then splits its slots only for a mask or a window.
        It is checked before the split RNG moves: slots in the run, lo not
        before the last ask's first slot, and a window in the slots."""
        n_slots = len(self.totals)
        if not 0 <= lo < hi <= n_slots:
            raise ValueError(f"no slot range [{lo}, {hi}) in a run of {n_slots} slots")
        if lo < self._lo:
            raise ValueError(f"slot {lo} is before slot {self._lo}, where the last ask started")
        if window is not None and not lo <= window < hi:
            raise ValueError(f"window slot {window} is not in the slots [{lo}, {hi})")
        if lo < self._hi:
            back = int(self._prefix[self._hi] - self._prefix[lo])
            self._split_rng.bit_generator.advance(-back % 2 ** 128)
        self._lo, self._hi = lo, min(lo, self._hi)
        if blocked is None and window is None:
            return self.totals[lo:hi], None
        ids, bounds = self._split(lo, hi)
        counts = None
        if window is not None:
            # one bincount of the window's packets; a blocked source counts
            # zero, as the filter drops its packets, with no gather, mask
            # or copy over them
            counts = np.bincount(ids[bounds[window - lo]:], minlength=self.n_sources)
            if blocked is not None:
                counts[blocked] = 0
        if blocked is None:
            return self.totals[lo:hi], counts
        # the packets before each bound less the blocked ones, counted by
        # one search of the blocked packets' positions
        kept = bounds - np.searchsorted(blocked[ids].nonzero()[0], bounds)
        return kept[1:] - kept[:-1], counts
