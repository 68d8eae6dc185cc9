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
of sources, and a stream splits exactly the slots it is asked for.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .buffer import SERVICE_SUM_LIMIT

__all__ = [
    "ScenarioConfig",
    "TrafficStream",
    "require_finite",
    "require_integers",
    "slots_in",
]

# how far a span in slots may sit from a whole number, relative to its size
_GRID_TOL = 1e-9

# the most packets a run may expect: a window's split holds some 40 bytes a
# packet, and window counts stay far below the 2**52 that identify's exact
# integer ranking needs; case3, the largest preset, expects 800 000
RUN_PACKETS_LIMIT = 1e8

# the most slots a run may hold: a stream keeps some 60 bytes a slot, and
# a stretch that runs to the end of the run builds int64 arrays of its
# length; sim2 over 10**6 slots peaks at about 150 MB, and the presets run
# 3000 slots
RUN_SLOTS_LIMIT = 10 ** 6


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


def require_finite(config) -> None:
    """Reject a NaN or infinite value in any float field of a config dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def require_integers(config) -> None:
    """Reject a value that is neither a Python nor a numpy integer in any
    int field of a config dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in (int, "int") and not isinstance(value, numbers.Integral):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


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

    def validate(self) -> None:
        require_finite(self)
        require_integers(self)
        if self.n_legal < 0 or self.n_attack < 0:
            raise ValueError("source counts must be >= 0")
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
        # the buffer serves mu * slot_dt a slot, and a stretch may run to
        # the end of the run: its capacity prefix sums must stay in int64
        if self.n_slots * (self.mu * self.slot_dt) >= SERVICE_SUM_LIMIT:
            raise ValueError(f"mu={self.mu} serves too many packets over total_duration="
                             f"{self.total_duration} for int64 capacity prefix sums")
        # each class sends n * lambda packets a second while it is active
        expected = (self.n_legal * self.lambda_n * self.total_duration
                    + self.n_attack * self.lambda_a * (self.attack_end - self.t_star))
        if expected > RUN_PACKETS_LIMIT:
            raise ValueError(
                f"n_legal={self.n_legal} at lambda_n={self.lambda_n} over total_duration="
                f"{self.total_duration} and n_attack={self.n_attack} at lambda_a="
                f"{self.lambda_a} over [t_star, attack_end) expect {expected:.4g} packets, "
                f"more than the {RUN_PACKETS_LIMIT:.0e} a run may hold")

    @property
    def slots_per_second(self) -> int:
        return slots_in(1.0, self.slot_dt, "one second")

    @property
    def n_slots(self) -> int:
        return slots_in(self.total_duration, self.slot_dt, "total_duration")


class TrafficStream:
    """Pre-drawn slot sequence for a whole run.

    Class aggregates for every slot are drawn up front (vectorized), and
    totals holds their sum per slot, the run's arrivals as one int64 array;
    the multinomial per-source split is done lazily, only for the slots
    the caller asks for.  A separate split RNG keeps the aggregate sequence
    independent of which slots are split.

    An ask for slots lo..hi-1 takes the next uniform keys for their
    packets, in slot-then-class order: the queued ones first, then one
    split RNG draw for any the queue lacks; one pass sends each key u of a
    class of n members to its first id plus floor(u * n).  rewind() puts
    the keys of the slots it hands back at the head of the queue, so the
    k-th key drawn goes to the k-th packet handed out and not handed back,
    and each slot gets the split that one draw per slot, in the order
    asked, would give it.
    """

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator,
                 split_rng: np.random.Generator):
        config.validate()
        self.n_sources = config.n_legal + config.n_attack
        self._split_rng = split_rng
        n_slots = config.n_slots
        # per class: members, rate, first member id, active slots [lo, hi)
        classes = [c for c in (
            (config.n_legal, config.lambda_n, 0, 0, n_slots),
            (config.n_attack, config.lambda_a, config.n_legal,
             slots_in(config.t_star, config.slot_dt, "t_star"),
             slots_in(config.attack_end, config.slot_dt, "attack_end"))) if c[0]]
        # packets of each class in each slot, one row a class, and their
        # sum per slot: a sum over the short class axis of slot-major cells
        # costs some 15 times the adds of whole rows
        self._cells = np.zeros((len(classes), n_slots), dtype=np.int64)
        for c, (n, rate, _, lo, hi) in enumerate(classes):
            # the class rate is the numpy sum of the member rates; n * rate
            # differs in the last bit (999.9999999999999 vs 1000.0 on sim1)
            # and would change every Poisson draw of a seed
            total = float(np.full(n, rate).sum())
            self._cells[c, lo:hi] = rng.poisson(total * config.slot_dt, size=hi - lo)
        self.totals = self._cells.sum(axis=0)
        # the packets before each slot, and the run's
        self._prefix = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(self.totals, out=self._prefix[1:])
        # each cell's class size and first member id, contiguous: np.repeat
        # of a broadcast view is several times slower
        self._size = np.tile(np.array([n for n, *_ in classes], dtype=np.float64), (n_slots, 1))
        self._first = np.tile(np.array([first for _, _, first, _, _ in classes],
                                       dtype=np.int64), (n_slots, 1))
        # the slots [lo, hi) of the last ask and the keys it took, and the
        # keys drawn and not yet taken
        self._lo = self._hi = 0
        self._keys = self._queue = np.empty(0)

    def slots(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The packet source ids of slots lo..hi-1, end to end, and each
        slot's bounds in them: slot lo + j is ids[bounds[j]:bounds[j + 1]].

        The same split as asking for each of the slots in turn, one at a
        time.
        """
        if not 0 <= lo < hi <= len(self.totals):
            raise ValueError(f"no slot range [{lo}, {hi}) in a run of {len(self.totals)} slots")
        bounds = self._prefix[lo:hi + 1] - self._prefix[lo]
        n_keys = int(bounds[-1])
        keys, self._queue = self._queue[:n_keys], self._queue[n_keys:]
        if len(keys) < n_keys:
            draw = self._split_rng.random(n_keys - len(keys))
            keys = np.concatenate((keys, draw)) if len(keys) else draw
        # each key attributes one packet of its class aggregate to member
        # floor(key * size) of its class; the keys run slot by slot, and
        # within a slot class by class
        cells = self._cells[:, lo:hi].T.ravel()
        ids = (keys * np.repeat(self._size[lo:hi], cells)).astype(np.int64)
        ids += np.repeat(self._first[lo:hi], cells)
        self._lo, self._hi, self._keys = lo, hi, keys
        return ids, bounds

    def rewind(self, i: int) -> None:
        """Hand the keys of slots i..hi-1 of the last slots() call back to
        the head of the queue, to be the first the next ask takes."""
        if not self._lo <= i <= self._hi:
            raise ValueError(f"slot {i} is not in the slots last taken")
        kept = int(self._prefix[i] - self._prefix[self._lo])
        self._queue = np.concatenate((self._keys[kept:], self._queue))
        self._keys, self._hi = self._keys[:kept], i
