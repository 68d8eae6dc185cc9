"""Slotted Poisson traffic generation for legal and attacking sources.

A scenario has two source classes: legal sources with ids 0..n_legal-1,
active for the whole run, and attackers with the ids that follow, active
over [t_star, attack_end).  Each class is sampled as one Poisson aggregate
per slot; a slot's packets are attributed to sources by a conditional
multinomial split proportional to the member rates, which is exact for
superposed independent Poisson sources.  A slot is the source id of each
of its packets, so its cost follows the packets, not the number of
sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ScenarioConfig",
    "TrafficStream",
    "require_finite",
    "slots_in",
]

# how far a span in slots may sit from a whole number, relative to its size
_GRID_TOL = 1e-9

# slots a TrafficStream splits at once, with one split RNG draw
_BLOCK_SLOTS = 64


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
    seed: int = 0

    def validate(self) -> None:
        require_finite(self)
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # one-second arrival buckets and times reported in seconds are
        # whole numbers of slots
        slots_in(1.0, self.slot_dt, "one second")
        for name in ("t_star", "attack_end", "total_duration"):
            slots_in(getattr(self, name), self.slot_dt, name)

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

    A slot is split as part of a block.  Asking for a slot, or a range of
    slots, whose packets do not lead the queue of uniforms splits it and
    the slots after it, _BLOCK_SLOTS at least, at once: one split RNG draw
    for the keys the queue lacks, in slot-then-class order, and one exact
    index pass over them; the next slots, asked for in order, are slices
    of the block.  Uniforms of block slots nobody asks for, or that
    rewind() hands back, stay queued and are the next ones consumed, so
    each slot gets the split that one draw per slot, in the order asked,
    would give it.
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
        # packets of each class in each slot, and their sum per slot
        self._cells = np.zeros((n_slots, len(classes)), dtype=np.int64)
        for c, (n, rate, _, lo, hi) in enumerate(classes):
            # the class rate is the numpy sum of the member rates; n * rate
            # differs in the last bit (999.9999999999999 vs 1000.0 on sim1)
            # and would change every Poisson draw of a seed
            total = float(np.full(n, rate).sum())
            self._cells[lo:hi, c] = rng.poisson(total * config.slot_dt, size=hi - lo)
        self.totals = self._cells.sum(axis=1)
        # each cell's class size and first member id (read-only views)
        self._size = np.broadcast_to(np.array([n for n, *_ in classes], dtype=np.float64),
                                     self._cells.shape)
        self._first = np.broadcast_to(np.array([first for _, _, first, _, _ in classes],
                                               dtype=np.int64), self._cells.shape)
        self._cum_probs, self._below = split_tables([(n, rate) for n, rate, *_ in classes])
        # the block: its first slot, the slot whose packets lead the queue,
        # its end, each slot's offset into the queue, and the block's ids
        self._start = self._next = self._end = 0
        self._bounds = np.zeros(1, dtype=np.int64)
        self._queue = np.empty(0)
        self._ids = np.empty(0, dtype=np.int64)

    def slot(self, i: int) -> np.ndarray:
        """The int64 source id of each packet of slot i; totals[i] of them."""
        if not 0 <= i < len(self.totals):
            raise ValueError(f"no slot {i} in a run of {len(self.totals)} slots")
        if i != self._next or i >= self._end:
            self._split_block(i, i + 1)
        self._next = i + 1
        j = i - self._start
        return self._ids[self._bounds[j]:self._bounds[j + 1]]

    def slots(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The packet source ids of slots lo..hi-1, end to end, and each
        slot's bounds in them: slot lo + j is ids[bounds[j]:bounds[j + 1]].

        The same split as slot() asked for each slot in turn.
        """
        if not 0 <= lo < hi <= len(self.totals):
            raise ValueError(f"no slot range [{lo}, {hi}) in a run of {len(self.totals)} slots")
        if lo != self._next or hi > self._end:
            self._split_block(lo, hi)
        self._next = hi
        j = lo - self._start
        bounds = self._bounds[j:j + hi - lo + 1]
        return self._ids[bounds[0]:bounds[-1]], bounds - bounds[0]

    def rewind(self, i: int) -> None:
        """Hand the uniforms of the slots from i on, which the last slots()
        call took, back to the queue; slot i is the next one consumed."""
        if not self._start <= i <= self._next:
            raise ValueError(f"slot {i} is not in the slots last taken")
        self._next = i

    def _split_block(self, i: int, hi: int) -> None:
        """Split slots i..hi-1, and the slots after them up to _BLOCK_SLOTS
        in all, on the queued uniforms and as many fresh ones as the block
        lacks.  Slots from i on that the current block already split, when
        slot i leads the queue, keep their ids."""
        kept = self._end - i if i == self._next and i < self._end else 0
        queued = self._queued()
        end = min(max(hi, i + _BLOCK_SLOTS), len(self.totals))
        bounds = np.zeros(end - i + 1, dtype=np.int64)
        np.cumsum(self.totals[i:end], out=bounds[1:])
        n_keys = int(bounds[-1])
        if len(queued) < n_keys:
            queued = np.concatenate((queued, self._split_rng.random(n_keys - len(queued))))
        # each key attributes one packet of its class aggregate to a member;
        # the keys run slot by slot, and within a slot class by class
        cells = self._cells[i + kept:end].ravel()
        size = np.repeat(self._size[i + kept:end], cells)
        first = np.repeat(self._first[i + kept:end], cells)
        ids = equal_rate_index(queued[bounds[kept]:n_keys], size, first,
                               self._cum_probs, self._below)
        if kept:
            ids = np.concatenate((self._ids[self._bounds[i - self._start]:], ids))
        self._ids = ids
        self._start, self._end, self._bounds, self._queue = i, end, bounds, queued

    def _queued(self) -> np.ndarray:
        """The split uniforms drawn and not yet consumed, in draw order."""
        return self._queue[self._bounds[self._next - self._start]:]


def split_tables(classes: list[tuple[int, float]]) -> tuple[np.ndarray, np.ndarray]:
    """The split tables of classes of (members, rate), end to end in id order.

    cum_probs[j] is the cumulative share of its class rate up to and
    including source j, exactly 1.0 for a class's last member, above every
    uniform key; below[j] is the entry before it in its class, -inf for a
    class's first member.
    """
    tables, below = [np.empty(0)], [np.empty(0)]
    for n, rate in classes:
        rates = np.full(n, rate)
        cum_probs = np.cumsum(rates) / float(rates.sum())
        cum_probs[-1] = 1.0
        tables.append(cum_probs)
        below.append(np.concatenate(([-np.inf], cum_probs[:-1])))
    return np.concatenate(tables), np.concatenate(below)


def equal_rate_index(keys: np.ndarray, size, first,
                     cum_probs: np.ndarray, below: np.ndarray) -> np.ndarray:
    """The source id of each uniform key in [0, 1): first plus the index
    that searchsorted(key, side="left") finds in the split table of its
    class, whose members share one rate, and whose size and first member
    id come per key (or as scalars).

    Entry k of such a table is (k+1)/size to within far less than 1/size,
    so floor(key*size) is that index or one off it, and one step each way
    against the table itself makes it exact.  A key below 1 times a whole
    size rounds to less than the size, so the first guess stays in the
    class.
    """
    idx = (keys * size).astype(np.int64)
    idx += first
    idx -= below[idx] >= keys
    idx += cum_probs[idx] < keys
    return idx
