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
    """

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator,
                 split_rng: np.random.Generator):
        config.validate()
        self.n_sources = config.n_legal + config.n_attack
        self._split_rng = split_rng
        self.totals = np.zeros(config.n_slots, dtype=np.int64)
        # per class: first member id, split table, draws, active slots [lo, hi)
        self._classes: list[tuple[int, np.ndarray, list[int], int, int]] = []
        for first_id, n, rate, lo, hi in (
                (0, config.n_legal, config.lambda_n, 0, config.n_slots),
                (config.n_legal, config.n_attack, config.lambda_a,
                 slots_in(config.t_star, config.slot_dt, "t_star"),
                 slots_in(config.attack_end, config.slot_dt, "attack_end"))):
            if n == 0:
                continue
            # the class rate is the numpy sum of the member rates; n * rate
            # differs in the last bit (999.9999999999999 vs 1000.0 on sim1)
            # and would change every Poisson draw of a seed
            rates = np.full(n, rate)
            total = float(rates.sum())
            cum_probs = np.cumsum(rates) / total
            cum_probs[-1] = 1.0
            draws = rng.poisson(total * config.slot_dt, size=hi - lo)
            self.totals[lo:hi] += draws
            self._classes.append((first_id, cum_probs, draws.tolist(), lo, hi))

    def slot(self, i: int) -> np.ndarray:
        """The int64 source id of each packet of slot i; totals[i] of them."""
        parts = []
        for first_id, cum_probs, draws, lo, hi in self._classes:
            if not lo <= i < hi or not draws[i - lo]:
                continue
            # attribute each packet of the class aggregate to a member,
            # proportional to rates; sorted keys make the search walk the
            # cumulative table in order, which is faster than random keys
            # on a large table
            u = self._split_rng.random(draws[i - lo])
            u.sort()
            idx = cum_probs.searchsorted(u, side="left")
            idx += first_id
            parts.append(idx)
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
