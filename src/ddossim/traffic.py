"""Slotted Poisson traffic generation for legal and attacking sources.

Each source class (same kind, rate, and activity window) is sampled as one
Poisson aggregate per slot; per-source counts, when requested, come from a
conditional multinomial split proportional to the member rates, which is
exact for superposed independent Poisson sources.  Per-source counts are
one int64 vector indexed by source id.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "SourceKind",
    "TrafficSource",
    "ScenarioConfig",
    "SlotTraffic",
    "build_sources",
    "TrafficStream",
]


class SourceKind(enum.Enum):
    LEGAL = "legal"
    ATTACKING = "attacking"


@dataclass(frozen=True)
class TrafficSource:
    id: int
    kind: SourceKind
    rate: float            # packets per second
    active_from: float     # seconds, inclusive
    active_to: float       # seconds, exclusive

    def active_at(self, t: float) -> bool:
        return self.active_from <= t < self.active_to


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

    @property
    def q(self) -> float:
        """Attack-to-normal per-source rate ratio."""
        return self.lambda_a / self.lambda_n

    @property
    def n_slots(self) -> int:
        return int(round(self.total_duration / self.slot_dt))

    @property
    def sigma_n(self) -> float:
        """Per-slot stddev of the aggregate legal traffic (Poisson: var = mean)."""
        return math.sqrt(self.n_legal * self.lambda_n * self.slot_dt)

    @property
    def sigma_a(self) -> float:
        """Per-slot stddev of the aggregate attack traffic while active."""
        return math.sqrt(self.n_attack * self.lambda_a * self.slot_dt)

    def legal_ids(self) -> range:
        return range(self.n_legal)

    def attacker_ids(self) -> range:
        return range(self.n_legal, self.n_legal + self.n_attack)


@dataclass
class SlotTraffic:
    slot_index: int
    aggregate: int
    legal_aggregate: int
    attack_aggregate: int
    per_source: Optional[np.ndarray] = None     # int64 packet counts by source id


def build_sources(config: ScenarioConfig) -> list[TrafficSource]:
    """Materialize the source population: legal ids first, attackers after."""
    config.validate()
    sources = [
        TrafficSource(i, SourceKind.LEGAL, config.lambda_n, 0.0, config.total_duration)
        for i in config.legal_ids()
    ]
    sources += [
        TrafficSource(i, SourceKind.ATTACKING, config.lambda_a,
                      config.t_star, config.attack_end)
        for i in config.attacker_ids()
    ]
    return sources


@dataclass
class _SourceClass:
    kind: SourceKind
    active_from: float
    active_to: float
    ids: np.ndarray
    rate_sum: float
    cum_probs: np.ndarray = field(repr=False)

    @property
    def index(self) -> slice | np.ndarray:
        """Where the members sit in a per-source vector: a slice when ids run contiguously."""
        lo = int(self.ids[0])
        if np.array_equal(self.ids, np.arange(lo, lo + len(self.ids))):
            return slice(lo, lo + len(self.ids))
        return self.ids


def _group_classes(sources: Iterable[TrafficSource]) -> list[_SourceClass]:
    by_key: dict[tuple, list[TrafficSource]] = {}
    for s in sources:
        by_key.setdefault((s.kind, s.active_from, s.active_to), []).append(s)
    classes = []
    for (kind, a_from, a_to), members in by_key.items():
        rates = np.array([m.rate for m in members], dtype=float)
        total = float(rates.sum())
        cum = np.cumsum(rates) / total
        cum[-1] = 1.0
        classes.append(_SourceClass(kind=kind, active_from=a_from, active_to=a_to,
                                    ids=np.array([m.id for m in members]),
                                    rate_sum=total, cum_probs=cum))
    return classes


class TrafficStream:
    """Pre-drawn slot sequence for a whole run.

    Class aggregates for every slot are drawn up front (vectorized); the
    multinomial per-source split is done lazily, only for the slots where
    the caller asks for it.  A separate split RNG keeps the aggregate
    sequence independent of when splits are requested.
    """

    def __init__(self, sources: list[TrafficSource], n_slots: int, slot_dt: float,
                 rng: np.random.Generator,
                 split_rng: Optional[np.random.Generator] = None):
        self.slot_dt = slot_dt
        self.n_slots = n_slots
        self._split_rng = split_rng if split_rng is not None else rng
        classes = _group_classes(sources)
        self.n_sources = max((int(c.ids.max()) + 1 for c in classes), default=0)
        self._counts: list[tuple[_SourceClass, slice | np.ndarray, list[int], int, int]] = []
        for cls_ in classes:
            lo = max(0, int(math.ceil(cls_.active_from / slot_dt - 1e-9)))
            hi = min(n_slots, int(math.ceil(cls_.active_to / slot_dt - 1e-9)))
            if hi <= lo:
                continue
            draws = rng.poisson(cls_.rate_sum * slot_dt, size=hi - lo).tolist()
            self._counts.append((cls_, cls_.index, draws, lo, hi))

    def slot(self, i: int, want_per_source: bool = False) -> SlotTraffic:
        legal = 0
        attack = 0
        per_source = np.zeros(self.n_sources, dtype=np.int64) if want_per_source else None
        for cls_, index, draws, lo, hi in self._counts:
            if not lo <= i < hi:
                continue
            count = draws[i - lo]
            if cls_.kind is SourceKind.LEGAL:
                legal += count
            else:
                attack += count
            if per_source is not None and count:
                # attribute the class aggregate to members, proportional to
                # rates; bincount ignores order, and sorted keys make the
                # search walk the cumulative table in order
                u = self._split_rng.random(count)
                u.sort()
                idx = cls_.cum_probs.searchsorted(u, side="left")
                per_source[index] = np.bincount(idx, minlength=len(cls_.ids))
        return SlotTraffic(slot_index=i, aggregate=legal + attack,
                           legal_aggregate=legal, attack_aggregate=attack,
                           per_source=per_source)
