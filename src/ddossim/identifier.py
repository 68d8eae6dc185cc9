"""Attack-source identification and per-source filtering.

After detection, per-source traffic is measured over the analysis window;
the aggregate attack rate is estimated as measured total minus the lagged
baseline, and the suspected-attacker set is the descending-rate prefix
whose rate sum stays within that budget.  The history variant first
exempts every source that was already active before the attack.

A slot carries the source id of each packet; a measurement window counts
them by source once, when it closes, with one bincount.  Per-source
quantities are numpy vectors indexed by source id: counts are int64,
rates float64, and source sets (suspected attackers, blocked sources,
exemptions, ground truth) are boolean masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PerSourceMeasurement",
    "measure_per_source",
    "estimate_attack_rate",
    "identify_greedy",
    "identify_by_history",
    "apply_filter",
]


@dataclass(frozen=True)
class PerSourceMeasurement:
    rates: np.ndarray               # packets/sec by source id


def measure_per_source(counts: np.ndarray, duration: float) -> PerSourceMeasurement:
    """Per-source rates in packets/sec from the int64 packet counts by
    source id over a window of duration seconds; silent sources get 0."""
    if duration <= 0:
        raise ValueError("empty measurement window")
    return PerSourceMeasurement(rates=counts / duration)


def estimate_attack_rate(total_rate: float, baseline_rate: float) -> float:
    """Aggregate attack-rate estimate: measured total minus baseline, clamped at 0."""
    if total_rate < 0 or baseline_rate < 0:
        raise ValueError("rates must be >= 0")
    return max(0.0, total_rate - baseline_rate)


def _greedy_prefix(rates: np.ndarray, ids: np.ndarray, budget: float) -> np.ndarray:
    """Mask of the longest descending-rate prefix of ids (ascending) whose
    rate sum stays within budget.

    Ties on rate break by ascending source id; the prefix ends before the
    first source that would push the sum past the budget.  cumsum adds left
    to right, and rates are >= 0, so the running sum never falls.  Tied
    rates are equal values, so the sorted values fix the prefix length and
    its last rate, the cut: the prefix is every source above the cut and
    the lowest ids at it.
    """
    values = rates[ids]
    descending = np.sort(values)[::-1]
    n_picked = int(np.searchsorted(np.cumsum(descending), budget, side="right"))
    picked = np.zeros(len(rates), dtype=bool)
    if n_picked:
        cut = descending[n_picked - 1]
        above = values > cut
        picked[ids[above]] = True
        picked[ids[values == cut][:n_picked - np.count_nonzero(above)]] = True
    return picked


def identify_greedy(measurement: PerSourceMeasurement,
                    attack_rate_budget: float) -> np.ndarray:
    """Mask of suspected attack sources; every other source is legal."""
    if attack_rate_budget < 0:
        raise ValueError("budget must be >= 0")
    rates = measurement.rates
    return _greedy_prefix(rates, np.arange(len(rates)), attack_rate_budget)


def identify_by_history(measurement: PerSourceMeasurement,
                        pre_attack_active: np.ndarray,
                        attack_rate_budget: float) -> np.ndarray:
    """Greedy identification restricted to sources with no pre-attack history."""
    if attack_rate_budget < 0:
        raise ValueError("budget must be >= 0")
    return _greedy_prefix(measurement.rates, np.flatnonzero(~pre_attack_active),
                          attack_rate_budget)


def apply_filter(blocked: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The packet source ids of a slot that the blocked sources (a mask) do
    not own, before buffer admission."""
    return ids[~blocked[ids]]
