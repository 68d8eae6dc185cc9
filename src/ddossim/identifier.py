"""Attack-source identification and per-source filtering.

After detection, identify() reads one measurement window: each source's
rate is its packet count over w_s, the aggregate attack rate is estimated
as the window's total rate minus the lagged baseline, and the
suspected-attacker set is the descending-rate prefix whose rate sum stays
within that budget.  The history variant first exempts every source that
was already active before the attack.

A slot carries the source id of each packet; a measurement window counts
them by source once, when it closes, with one bincount.  Per-source
quantities are numpy vectors indexed by source id: counts are int64,
rates float64, and source sets (suspected attackers, blocked sources,
exemptions, ground truth) are boolean masks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["identify", "apply_filter"]


def _greedy_prefix(rates: np.ndarray, ids: np.ndarray, budget: float) -> np.ndarray:
    """Mask of the longest descending-rate prefix of ids (ascending) whose
    rate sum stays within budget.

    Ties on rate break by ascending source id; the prefix ends before the
    first source that would push the sum past the budget.  cumsum adds left
    to right, and rates are >= 0, so the running sum never falls.  Tied
    rates are equal values, so the sorted values fix the prefix length and
    its last rate, the cut: the prefix is every source above the cut and
    the lowest ids at it.  A zero budget, common at classification, takes
    every candidate if all are silent and none otherwise, with no sort.
    """
    values = rates[ids]
    if budget == 0.0:
        picked = np.zeros(len(rates), dtype=bool)
        picked[ids] = not values.any()
        return picked
    descending = np.sort(values)[::-1]
    n_picked = int(np.searchsorted(np.cumsum(descending), budget, side="right"))
    picked = np.zeros(len(rates), dtype=bool)
    if n_picked:
        cut = descending[n_picked - 1]
        above = values > cut
        picked[ids[above]] = True
        picked[ids[values == cut][:n_picked - np.count_nonzero(above)]] = True
    return picked


def identify(counts: np.ndarray, w_s: float, baseline_rate: float,
             exempt: Optional[np.ndarray] = None) -> np.ndarray:
    """Mask of suspected attack sources in a window of w_s seconds, from its
    int64 packet counts by source id; every other source is legal.

    The rates are counts / w_s, and the budget is the window's total rate
    less baseline_rate (packets/sec), clamped at 0.  The candidates are
    every source, or those outside the exempt mask when one is given.
    """
    rates = counts / w_s
    budget = max(0.0, int(counts.sum()) / w_s - baseline_rate)
    candidates = np.arange(len(counts)) if exempt is None else np.flatnonzero(~exempt)
    return _greedy_prefix(rates, candidates, budget)


def apply_filter(blocked: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The packet source ids of a slot that the blocked sources (a mask) do
    not own, before buffer admission."""
    return ids[~blocked[ids]]
