"""Attack-source identification.

After detection, identify() reads one measurement window: each source's
rate is its packet count over w_s, the aggregate attack rate is estimated
as the window's total rate minus the lagged baseline, and the
suspected-attacker set is the descending-rate prefix whose rate sum stays
within that budget.  The history variant first exempts every source that
was already active before the attack.

A window's counts come from the traffic stream's split, which counts
each source's packets once, when the window closes, and counts zero for
a source the filter blocks.  Per-source quantities are numpy vectors
indexed by source id: counts are int64, and source sets (suspected
attackers, blocked sources, exemptions, ground truth) are boolean masks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["identify"]


def identify(counts: np.ndarray, w_s: float, baseline_rate: float,
             exempt: Optional[np.ndarray] = None) -> np.ndarray:
    """Mask of suspected attack sources in a window of w_s seconds, from its
    int64 packet counts by source id; every other source is legal.

    The candidates are every source, or those outside the exempt mask when
    one is given.  The suspects are the longest prefix of the candidates,
    by descending rate counts / w_s and then ascending id, whose rate sum
    stays within the budget: the window's total rate less baseline_rate
    (packets/sec), clamped at 0.  cumsum adds left to right, and rates are
    >= 0, so the running sum never falls.

    The candidates' counts are ranked as ints.  Dividing the descending
    counts by w_s gives the very floats of the descending rates, and equal
    counts are equal rates and unequal ones unequal, because division by
    a positive w_s is strictly increasing on ints below 2**52, far above
    any window count a valid config can expect.  So the prefix
    length is read off the float rate sums, and its last count is the cut:
    the suspects are the candidates above the cut and the lowest ids at
    it.  A zero budget, common at classification, takes every candidate
    if all are silent and none otherwise, with no sort.
    """
    budget = max(0.0, int(counts.sum()) / w_s - baseline_rate)
    # an exempt source ranks at -1, below every candidate and every cut
    values = counts if exempt is None else np.where(exempt, -1, counts)
    picked = np.zeros(len(counts), dtype=bool)
    if budget == 0.0:
        return values == 0 if values.max(initial=0) <= 0 else picked
    n_candidates = len(counts) if exempt is None else len(counts) - np.count_nonzero(exempt)
    descending = np.sort(values)[::-1][:n_candidates]
    # every candidate ranked above the silent ones sent a packet, so the
    # running sum passes the budget within its first budget * w_s + 2
    # candidates unless all that sent fit; a prefix that fits whole then
    # ends on a silent candidate, every one after it is silent too, and
    # adding their zero rates leaves the sum within the budget
    reach = int(budget * w_s) + 2
    n_picked = int(np.searchsorted(np.cumsum(descending[:reach] / w_s), budget, side="right"))
    if n_picked == reach < n_candidates:
        n_picked = n_candidates
    if n_picked:
        cut = descending[n_picked - 1]
        picked = values > cut
        picked[np.flatnonzero(values == cut)[:n_picked - np.count_nonzero(picked)]] = True
    return picked
