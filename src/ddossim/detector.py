"""Sliding-window traffic monitoring, the three attack detectors and the
restoration check.

Approximate methods: buffer-full (the normal-operation tier l1 is at
capacity) and the ratio rule (short-time average exceeds (1+r) times the
extended-time average).  Accurate method: a hypothesis-testing pipeline on
per-second packet arrival counts -- an upper-confidence-bound gate on the
current mean, then a pooled t-test and Levene's test against the lagged
baseline, flagging if either rejects.  The counts are ints, so each check
is decided exactly on integer moments: t^2 and Levene's W against one
critical value q^2, because F(1, nu) is t(nu)^2.  A stretch reads every
check's sums and sums of squares off Python-int prefix sums of its
buckets, built once, so a check costs O(1) until Levene's test needs the
windows themselves.

Detector.run takes every stretch of slots, between episodes and during
them: it runs the detector, the buffer and, while a filter is in place,
the RestorationMonitor ahead to the first event, then commits each of them
up to it.  The detector owns that monitor: an episode's first
classification (rearm) builds it from lambda-bar at the fire, and
restoration (unfreeze) drops it, so the run loop never holds it.  The
history each keeps is an int64 tail of its slots: the short window since
it was last cleared, the unfrozen slots the long window and its lagged
level lambda-bar come from, the admitted counts restoration sums, and the
unfinished one-second bucket; a stretch whose own slots fill a tail
leaves a slice of them as the tail.  window_sums() reads every
window off a tail and a stretch's arrivals, from int64 prefix sums.  An
episode copies no history: its slots and buckets stay out of the histories
the references come from, and its own buckets are a list of their own.
Only lambda-bar, which no frozen slot can move, is kept at the fire.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .buffer import BufferState, commit, run_ahead
from .stats import normal_upper_quantile, student_t_quantile
from .traffic import require_finite, require_integers, slots_in

__all__ = [
    "Method",
    "DetectorConfig",
    "window_sums",
    "RestorationMonitor",
    "MPAR_ALPHA",
    "detect_ratio",
    "detect_statistical",
    "Detector",
]

# One-sided significance used for the maximum-packet-arrival-rate gate.
MPAR_ALPHA = 0.025


class Method(enum.Enum):
    BUFFER_FULL = "buffer_full"
    RATIO = "ratio"
    STATISTICAL = "statistical"


ALL_METHODS = (Method.STATISTICAL, Method.RATIO, Method.BUFFER_FULL)


@dataclass(frozen=True)
class DetectorConfig:
    w_s: float = 10.0          # short window, seconds
    w_l: float = 45.0          # long window, seconds
    r: float = 0.6             # ratio-rule tolerance
    c: float = 45.0            # look-back to the last correct traffic level, seconds
    alpha: float = 0.05
    baseline_len: int = 30     # per-second samples in the statistical baseline
    methods: tuple[Method, ...] = ALL_METHODS

    def validate(self) -> None:
        require_finite(self)
        require_integers(self)
        if not 0 < self.w_s < self.w_l:
            raise ValueError("need 0 < w_s < w_l")
        if self.r <= 0:
            raise ValueError("r must be > 0")
        if self.c < self.w_s:
            raise ValueError("look-back c must be >= w_s")
        if not 0 < self.alpha < 0.5:
            raise ValueError("alpha must be in (0, 0.5)")
        # the tests' critical value is the t quantile at 1 - alpha/2
        if 1.0 - self.alpha / 2.0 == 1.0:
            raise ValueError(f"alpha={self.alpha} is too small: 1 - alpha/2 rounds to 1.0")
        if self.baseline_len < 8:
            raise ValueError("baseline_len must be >= 8")
        if not self.methods:
            raise ValueError("at least one detection method must be enabled")

    def window_slots(self, slot_dt: float) -> tuple[int, int, int]:
        """(w_s, w_l, c) in whole slots of slot_dt.

        Each window must lie on the slot grid.  The statistical method
        tests one-second arrival buckets, so with it enabled w_s and c must
        also be whole seconds, and w_s at least the two samples a test needs.
        """
        ws, wl, c = (slots_in(getattr(self, name), slot_dt, name)
                     for name in ("w_s", "w_l", "c"))
        if Method.STATISTICAL in self.methods:
            per_second = slots_in(1.0, slot_dt, "one second")
            if ws % per_second or c % per_second or ws < 2 * per_second:
                raise ValueError(f"the statistical method needs w_s and c in whole "
                                 f"seconds and w_s >= 2; got w_s={self.w_s}, c={self.c}")
        return ws, wl, c


def window_sums(tail: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    """The sum of the newest `width` slots after each of the int64 values is
    appended to the int64 tail in turn: NaN while fewer than `width` slots
    are held, then the sum from exact int64 prefix sums as a float64, exact
    below 2**53."""
    held = len(tail)
    first = max(0, width - held - 1)       # the first value that fills the window
    sums = np.empty(len(values))
    sums[:first] = np.nan
    if first < len(sums):
        prefix = np.zeros(held + len(values) + 1, dtype=np.int64)
        np.add.accumulate(np.concatenate((tail, values)), out=prefix[1:])
        sums[first:] = prefix[held + first + 1:] - prefix[held + first + 1 - width:-width]
    return sums


def _newest(tail: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    """The newest `width` slots of the tail with the values appended: the
    values' own last slots when they alone fill the width."""
    if len(values) >= width:
        return values[len(values) - width:]
    return np.concatenate((tail, values))[-width:]


class RestorationMonitor:
    """Tracks the sustained restoration condition during a filtering episode.

    Restored once the buffer backlog (net of each slot's service) has
    stayed below l1 for ws_slots consecutive slots (w_s seconds) while the
    traffic admitted over those slots is at most (1+r) times the frozen
    baseline rate over w_s.  Backlog rather than raw occupancy, for the
    same reason the buffer-full detector uses it: at coarse slot sizes one
    slot's arrival batch can exceed l1 on its own under normal load.
    tests/reference.py holds the rule one slot at a time.
    """

    def __init__(self, l1: int, baseline_rate: float, r: float,
                 w_s: float, ws_slots: int):
        self.l1 = l1
        self.ws_slots = ws_slots
        self.threshold_sum = (1.0 + r) * baseline_rate * w_s
        self._admitted = np.zeros(0, dtype=np.int64)     # the last ws_slots admitted counts
        self._occ_ok = 0

    def first_restored(self, backlogs: np.ndarray, admitted: np.ndarray) -> Optional[int]:
        """The first slot of a stretch's int64 backlogs and admitted counts
        at which restoration holds, or None; the monitor is unchanged.  The
        low-backlog run comes from the last slot at or above l1, the
        admitted window sums from prefix sums.

        No window sum is taken unless the stretch can hold a run of ws_slots
        low backlogs: the longest it can hold is the run before its first
        high slot, with the run carried in, the longest between two high
        slots, or the run after the last.  A stretch of a measurement window
        forced by a fire mostly starts high, and stops there."""
        n = len(admitted)
        is_high = backlogs >= self.l1
        high = is_high.nonzero()[0]
        longest = (max(self._occ_ok + int(high[0]),
                       int((high[1:] - high[:-1]).max(initial=1)) - 1,
                       n - 1 - int(high[-1])) if len(high) else self._occ_ok + n)
        if longest < self.ws_slots:
            return None
        sums = window_sums(self._admitted, admitted, self.ws_slots)
        slot = np.arange(n)
        last_high = np.maximum.accumulate(np.where(is_high, slot, -1))
        low_run = np.where(last_high >= 0, slot - last_high, self._occ_ok + slot + 1)
        # a window not yet full has a NaN sum, which compares False
        hits = ((low_run >= self.ws_slots) & (sums <= self.threshold_sum)).nonzero()[0]
        return int(hits[0]) if len(hits) else None

    def advance(self, backlogs: np.ndarray, admitted: np.ndarray) -> None:
        """Take in the slots of a stretch that ran, as the per-slot rule
        over each in turn would; the monitor may keep a slice of admitted."""
        self._admitted = _newest(self._admitted, admitted, self.ws_slots)
        high = (backlogs >= self.l1).nonzero()[0]
        n = len(backlogs)
        self._occ_ok = n - 1 - int(high[-1]) if len(high) else self._occ_ok + n


def detect_ratio(short_avg, long_avg, r: float):
    """Ratio rule on floats, or elementwise on arrays: short-time average strictly
    above (1+r) * long-time average; a NaN long average (not yet full) never fires."""
    return (long_avg > 0) & (short_avg > (1.0 + r) * long_avg)


# z(MPAR_ALPHA)^2, the gate's squared critical value, as an exact ratio of ints
_GATE_Z2_NUM, _GATE_Z2_DEN = (Fraction(normal_upper_quantile(MPAR_ALPHA)) ** 2).as_integer_ratio()


@functools.lru_cache(maxsize=64)
def _t_critical_square(alpha: float, df: int) -> tuple[int, int]:
    """q^2 for q = t(1 - alpha/2, df), as an exact ratio of ints: F(1, df)
    is t(df)^2, so both tests reject above it."""
    return (Fraction(student_t_quantile(1.0 - alpha / 2.0, df)) ** 2).as_integer_ratio()


# a window of a list of counts: (list, start, stop) for list[start:stop]
_Window = tuple[Sequence[int], int, int]


def detect_statistical(baseline_par: Sequence[int] | _Window,
                       current_par: Sequence[int] | _Window, alpha: float,
                       sums: Optional[tuple[int, int, int, int]] = None) -> bool:
    """Hypothesis-testing detection on packet-arrival-rate samples.

    Gates on the upper confidence bound of the baseline mean (MPAR, at
    z = z(0.025)), then runs the pooled t-test and, when it does not
    reject, Levene's mean-centered test; the attack flag is raised if
    either rejects at the given alpha.  With nu = n_b + n_c - 2 degrees
    and q = t(1 - alpha/2, nu), the t-test rejects iff t^2 > q^2, and
    Levene iff W > q^2, because W is referred to F(1, nu) = t(nu)^2.

    The decision is exact on int counts: the sums S and Q = sum(x^2), the
    D = n * Q - S^2 and Levene's deviations |n*x - S| are ints, z^2 and
    q^2 exact ratios of ints, and every comparison cross-multiplies.  A
    baseline of equal counts (D_b = 0) fires iff the current mean is above
    its mean.  Each step needs only what it compares: the sign of the mean
    difference needs no square, and only Levene reads the samples.

    The samples are lists of int counts.  A stretch passes instead each as
    a (list, start, stop) window of its buckets, list[start:stop], with
    sums = (S_b, Q_b, S_c, Q_c) read off its prefix sums; a window is cut
    only if Levene's test is reached.
    """
    if sums is None:
        b, c = baseline_par, current_par
        sums = sum(b), sum(map(mul, b, b)), sum(c), sum(map(mul, c, c))
        baseline_par, current_par = (b, 0, len(b)), (c, 0, len(c))
    (base, b0, b1), (cur, c0, c1) = baseline_par, current_par
    n_b, n_c = b1 - b0, c1 - c0
    if n_b < 8 or n_c < 2:
        raise ValueError("statistical detection needs >= 8 baseline and >= 2 current samples")
    s_b, q_b, s_c, q_c = sums
    num = s_c * n_b - s_b * n_c              # n_b * n_c times the mean difference
    if num <= 0:
        return False
    d_b = n_b * q_b - s_b * s_b
    if d_b == 0:
        return True
    # the gate: mean difference > z * sqrt(D_b / (n_b^2 (n_b - 1)))
    if num * num * (n_b - 1) * _GATE_Z2_DEN <= _GATE_Z2_NUM * d_b * n_c * n_c:
        return False
    nu = n_b + n_c - 2
    q2_num, q2_den = _t_critical_square(alpha, nu)
    d_c = n_c * q_c - s_c * s_c
    # t^2 = num^2 nu / ((n_b + n_c)(D_b n_c + D_c n_b))
    if num * num * nu * q2_den > q2_num * (n_b + n_c) * (d_b * n_c + d_c * n_b):
        return True
    # W = nu M^2 / ((n_b + n_c)(E_b n_c^3 + E_c n_b^3)) on each group's T and
    # E, the S and D of its deviations |n*x - S|; 0 when the deviations
    # within each group are all equal.  The signed deviations sum to 0, so
    # T is twice the sum of those above the mean, and their squares sum to
    # n * D, so E = n^2 D - T^2.  For an int x, n*x > S exactly when x > S // n
    floor_b, floor_c = s_b // n_b, s_c // n_c
    above_b = [x for x in base[b0:b1] if x > floor_b]
    above_c = [x for x in cur[c0:c1] if x > floor_c]
    t_b = 2 * (n_b * sum(above_b) - s_b * len(above_b))
    t_c = 2 * (n_c * sum(above_c) - s_c * len(above_c))
    e_b, e_c = n_b * n_b * d_b - t_b * t_b, n_c * n_c * d_c - t_c * t_c
    m = t_b * n_c * n_c - t_c * n_b * n_b
    spread = e_b * n_c ** 3 + e_c * n_b ** 3
    return spread > 0 and m * m * nu * q2_den > q2_num * (n_b + n_c) * spread


class Detector:
    """Per-run detection state machine over a slotted traffic feed.

    run() takes each stretch of slots ahead to its first event.  Unfrozen,
    between episodes, it watches against a sliding reference: the long
    window for the ratio rule and the block of buckets ending c seconds in
    the past for the statistical method.  A fire freeze()s the detector
    into an episode, whose slots and buckets enter neither history, so
    monitoring continues against the references as they stood at the fire
    and attack traffic cannot poison them; a measurement window runs
    frozen with its fires ignored.  Each classification rearm()s it, and
    the first builds the episode's RestorationMonitor, which every later
    stretch of the episode runs ahead.  unfreeze() drops the episode and
    its monitor and resumes normal rotation at restoration.  The first
    enabled method to fire is reported (priority statistical > ratio >
    buffer-full within a slot).  The statistical method is re-evaluated
    whenever a one-second arrival bucket completes.  tests/reference.py
    holds the same rules one slot at a time, for both phases.
    """

    def __init__(self, cfg: DetectorConfig, slot_dt: float):
        cfg.validate()
        self.cfg = cfg
        # (w_s, w_l, c) in slots, which the run loop reads too
        self.window_slots = ws, wl, c = cfg.window_slots(slot_dt)
        self._ws_slots, self._wl_slots, self._long_slots = ws, wl, wl + c - 1
        # the slots since the short window was last cleared, at most ws;
        # the last wl + c - 1 unfrozen slots, of which the long window is
        # the newest wl and lambda-bar the oldest wl; the unfinished bucket
        self.short = self.long = self._partial = np.zeros(0, dtype=np.int64)
        self._slots_per_bucket = slots_in(1.0, slot_dt, "one second")
        # exact bucket counts whenever the statistical method is on
        self._ws_buckets = ws // self._slots_per_bucket
        # the last c + baseline_len buckets from before any episode; the
        # buckets of the episode under way, None between episodes, and how
        # many of them came before the last rearm()
        self._buckets_max = c // self._slots_per_bucket + cfg.baseline_len
        self.buckets: list[int] = []
        self._episode: Optional[list[int]] = None
        self._rearmed_at = 0
        self._lambda_bar = 0.0                  # baseline_lambda_bar() at the last freeze()
        self._slot_dt = slot_dt
        # the episode's restoration watch, from its first rearm() on
        self.restoration: Optional[RestorationMonitor] = None
        self.stat_checks = 0
        self.stat_positives = 0

    def baseline_lambda_bar(self) -> float:
        """The long window as it stood c - 1 unfrozen slots ago, in packets
        per slot: the average of the oldest wl slots of the long tail.
        Before wl + c - 1 unfrozen slots have run, that is the first wl of
        them, or all of them while fewer than wl; 0.0 before any.

        No frozen slot enters the long tail, so while frozen this is the
        value it had at the fire, which freeze() keeps: the attack cannot
        poison the reference level.
        """
        if self._episode is not None:
            return self._lambda_bar
        oldest = self.long[:self._wl_slots]
        return int(oldest.sum()) / len(oldest) if len(oldest) else 0.0

    def freeze(self) -> None:
        """Start an episode: its slots enter neither the long tail nor the
        buckets, so monitoring continues against lambda-bar and the
        statistical baseline as they stood at the fire.  The episode's
        buckets collect apart, for the current samples its checks test.
        """
        if self._episode is not None:
            raise RuntimeError("freeze needs an unfrozen detector")
        self._lambda_bar = self.baseline_lambda_bar()
        self._episode = []
        self._rearmed_at = 0

    def unfreeze(self) -> None:
        """Resume normal monitoring after restoration.

        The episode's buckets are discarded, and so are the trailing w_s
        buckets before it -- the excursion that triggered the fire -- so
        attack-era buckets never rotate into the baseline.  What is left
        is what a history of c + baseline_len buckets would hold had the
        episode's buckets pushed its oldest out and then been dropped with
        those w_s.  The short window is cleared too, so the same data
        cannot re-fire instantly; the statistical method re-arms once
        fresh buckets refill the gap.  The episode's restoration monitor
        is dropped with the filter it watched.
        """
        if self._episode is None:
            raise RuntimeError("unfreeze needs a frozen detector")
        held = len(self.buckets)
        self.buckets = self.buckets[max(0, held + len(self._episode) - self._buckets_max):
                                    max(0, held - self._ws_buckets)]
        self._episode = None
        self.restoration = None
        self.short = self.short[:0]
        self._partial = self._partial[:0]

    def rearm(self, buffer: BufferState) -> bool:
        """Require fresh post-filter traffic before the next fire, and watch
        for restoration from then to the end of the episode.

        Called when a filter is (re)activated in an episode: clears the
        short window and marks the episode's buckets so far as stale, so
        the excursion that caused the fire cannot immediately re-trigger
        the ratio or statistical method.  The episode's first call builds
        its RestorationMonitor on the buffer's l1 and on lambda-bar as it
        stood at the fire; later calls keep it.

        Returns whether buffer-full must fire on the next slot, and nothing
        before it.  A slot serves fewer than the buffer's service_per_slot
        + 1 packets, so with the occupancy service_per_slot or more above
        l1 (an exact int-to-float comparison) the next slot's backlog is at
        least l1: restoration cannot hold there and buffer-full fires.
        Nothing fires first: the short window, just emptied, refills in one
        slot only when w_s is one slot, and a statistical check needs at
        least two of the fresh buckets, just restarted.
        """
        if self._episode is None:
            raise RuntimeError("rearm needs a frozen detector")
        self.short = self.short[:0]
        self._rearmed_at = len(self._episode)
        cfg = self.cfg
        if self.restoration is None:
            self.restoration = RestorationMonitor(buffer.l1, self._lambda_bar / self._slot_dt,
                                                  cfg.r, cfg.w_s, self._ws_slots)
        return (Method.BUFFER_FULL in cfg.methods
                and buffer.occupancy - buffer.l1 >= buffer.service_per_slot
                and (self._ws_slots > 1 or Method.RATIO not in cfg.methods))

    def run(self, arrivals: np.ndarray, buffer: BufferState,
            watch: bool = True) -> tuple[int, Optional[Method], bool]:
        """The detector, the buffer and the episode's restoration monitor,
        once a rearm() has built it, over a stretch's int64 arrivals, one
        per slot, up to the first event; each searches, then each commits
        up to that slot.

        In order: the first ratio hit, from whole-array prefix sums, against
        the long window between episodes or lambda-bar in one; the buffer
        run up to that slot and no further, at the rate it was built with
        (run_ahead); the first slot at which restoration holds; the first
        backlog at or above l1 (buffer-full); then the statistical check of
        the last ws_buckets buckets at each bucket boundary up to the
        earliest of these.  Between episodes it tests against the oldest
        baseline_len of the last c + baseline_len buckets, once that many
        are held; in an episode, against the oldest baseline_len of the
        buckets held at the fire, if they were full, from the ws_buckets-th
        bucket after the freeze or the last rearm on.  Each check is one
        detect_statistical call on its two windows, with their sums and sums
        of squares read off Python-int prefix sums of the buckets, built
        once a stretch; it cuts the windows only for Levene's test.  Within
        a slot, statistical beats ratio, which beats buffer-full, and
        restoration beats a fire, whose due check still counts.  Without
        watch, in a measurement window, no fire is searched for and every
        due check is counted; that needs a frozen detector (RuntimeError
        otherwise).

        The detector's tails may be slices of arrivals, which the caller
        leaves unchanged.

        Returns the slots run, the method that fired in the last of them
        or None, and whether restoration held there.  The detector, the
        buffer and the monitor are left as the per-slot rules over those
        slots leave them.
        """
        episode, restoration = self._episode, self.restoration
        if episode is None and not watch:
            raise RuntimeError("a measurement window runs only on a frozen detector")
        cfg = self.cfg
        last = len(arrivals) - 1            # the last slot the stretch may reach
        ratio_at = full_at = len(arrivals)
        if watch and Method.RATIO in cfg.methods:
            # the averages as int / int rounds them: float64 division agrees
            # below 2**53
            short_avg = window_sums(self.short, arrivals, self._ws_slots) / self._ws_slots
            long_avg = (window_sums(self.long, arrivals, self._wl_slots) / self._wl_slots
                        if episode is None else self.baseline_lambda_bar())
            hits = detect_ratio(short_avg, long_avg, cfg.r).nonzero()[0]
            if len(hits):
                ratio_at = last = int(hits[0])
        stretch = run_ahead(buffer, arrivals[:last + 1])
        if restoration is None:
            at = None
        else:
            admitted = stretch.admitted         # for the search and the advance
            at = restoration.first_restored(stretch.backlog, admitted)
        if at is not None:
            last = at
        if watch and Method.BUFFER_FULL in cfg.methods:
            # the backlog net of each slot's service, so that one coarse
            # slot's arrival batch cannot trip it under normal load
            hits = (stretch.backlog[:last + 1] >= buffer.l1).nonzero()[0]
            if len(hits):
                full_at = last = int(hits[0])

        done = last + 1
        fired = (Method.RATIO if last == ratio_at else
                 Method.BUFFER_FULL if last == full_at else None)
        # the unfinished bucket's slots, then the stretch's: new bucket j
        # completes at slot (j + 1) * spb - fill - 1
        spb, fill, ws = self._slots_per_bucket, len(self._partial), self._ws_buckets
        slot_counts = np.concatenate((self._partial, arrivals[:done]))
        new = slot_counts[:len(slot_counts) // spb * spb].reshape(-1, spb).sum(axis=1).tolist()
        most, base_len = self._buckets_max, cfg.baseline_len
        if episode is None:
            first = max(0, most - len(self.buckets) - 1)    # the first that fills the history
        elif len(self.buckets) == most:
            # the first with ws buckets since the freeze or the last rearm
            first = max(0, ws - (len(episode) - self._rearmed_at) - 1)
        else:
            first = len(new)                    # no baseline was pinned: nothing is due
        due = range(first, len(new))
        if Method.STATISTICAL in cfg.methods and due:
            # an episode tests against the oldest base_len held at the fire,
            # and its current windows, each ending at a new bucket, lie
            # within its last ws - 1 buckets and the new ones
            buckets = (self.buckets if episode is None else
                       self.buckets[:base_len] + episode[max(0, len(episode) + 1 - ws):]) + new
            p1 = [0, *accumulate(buckets)]
            p2 = [0, *accumulate(map(mul, buckets, buckets))]
            held = len(buckets) - len(new)
            for j in due:
                top = held + j + 1                  # one past the checked bucket
                # sliding, or the oldest baseline_len held at the fire
                start = top - most if episode is None else 0
                stop, cur = start + base_len, top - ws
                self.stat_checks += 1
                if detect_statistical((buckets, start, stop), (buckets, cur, top), cfg.alpha,
                                      (p1[stop] - p1[start], p2[stop] - p2[start],
                                       p1[top] - p1[cur], p2[top] - p2[cur])):
                    self.stat_positives += 1
                    if watch:
                        done, fired = (j + 1) * spb - fill, Method.STATISTICAL
                        break
        restored = at == done - 1

        commit(buffer, stretch, done)
        if restoration is not None and not restored:
            restoration.advance(stretch.backlog[:done], admitted[:done])
        # the state the per-slot rules leave after `done` slots
        self.short = _newest(self.short, arrivals[:done], self._ws_slots)
        completed = (fill + done) // spb
        self._partial = slot_counts[completed * spb:fill + done]
        if episode is None:
            self.buckets = (self.buckets + new[:completed])[-most:]
            self.long = _newest(self.long, arrivals[:done], self._long_slots)
        else:
            episode += new[:completed]
        return done, fired, restored
