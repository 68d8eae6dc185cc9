"""Sliding-window traffic monitoring and the three attack detectors.

Approximate methods: buffer-full (the normal-operation tier l1 is at
capacity) and the ratio rule (short-time average exceeds (1+r) times the
extended-time average).  Accurate method: a hypothesis-testing pipeline on
per-second packet arrival rates -- an upper-confidence-bound gate on the
current mean, then a pooled t-test and Levene's test against the lagged
baseline, flagging if either rejects.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .buffer import BufferState, commit, run_ahead
from .stats import (SummaryStats, levene_test, sample_mean, t_test_pooled,
                    upper_conf_bound)
from .traffic import require_finite, slots_in

__all__ = [
    "Method",
    "DetectorConfig",
    "SlidingWindow",
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
        if not 0 < self.w_s < self.w_l:
            raise ValueError("need 0 < w_s < w_l")
        if self.r <= 0:
            raise ValueError("r must be > 0")
        if self.c < self.w_s:
            raise ValueError("look-back c must be >= w_s")
        if not 0 < self.alpha < 0.5:
            raise ValueError("alpha must be in (0, 0.5)")
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


class SlidingWindow:
    """Fixed-capacity window over per-slot aggregates with an incremental sum."""

    __slots__ = ("capacity", "contents", "running_sum")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.capacity = capacity
        self.contents: deque[int] = deque()
        self.running_sum = 0

    def push(self, value: int) -> None:
        if len(self.contents) == self.capacity:
            self.running_sum -= self.contents.popleft()
        self.contents.append(value)
        self.running_sum += value

    def average(self) -> float:
        if not self.contents:
            raise ValueError("window not warmed up")
        return self.running_sum / len(self.contents)

    @property
    def is_full(self) -> bool:
        return len(self.contents) == self.capacity

    def clear(self) -> None:
        self.contents.clear()
        self.running_sum = 0

    def refill(self, values: np.ndarray) -> None:
        """Hold the last `capacity` of values, as pushing each in turn leaves it."""
        self.contents = deque(values[-self.capacity:].tolist())
        self.running_sum = sum(self.contents)

    def extend(self, values: np.ndarray) -> None:
        """push() each of the int64 values in turn."""
        self.refill(np.concatenate((np.fromiter(self.contents, np.int64, len(self.contents)),
                                    values)))

    def pushed_sums(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The window's contents followed by the int64 values, for refill(),
        and running_sum after each of values is pushed in turn: NaN while the
        window is not full, then the sum from exact int64 prefix sums as a
        float64, exact below 2**53."""
        held, cap = len(self.contents), self.capacity
        values = np.concatenate((np.fromiter(self.contents, np.int64, held), values))
        prefix = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(values, out=prefix[1:])
        sums = np.full(len(values) - held, np.nan)
        first = max(0, cap - held - 1)         # the first value that fills the window
        if first < len(sums):
            sums[first:] = prefix[held + first + 1:] - prefix[held + first + 1 - cap:-cap]
        return values, sums

    def __len__(self) -> int:
        return len(self.contents)


def detect_ratio(short_avg, long_avg, r: float):
    """Ratio rule on floats, or elementwise on arrays: short-time average strictly
    above (1+r) * long-time average; a NaN long average (not yet full) never fires."""
    return (long_avg > 0) & (short_avg > (1.0 + r) * long_avg)


def detect_statistical(baseline_par: Sequence[int], current_par: Sequence[int],
                       alpha: float) -> bool:
    """Hypothesis-testing detection on packet-arrival-rate samples.

    Gates on the upper confidence bound of the baseline mean (MPAR,
    alpha = 0.025), then runs the pooled t-test and Levene's test; the
    attack flag is raised if either rejects at the given alpha (Levene
    runs only when the t-test does not).
    """
    if len(baseline_par) < 8 or len(current_par) < 2:
        raise ValueError("statistical detection needs >= 8 baseline and >= 2 current samples")
    base = SummaryStats.from_sample(baseline_par)
    cur_mean = sample_mean(current_par)
    if base.stddev == 0.0:
        # degenerate baseline: only the threshold comparison is meaningful
        return cur_mean > base.mean
    if cur_mean <= upper_conf_bound(base, MPAR_ALPHA):
        return False
    return (t_test_pooled(base, SummaryStats.from_sample(current_par)).p_value < alpha
            or levene_test(baseline_par, current_par).p_value < alpha)


class Detector:
    """Per-run detection state machine over a slotted traffic feed.

    Each entry point serves one phase.  Unfrozen, between episodes, scan()
    runs ahead over many slots to the next fire.  A fire freeze()s the
    detector: monitoring continues, but against baselines pinned at the
    fire, so attack traffic cannot poison the reference level.  Frozen,
    run_frozen() takes a measurement window's slots, whose fires the
    episode ignores, and observe() one filter slot; unfreeze() resumes
    normal rotation at restoration.  The first enabled method to fire is
    reported (priority statistical > ratio > buffer-full within a slot).
    The statistical method is re-evaluated whenever a one-second arrival
    bucket completes; its baseline is the block of buckets ending c
    seconds in the past.  tests/reference.py holds the same rules one
    slot at a time, for both phases.
    """

    def __init__(self, cfg: DetectorConfig, slot_dt: float):
        cfg.validate()
        self.cfg = cfg
        ws, wl, c = cfg.window_slots(slot_dt)
        self.short = SlidingWindow(ws)
        self.long = SlidingWindow(wl)
        self._slots_per_bucket = slots_in(1.0, slot_dt, "one second")
        self._bucket_acc = 0
        self._bucket_fill = 0
        # exact bucket counts whenever the statistical method is on
        self._ws_buckets = ws // self._slots_per_bucket
        self.buckets: deque[int] = deque(
            maxlen=c // self._slots_per_bucket + cfg.baseline_len)
        self._lambda_bar_ring: deque[float] = deque(maxlen=c)
        self.stat_checks = 0
        self.stat_positives = 0
        self._frozen = False
        self._frozen_baseline: Optional[list[int]] = None
        self._frozen_lambda_bar = 0.0
        self._fresh_buckets = 0
        self._frozen_appended = 0

    def baseline_lambda_bar(self) -> float:
        """Long-window average from c seconds back, in packets per slot.

        While frozen this is the value snapshotted at freeze time, so the
        attack cannot poison the reference level.
        """
        if self._frozen:
            return self._frozen_lambda_bar
        if self._lambda_bar_ring:
            return self._lambda_bar_ring[0]
        if len(self.long):
            return self.long.average()
        return 0.0

    def freeze(self) -> None:
        """Pin the baseline at its current value when an episode starts.

        Monitoring continues against the pinned long-window average and
        the pinned statistical baseline; the long window itself stops
        updating until unfreeze().
        """
        if self._frozen:
            raise RuntimeError("freeze needs an unfrozen detector")
        self._frozen_lambda_bar = self.baseline_lambda_bar()
        self._frozen = True
        self._frozen_baseline = self._baseline()
        self._fresh_buckets = 0

    def unfreeze(self) -> None:
        """Resume normal monitoring after restoration.

        All buckets collected during the episode are discarded, and so are
        the trailing w_s buckets before it -- the excursion that triggered
        the fire -- so the baseline picks up exactly where it left off and
        attack-era buckets never rotate into it.  The short window is
        cleared too, so the same data cannot re-fire instantly; the
        statistical method re-arms once fresh buckets refill the gap.
        """
        if not self._frozen:
            raise RuntimeError("unfreeze needs a frozen detector")
        self._frozen = False
        self._frozen_baseline = None
        for _ in range(min(self._frozen_appended + self._ws_buckets, len(self.buckets))):
            self.buckets.pop()
        self._frozen_appended = 0
        self.short.clear()
        self._bucket_acc = 0
        self._bucket_fill = 0

    def rearm(self) -> None:
        """Require fresh post-filter traffic before the next fire.

        Called when a filter is (re)activated: clears the short window and
        restarts the fresh-bucket count, so the excursion that caused the
        fire cannot immediately re-trigger the ratio or statistical method.
        """
        self.short.clear()
        self._fresh_buckets = 0

    def _baseline(self) -> Optional[list[int]]:
        """The oldest baseline_len buckets once the deque is full, else None."""
        if len(self.buckets) < self.buckets.maxlen:
            return None
        return list(islice(self.buckets, self.cfg.baseline_len))

    def _push_bucket(self, count: int) -> bool:
        """Append a one-second bucket completed while frozen and, from the
        ws_buckets-th fresh one on, check it against the pinned baseline.
        Whether it fired."""
        self.buckets.append(count)
        self._fresh_buckets += 1
        self._frozen_appended += 1
        if (Method.STATISTICAL not in self.cfg.methods or self._frozen_baseline is None
                or self._fresh_buckets < self._ws_buckets):
            return False
        return self._stat_check(
            self._frozen_baseline,
            list(islice(self.buckets, len(self.buckets) - self._ws_buckets, None)))

    def _stat_check(self, baseline: Sequence[int], current: Sequence[int]) -> bool:
        """One counted statistical check of the current buckets against baseline."""
        self.stat_checks += 1
        if detect_statistical(baseline, current, self.cfg.alpha):
            self.stat_positives += 1
            return True
        return False

    def observe(self, aggregate: int, buffer: BufferState) -> Optional[Method]:
        """Feed one filter slot's aggregate to the frozen detector; the
        method that fired, if any.

        buffer is the state after this slot's step, for the buffer-full
        method.  The ratio rule compares the short window with the
        lambda-bar pinned at freeze(); the long window stays as it was.
        """
        if not self._frozen:
            raise RuntimeError("observe runs only on a frozen detector")
        cfg = self.cfg
        fired: Optional[Method] = None

        self._bucket_acc += aggregate
        self._bucket_fill += 1
        if self._bucket_fill == self._slots_per_bucket:
            if self._push_bucket(self._bucket_acc):
                fired = Method.STATISTICAL
            self._bucket_acc = 0
            self._bucket_fill = 0

        self.short.push(aggregate)
        if (fired is None and Method.RATIO in cfg.methods and self.short.is_full
                and detect_ratio(self.short.average(), self._frozen_lambda_bar, cfg.r)):
            fired = Method.RATIO
        # backlog net of the slot's service, so a single coarse-slot arrival
        # batch cannot trip the detector under normal load
        if fired is None and Method.BUFFER_FULL in cfg.methods and buffer.is_l1_backlogged():
            fired = Method.BUFFER_FULL
        return fired

    def scan(self, arrivals: np.ndarray, buffer: BufferState,
             service_per_slot: float) -> tuple[int, Optional[Method]]:
        """The unfrozen detector over arrivals up to the first fire.

        arrivals are the int64 aggregates of the slots from here on; the
        buffer runs through the same slots (buffer.run_ahead, then
        buffer.commit), as a per-slot caller would step it.  Returns
        the slots consumed and the method that fired in the last of them,
        or None if none fired and every slot was consumed.  The ratio rule
        is found from whole-array prefix sums, the buffer-full slot from
        the stretch's backlogs, and the one-second buckets from a
        reshape-sum; the statistical method is evaluated in order at each
        bucket boundary up to the first of those fires.  The detector and
        the buffer are left exactly as the per-slot rules and step() over
        that many slots leave them.
        """
        if self._frozen:
            raise RuntimeError("scan runs only on an unfrozen detector")
        cfg = self.cfg
        n = len(arrivals)
        if n == 0:
            return 0, None
        # the averages as average() rounds them: int / int and float64
        # division agree below 2**53
        short_values, short_avg = self.short.pushed_sums(arrivals)
        short_avg /= self.short.capacity
        long_values, long_avg = self.long.pushed_sums(arrivals)
        long_avg /= self.long.capacity
        last = n - 1                        # the last slot the scan may reach
        ratio_at = full_at = n
        if Method.RATIO in cfg.methods:
            hits = np.flatnonzero(detect_ratio(short_avg, long_avg, cfg.r))
            if len(hits):
                ratio_at = last = int(hits[0])
        stretch = run_ahead(buffer, arrivals[:last + 1], service_per_slot)
        if Method.BUFFER_FULL in cfg.methods:
            hits = np.flatnonzero(stretch.backlog >= buffer.l1)
            if len(hits):
                full_at = last = int(hits[0])

        spb, fill = self._slots_per_bucket, self._bucket_fill
        slot_counts, new = self._bucket_sums(arrivals)
        held = len(self.buckets)
        buckets = list(self.buckets) + new
        maxlen, base_len = self.buckets.maxlen, cfg.baseline_len

        # new bucket j completes at slot (j + 1) * spb - fill - 1; it is
        # tested once the deque is full, up to the last reachable slot
        fired: Optional[Method] = None
        done = last + 1
        if Method.STATISTICAL in cfg.methods:
            for j in range(max(0, maxlen - held - 1), (last + fill + 1) // spb):
                top = held + j + 1          # buckets[top - maxlen:top] are in the deque
                if self._stat_check(buckets[top - maxlen:top - maxlen + base_len],
                                    buckets[top - self._ws_buckets:top]):
                    fired = Method.STATISTICAL
                    done = (j + 1) * spb - fill
                    break
        if fired is None:
            if last == ratio_at:
                fired = Method.RATIO
            elif last == full_at:
                fired = Method.BUFFER_FULL
        commit(buffer, stretch, done)

        # the state the per-slot rules leave after `done` slots
        self.short.refill(short_values[:len(self.short) + done])
        self.long.refill(long_values[:len(self.long) + done])
        ring = long_avg[:done]
        self._lambda_bar_ring.extend(ring[~np.isnan(ring)][-self._lambda_bar_ring.maxlen:]
                                     .tolist())
        completed = self._hold_partial(slot_counts, done)
        self.buckets.extend(new[max(0, completed - maxlen):completed])
        return done, fired

    def run_frozen(self, arrivals: np.ndarray) -> None:
        """observe() over the int64 arrivals on the frozen detector, whose
        fires an episode ignores: each completed bucket goes through
        _push_bucket() in order, and the short window is refilled.  The ratio
        and buffer-full rules have no state to leave while frozen."""
        if not self._frozen:
            raise RuntimeError("run_frozen runs only on a frozen detector")
        slot_counts, new = self._bucket_sums(arrivals)
        self._hold_partial(slot_counts, len(arrivals))
        for count in new:
            self._push_bucket(count)
        self.short.extend(arrivals)

    def _bucket_sums(self, arrivals: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """The partial bucket's count, then arrivals, one per slot; and the
        count of each one-second bucket that they complete, from a
        reshape-sum."""
        spb, fill = self._slots_per_bucket, self._bucket_fill
        head = np.zeros(fill, dtype=np.int64)
        if fill:
            head[0] = self._bucket_acc
        slot_counts = np.concatenate((head, arrivals))
        return (slot_counts,
                slot_counts[:len(slot_counts) // spb * spb].reshape(-1, spb).sum(axis=1).tolist())

    def _hold_partial(self, slot_counts: np.ndarray, done: int) -> int:
        """Hold the partial bucket after the first `done` arrivals of
        _bucket_sums(); the buckets those arrivals complete."""
        spb, fill = self._slots_per_bucket, self._bucket_fill
        completed = (fill + done) // spb
        self._bucket_acc = int(slot_counts[completed * spb:fill + done].sum())
        self._bucket_fill = fill + done - completed * spb
        return completed
