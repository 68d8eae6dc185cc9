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

from .buffer import BufferState, advance
from .stats import (SummaryStats, levene_test, sample_mean, t_test_pooled,
                    upper_conf_bound)
from .traffic import slots_in

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

    def __len__(self) -> int:
        return len(self.contents)


def _pushed_averages(window: SlidingWindow,
                     arrivals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The window's contents followed by arrivals, and the window's average
    after each arrival is pushed: NaN until it is full, then its sum over
    the capacity, rounded as average() rounds it (exact int64 prefix sums;
    int / int and float64 division agree below 2**53)."""
    held, cap = len(window), window.capacity
    values = np.concatenate((np.fromiter(window.contents, np.int64, held), arrivals))
    sums = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=sums[1:])
    averages = np.full(len(arrivals), np.nan)
    first = max(0, cap - held - 1)         # the first arrival that fills the window
    if first < len(arrivals):
        averages[first:] = (sums[held + first + 1:] - sums[held + first + 1 - cap:-cap]) / cap
    return values, averages


def detect_ratio(short_avg: float, long_avg: float, r: float) -> bool:
    """Ratio rule: short-time average strictly above (1+r) * long-time average."""
    if long_avg <= 0:
        return False
    return short_avg > (1.0 + r) * long_avg


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

    Feed one aggregate per slot via observe(), or, while unfrozen, run
    ahead over many slots to the next fire with scan(); the first enabled
    method to fire is reported (priority statistical > ratio > buffer-full
    within a slot).  The statistical method is re-evaluated whenever a one-second
    arrival bucket completes; its baseline is the block of buckets ending
    c seconds in the past.  While an episode (measurement/filtering) is in
    progress the caller freeze()s the detector: monitoring continues, but
    against baselines pinned at the fire, so attack traffic cannot poison
    the reference level; unfreeze() resumes normal rotation afterwards.
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
            return
        self._frozen_lambda_bar = self.baseline_lambda_bar()
        self._frozen = True
        if len(self.buckets) == self.buckets.maxlen:
            self._frozen_baseline = list(islice(self.buckets, self.cfg.baseline_len))
        else:
            self._frozen_baseline = None
        self._fresh_buckets = 0
        self._frozen_appended = 0

    def unfreeze(self) -> None:
        """Resume normal monitoring after restoration.

        All buckets collected during the episode are discarded, and so are
        the trailing w_s buckets before it -- the excursion that triggered
        the fire -- so the baseline picks up exactly where it left off and
        attack-era buckets never rotate into it.  The short window is
        cleared too, so the same data cannot re-fire instantly; the
        statistical method re-arms once fresh buckets refill the gap.
        """
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

    def _stat_check(self, baseline: Sequence[int], current: Sequence[int]) -> bool:
        """One counted statistical check of the current buckets against baseline."""
        self.stat_checks += 1
        if detect_statistical(baseline, current, self.cfg.alpha):
            self.stat_positives += 1
            return True
        return False

    def observe(self, aggregate: int,
                buffer: Optional[BufferState] = None) -> Optional[Method]:
        """Feed one slot's aggregate; the method that fired, if any.

        buffer is the state after this slot's step, for the buffer-full
        method.
        """
        cfg = self.cfg
        fired: Optional[Method] = None

        self._bucket_acc += aggregate
        self._bucket_fill += 1
        if self._bucket_fill == self._slots_per_bucket:
            self.buckets.append(self._bucket_acc)
            self._bucket_acc = 0
            self._bucket_fill = 0
            if self._frozen:
                self._fresh_buckets += 1
                self._frozen_appended += 1
            if Method.STATISTICAL in cfg.methods:
                baseline: Optional[list[int]] = None
                if self._frozen:
                    if self._fresh_buckets >= self._ws_buckets:
                        baseline = self._frozen_baseline
                elif len(self.buckets) == self.buckets.maxlen:
                    baseline = list(islice(self.buckets, cfg.baseline_len))
                if baseline is not None and self._stat_check(
                        baseline,
                        list(islice(self.buckets, len(self.buckets) - self._ws_buckets, None))):
                    fired = Method.STATISTICAL

        self.short.push(aggregate)
        if not self._frozen:
            self.long.push(aggregate)
            if self.long.is_full:
                self._lambda_bar_ring.append(self.long.average())

        if fired is None and Method.RATIO in cfg.methods and self.short.is_full:
            if self._frozen:
                if detect_ratio(self.short.average(), self._frozen_lambda_bar, cfg.r):
                    fired = Method.RATIO
            elif self.long.is_full:
                if detect_ratio(self.short.average(), self.long.average(), cfg.r):
                    fired = Method.RATIO
        if fired is None and Method.BUFFER_FULL in cfg.methods and buffer is not None:
            # backlog net of the slot's service, so a single coarse-slot
            # arrival batch cannot trip the detector under normal load
            if buffer.is_l1_backlogged():
                fired = Method.BUFFER_FULL
        return fired

    def scan(self, arrivals: np.ndarray, buffer: BufferState,
             service_per_slot: float) -> tuple[int, Optional[Method]]:
        """observe() over arrivals up to the first fire, for the unfrozen detector.

        arrivals are the int64 aggregates of the slots from here on; the
        buffer is stepped through the same slots (buffer.advance), as the
        caller of observe() would.  Returns the slots consumed and the
        method that fired in the last of them, or None if none fired and
        every slot was consumed.  The ratio rule is found from whole-array
        prefix sums and the one-second buckets from a reshape-sum; the
        statistical method is evaluated in order at each bucket boundary up
        to the fire, as observe() would.  The detector and the buffer are
        left exactly as that many observe() and step() calls leave them.
        """
        if self._frozen:
            raise RuntimeError("scan runs only on an unfrozen detector")
        cfg = self.cfg
        n = len(arrivals)
        if n == 0:
            return 0, None
        short_values, short_avg = _pushed_averages(self.short, arrivals)
        long_values, long_avg = _pushed_averages(self.long, arrivals)
        last = n - 1                        # the last slot the scan may reach
        ratio_at = n
        if Method.RATIO in cfg.methods:
            # NaN, a window not yet full, compares False
            hits = np.flatnonzero((long_avg > 0) & (short_avg > (1.0 + cfg.r) * long_avg))
            if len(hits):
                ratio_at = last = int(hits[0])

        # one-second buckets: the partial bucket's count, then the arrivals
        spb, fill = self._slots_per_bucket, self._bucket_fill
        head = np.zeros(fill, dtype=np.int64)
        if fill:
            head[0] = self._bucket_acc
        slot_counts = np.concatenate((head, arrivals))
        new = slot_counts[:len(slot_counts) // spb * spb].reshape(-1, spb).sum(axis=1).tolist()
        held = len(self.buckets)
        buckets = list(self.buckets) + new
        maxlen, base_len = self.buckets.maxlen, cfg.baseline_len

        # new bucket j completes at slot (j + 1) * spb - fill - 1; it is
        # tested once the deque is full, up to the last reachable slot
        checks = range(0)
        if Method.STATISTICAL in cfg.methods:
            checks = range(max(0, maxlen - held - 1), (last + fill + 1) // spb)
        watch_full = Method.BUFFER_FULL in cfg.methods
        fired: Optional[Method] = None
        done = 0
        for j in checks:
            end = (j + 1) * spb - fill - 1
            done += advance(buffer, arrivals[done:end + 1].tolist(), service_per_slot,
                            watch_full)
            if done <= end:
                break                       # buffer-full before the boundary
            top = held + j + 1              # buckets[top - maxlen:top] are in the deque
            if self._stat_check(buckets[top - maxlen:top - maxlen + base_len],
                                buckets[top - self._ws_buckets:top]):
                fired = Method.STATISTICAL
                break
            if watch_full and buffer.is_l1_backlogged():
                break
        else:
            done += advance(buffer, arrivals[done:last + 1].tolist(), service_per_slot,
                            watch_full)
        if fired is None:
            if done - 1 == ratio_at:
                fired = Method.RATIO
            elif watch_full and buffer.is_l1_backlogged():
                fired = Method.BUFFER_FULL

        # the state `done` observe() calls leave
        self.short.refill(short_values[:len(self.short) + done])
        self.long.refill(long_values[:len(self.long) + done])
        ring = long_avg[:done]
        self._lambda_bar_ring.extend(ring[~np.isnan(ring)][-self._lambda_bar_ring.maxlen:]
                                     .tolist())
        completed = (fill + done) // spb
        self.buckets.extend(new[max(0, completed - maxlen):completed])
        self._bucket_acc = int(slot_counts[completed * spb:fill + done].sum())
        self._bucket_fill = fill + done - completed * spb
        return done, fired
