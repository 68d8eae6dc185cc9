"""Per-slot reference simulator of the whole pipeline.

reference_run() runs a scenario one slot at a time, with the paper's
rules as straight-line code: no run-ahead, no ranges of slots split at
once, no prefix sums.  tests/test_reference.py diffs run_once against it on every
RunMetrics field, and tests/test_detector.py diffs Detector.run, the one
stretch of every phase, against ReferenceDetector, step() and update().

The traffic is CountVectorSplit: the Poisson totals drawn as
TrafficStream draws them, and a slot's per-source counts from one split
draw of its totals[i] uniforms, for each measurement or filter slot in
the order it runs.  Slots between episodes are not split, and uniforms
drawn for slots past a restoration are never drawn here, so every split
slot gets the uniforms TrafficStream's queue gives it.  step(), push()
and update() are the per-slot rules the package runs a stretch at a
time.  step() runs a ReferenceBuffer, a BufferState that also keeps the
float service credit and the backlog the last slot's service left; it
computes each slot's capacity from that credit and never reads the
package's capacity table.  ReferenceWindow and the lambda-bar ring hold
as deques the history that the package keeps as int64 tails of its
slots, and ReferenceDetector's rotating bucket deque and the copies it
pins at a freeze hold what the package keeps as its buckets from before
an episode and the episode's own list; the decision functions are the
package's own.  The identifier is reference_identify: the float prefix
rule over rates counts / w_s, which identify's integer ranking must
reproduce exactly.  The identifier's baseline is lambda-bar read once, at
the fire, where run_once reads it at each classification.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Optional

import numpy as np

from ddossim.buffer import BufferState
from ddossim.detector import DetectorConfig, Method, detect_ratio, detect_statistical
from ddossim.harness import RunMetrics, check_configs
from ddossim.traffic import ScenarioConfig, slots_in


class ReferenceBuffer(BufferState):
    """A BufferState with the two fields the per-slot rule keeps: the float
    service credit carried into the next slot, and the occupancy net of
    the last slot's service, which buffer-full and restoration read."""

    __slots__ = ("service_credit", "post_service_occupancy")

    def __init__(self, l1: int, l2: int, service_per_slot: float):
        super().__init__(l1, l2, service_per_slot)
        self.service_credit = 0.0
        self.post_service_occupancy = 0


def step(state: ReferenceBuffer, arrivals: int) -> int:
    """Advance the buffer by one slot at the rate it was built with: serve,
    then admit, then account; the packets admitted.  The cumulative
    counters carry served and dropped."""
    if arrivals < 0:
        raise ValueError("arrivals must be >= 0")

    credit = state.service_credit + state.service_per_slot
    served = min(state.occupancy, int(credit))
    state.occupancy -= served
    if state.occupancy == 0:
        # idle capacity is not banked; only the fractional remainder carries
        credit -= int(credit)
    else:
        credit -= served
    state.service_credit = credit
    state.post_service_occupancy = state.occupancy

    room = state.capacity - state.occupancy
    admitted = arrivals if arrivals <= room else room
    dropped = arrivals - admitted
    state.occupancy += admitted

    state.cumulative_offered += arrivals
    state.cumulative_served += served
    state.cumulative_dropped += dropped
    if state.occupancy > state.peak_occupancy:
        state.peak_occupancy = state.occupancy
        state.peak_slot = state._slot
    state._slot += 1
    return admitted


class ReferenceWindow:
    """Fixed-capacity window over per-slot values, pushed one at a time,
    with an incremental sum."""

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

    def clear(self) -> None:
        self.contents.clear()
        self.running_sum = 0

    @property
    def is_full(self) -> bool:
        return len(self.contents) == self.capacity

    def __len__(self) -> int:
        return len(self.contents)


class ReferenceRestorationMonitor:
    """RestorationMonitor one slot at a time: whether restoration holds."""

    def __init__(self, l1: int, baseline_rate: float, r: float, w_s: float, ws_slots: int):
        self.l1 = l1
        self.ws_slots = ws_slots
        self.threshold_sum = (1.0 + r) * baseline_rate * w_s
        self._admitted = ReferenceWindow(ws_slots)
        self._occ_ok = 0

    def update(self, backlog: int, admitted: int) -> bool:
        self._admitted.push(admitted)
        self._occ_ok = self._occ_ok + 1 if backlog < self.l1 else 0
        return (self._occ_ok >= self.ws_slots
                and self._admitted.is_full
                and self._admitted.running_sum <= self.threshold_sum)


class CountVectorSplit:
    """Reference split: one count vector over every source per slot.

    Classes and Poisson draws are built as TrafficStream builds them;
    totals holds each slot's packets.  A slot's uniforms are one draw, in
    class order; each class's share is looked up in its cumulative rate
    table by searchsorted, the rule TrafficStream's floor(u * n) must
    match, and counted into its id range of a zeros vector.
    """

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator,
                 split_rng: np.random.Generator):
        self.n_sources = cfg.n_legal + cfg.n_attack
        self.split_rng = split_rng
        self.classes = []
        self.totals = np.zeros(cfg.n_slots, dtype=np.int64)
        for first_id, n, rate, lo, hi in (
                (0, cfg.n_legal, cfg.lambda_n, 0, cfg.n_slots),
                (cfg.n_legal, cfg.n_attack, cfg.lambda_a,
                 slots_in(cfg.t_star, cfg.slot_dt, "t_star"),
                 slots_in(cfg.attack_end, cfg.slot_dt, "attack_end"))):
            if n == 0:
                continue
            rates = np.full(n, rate)
            total = float(rates.sum())
            cum_probs = np.cumsum(rates) / total
            cum_probs[-1] = 1.0
            draws = rng.poisson(total * cfg.slot_dt, size=hi - lo)
            self.totals[lo:hi] += draws
            self.classes.append((slice(first_id, first_id + n), cum_probs, draws, lo, hi))

    def slot(self, i: int) -> tuple[int, np.ndarray]:
        """(aggregate, per-source counts) of slot i."""
        aggregate = int(self.totals[i])
        per_source = np.zeros(self.n_sources, dtype=np.int64)
        keys = self.split_rng.random(aggregate)
        start = 0
        for ids, cum_probs, draws, lo, hi in self.classes:
            if not lo <= i < hi:
                continue
            u = keys[start:start + draws[i - lo]]
            start += len(u)
            idx = cum_probs.searchsorted(u, side="left")
            per_source[ids] = np.bincount(idx, minlength=len(cum_probs))
        return aggregate, per_source


def greedy_prefix(rates: np.ndarray, ids: np.ndarray, budget: float) -> np.ndarray:
    """Mask of the longest descending-rate prefix of ids (ascending) whose
    float rate sum stays within budget.

    Ties on rate break by ascending source id; the prefix ends before the
    first source that would push the sum past the budget.  cumsum adds left
    to right, and rates are >= 0, so the running sum never falls.  Tied
    rates are equal values, so the sorted values fix the prefix length and
    its last rate, the cut: the prefix is every source above the cut and
    the lowest ids at it.  A zero budget takes every candidate if all are
    silent and none otherwise.
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


def reference_identify(counts: np.ndarray, w_s: float, baseline_rate: float,
                       exempt: Optional[np.ndarray] = None) -> np.ndarray:
    """identify's suspects by the float rule: greedy_prefix over the rates
    counts / w_s of the sources outside exempt, against the window's total
    rate less baseline_rate, clamped at 0."""
    budget = max(0.0, int(counts.sum()) / w_s - baseline_rate)
    candidates = np.arange(len(counts)) if exempt is None else np.flatnonzero(~exempt)
    return greedy_prefix(counts / w_s, candidates, budget)


class ReferenceDetector:
    """The detector's rules one slot at a time, unfrozen and frozen.

    Attribute names are Detector's where the two hold the same state;
    tests/test_detector.py projects both onto one typed form, the short
    and long windows and the partial bucket from Detector's int64 tails,
    the lambda-bar ring from the wl-slices of its long tail, and the
    bucket deque and the pinned baseline, fresh-bucket and episode counts
    from its buckets, its episode list and the mark rearm() leaves in it.
    The episode's buckets rotate through the deque, and unfreeze() pops
    them and the ws_buckets before them.  observe() takes one slot: the
    statistical check when a one-second bucket completes (unfrozen
    against the oldest baseline_len buckets once the deque is full, frozen
    against the baseline pinned at freeze() from the ws_buckets-th fresh
    bucket on), then the ratio rule (unfrozen against the full long
    window, frozen against the pinned lambda-bar), then buffer-full.
    """

    def __init__(self, cfg: DetectorConfig, slot_dt: float):
        cfg.validate()
        self.cfg = cfg
        ws, wl, c = cfg.window_slots(slot_dt)
        self.short = ReferenceWindow(ws)
        self.long = ReferenceWindow(wl)
        self._slots_per_bucket = slots_in(1.0, slot_dt, "one second")
        self._bucket_acc = 0
        self._bucket_fill = 0
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
        """Long-window average from c slots back; pinned while frozen."""
        if self._frozen:
            return self._frozen_lambda_bar
        if self._lambda_bar_ring:
            return self._lambda_bar_ring[0]
        if len(self.long):
            return self.long.average()
        return 0.0

    def freeze(self) -> None:
        self._frozen_lambda_bar = self.baseline_lambda_bar()
        self._frozen = True
        self._frozen_baseline = self._baseline()
        self._fresh_buckets = 0

    def unfreeze(self) -> None:
        """Drop the episode's buckets and the ws_buckets before it, and the
        short window and partial bucket."""
        self._frozen = False
        self._frozen_baseline = None
        for _ in range(min(self._frozen_appended + self._ws_buckets, len(self.buckets))):
            self.buckets.pop()
        self._frozen_appended = 0
        self.short.clear()
        self._bucket_acc = 0
        self._bucket_fill = 0

    def rearm(self) -> None:
        self.short.clear()
        self._fresh_buckets = 0

    def _baseline(self) -> Optional[list[int]]:
        if len(self.buckets) < self.buckets.maxlen:
            return None
        return list(islice(self.buckets, self.cfg.baseline_len))

    def _push_bucket(self, count: int) -> bool:
        self.buckets.append(count)
        if self._frozen:
            self._fresh_buckets += 1
            self._frozen_appended += 1
        if Method.STATISTICAL not in self.cfg.methods:
            return False
        if self._frozen:
            baseline = self._frozen_baseline if self._fresh_buckets >= self._ws_buckets else None
        else:
            baseline = self._baseline()
        if baseline is None:
            return False
        current = list(self.buckets)[-self._ws_buckets:]
        self.stat_checks += 1
        if detect_statistical(baseline, current, self.cfg.alpha):
            self.stat_positives += 1
            return True
        return False

    def observe(self, aggregate: int,
                buffer: Optional[ReferenceBuffer] = None) -> Optional[Method]:
        """Feed one slot's aggregate; the method that fired, if any.  buffer
        is the state after this slot's step; without it buffer-full cannot
        fire."""
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
        if not self._frozen:
            self.long.push(aggregate)
            if self.long.is_full:
                self._lambda_bar_ring.append(self.long.average())

        if fired is None and Method.RATIO in cfg.methods and self.short.is_full:
            reference = (self._frozen_lambda_bar if self._frozen
                         else self.long.average() if self.long.is_full else np.nan)
            if detect_ratio(self.short.average(), reference, cfg.r):
                fired = Method.RATIO
        if (fired is None and Method.BUFFER_FULL in cfg.methods and buffer is not None
                and buffer.post_service_occupancy >= buffer.l1):
            fired = Method.BUFFER_FULL
        return fired


def reference_run(scenario: ScenarioConfig, cfg: DetectorConfig,
                  id_method: str = "greedy", seed: int = 0) -> RunMetrics:
    """run_once, one slot at a time.

    Every slot is stepped through the buffer and observed by the
    detector, in this order within the slot:
    - the detector's rules: statistical, then ratio, then buffer-full;
    - restoration, tested before a filter slot's fire counts and before
      a measurement window closes;
    - a fire while monitoring opens an episode (freeze, then a
      measurement window of w_s); one while filtering opens a
      re-measurement; one while measuring is ignored, though its checks
      are counted;
    - a measurement window closes on its w_s-th slot: classify, filter,
      rearm.
    A statistical latency counts from the start of its one-second sample.
    """
    check_configs(scenario, cfg)
    if id_method not in ("greedy", "history"):
        raise ValueError(f"unknown identification method {id_method!r}")
    rng_traffic, rng_split = (np.random.default_rng(s)
                              for s in np.random.SeedSequence(seed).spawn(2))
    traffic = CountVectorSplit(scenario, rng_traffic, rng_split)
    buf = ReferenceBuffer(scenario.l1, scenario.l2, scenario.mu * scenario.slot_dt)
    det = ReferenceDetector(cfg, scenario.slot_dt)

    ws_slots, _, c_slots = cfg.window_slots(scenario.slot_dt)
    per_second = scenario.slots_per_second
    onset = slots_in(scenario.t_star, scenario.slot_dt, "t_star")
    attackers = np.arange(traffic.n_sources) >= scenario.n_legal

    phase = "monitor"
    blocked: Optional[np.ndarray] = None
    restoration: Optional[ReferenceRestorationMonitor] = None
    window = np.zeros(traffic.n_sources, dtype=np.int64)
    primary = False
    fire = window_end = 0
    baseline_rate = 0.0
    detection_time: Optional[float] = None
    detection_method: Optional[str] = None
    restore_time: Optional[float] = None
    first_blocked: Optional[np.ndarray] = None
    false_alarms = ratio_fires = 0

    for slot in range(scenario.n_slots):
        elapsed = slot + 1
        if phase == "monitor":
            arrivals = int(traffic.totals[slot])
        else:
            _, per_source = traffic.slot(slot)
            if blocked is not None:
                per_source[blocked] = 0
            arrivals = int(per_source.sum())
            if phase == "measure":
                window += per_source
        admitted = step(buf, arrivals)
        fired = det.observe(arrivals, buf)

        # restoration is watched only while a filter is in place
        if restoration is not None and restoration.update(buf.post_service_occupancy,
                                                          admitted):
            if primary and restore_time is None:
                restore_time = (elapsed - onset) / per_second
            blocked = restoration = None
            primary = False
            det.unfreeze()
            phase = "monitor"
            continue

        if phase == "measure":
            if elapsed < window_end:
                continue
            # legal sources are active from slot 0, attackers from the
            # onset; the history method exempts those active c before the fire
            exempt = (np.where(attackers, onset, 0) <= fire - c_slots
                      if id_method == "history" else None)
            suspects = reference_identify(window, cfg.w_s, baseline_rate, exempt)
            if blocked is None:
                blocked = suspects
                restoration = ReferenceRestorationMonitor(scenario.l1, baseline_rate, cfg.r,
                                                          cfg.w_s, ws_slots)
            else:
                blocked = blocked | suspects
            if primary and first_blocked is None:
                first_blocked = blocked
            det.rearm()
            phase = "filter"
        elif fired is not None:
            if phase == "monitor":
                det.freeze()
                baseline_rate = det.baseline_lambda_bar() / scenario.slot_dt
                if elapsed < onset:
                    false_alarms += 1
            if fired is Method.RATIO:
                ratio_fires += 1
            if elapsed >= onset and detection_time is None:
                latency = elapsed - onset
                if fired is Method.STATISTICAL:
                    latency = max(0, latency - per_second)
                detection_time = latency / per_second
                detection_method = fired.value
                primary = True
            fire = elapsed
            window_end = elapsed + ws_slots
            window = np.zeros(traffic.n_sources, dtype=np.int64)
            phase = "measure"

    correct = wrong = 0
    if first_blocked is not None:
        correct = int(np.count_nonzero(first_blocked & attackers))
        wrong = int(np.count_nonzero(first_blocked & ~attackers))
    return RunMetrics(
        detected=detection_time is not None,
        detection_time=detection_time,
        detection_method=detection_method,
        restore_time=restore_time,
        correctly_identified_attackers=correct,
        legal_filtered=wrong,
        packets_dropped=buf.cumulative_dropped,
        max_buffer_level=buf.peak_occupancy,
        max_buffer_time=buf.peak_slot / per_second,
        false_alarms=false_alarms,
        ratio_fires=ratio_fires,
        stat_checks=det.stat_checks,
        stat_positives=det.stat_positives,
        seed=seed,
    )
