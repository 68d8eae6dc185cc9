"""Per-slot reference simulator of the whole pipeline.

reference_run() runs a scenario one slot at a time, with the paper's
rules as straight-line code: no run-ahead, no blocks of slots, no prefix
sums.  tests/test_reference.py diffs run_once against it on every
RunMetrics field, and tests/test_detector.py diffs Detector.scan,
Detector.run_frozen and the frozen Detector.observe against
ReferenceDetector.

The traffic is CountVectorSplit: the Poisson totals drawn as
TrafficStream draws them, and a slot's per-source counts from one split
draw of its totals[i] uniforms, for each measurement or filter slot in
the order it runs.  Slots between episodes are not split, and uniforms
drawn for slots past a restoration are never drawn here, so every split
slot gets the uniforms TrafficStream's queue gives it.  The buffer,
restoration monitor, identifier and decision functions are the
package's own per-slot ones.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Optional

import numpy as np

from ddossim.buffer import BufferState, step
from ddossim.detector import (DetectorConfig, Method, SlidingWindow, detect_ratio,
                              detect_statistical)
from ddossim.harness import RestorationMonitor, RunMetrics, check_configs
from ddossim.identifier import (estimate_attack_rate, identify_by_history, identify_greedy,
                                measure_per_source)
from ddossim.traffic import ScenarioConfig, slots_in


class CountVectorSplit:
    """Reference split: one count vector over every source per slot.

    Classes, Poisson draws and split tables are built as TrafficStream
    builds them; totals holds each slot's packets.  A slot's uniforms are
    one draw, in class order; each class's share is looked up in its
    cumulative table and counted into its id range of a zeros vector.
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


class ReferenceDetector:
    """The detector's rules one slot at a time, unfrozen and frozen.

    Attribute names and meanings are Detector's, so a test can compare
    the two field by field.  observe() takes one slot: the statistical
    check when a one-second bucket completes (unfrozen against the oldest
    baseline_len buckets once the deque is full, frozen against the
    baseline pinned at freeze() from the ws_buckets-th fresh bucket on),
    then the ratio rule (unfrozen against the full long window, frozen
    against the pinned lambda-bar), then buffer-full.
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
                buffer: Optional[BufferState] = None) -> Optional[Method]:
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
                  id_method: str = "greedy", seed: Optional[int] = None) -> RunMetrics:
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
    if seed is None:
        seed = scenario.seed
    rng_traffic, rng_split = (np.random.default_rng(s)
                              for s in np.random.SeedSequence(seed).spawn(2))
    traffic = CountVectorSplit(scenario, rng_traffic, rng_split)
    buf = BufferState(scenario.l1, scenario.l2)
    det = ReferenceDetector(cfg, scenario.slot_dt)

    service = scenario.mu * scenario.slot_dt
    ws_slots, _, c_slots = cfg.window_slots(scenario.slot_dt)
    per_second = scenario.slots_per_second
    onset = slots_in(scenario.t_star, scenario.slot_dt, "t_star")
    attackers = np.arange(traffic.n_sources) >= scenario.n_legal

    phase = "monitor"
    blocked: Optional[np.ndarray] = None
    restoration: Optional[RestorationMonitor] = None
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
        admitted = step(buf, arrivals, service)
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
            m = measure_per_source(window, cfg.w_s)
            budget = estimate_attack_rate(int(window.sum()) / cfg.w_s, baseline_rate)
            if id_method == "history":
                # legal sources are active from slot 0, attackers from the
                # onset; exempt those active c before the fire
                pre_active = np.where(attackers, onset, 0) <= fire - c_slots
                suspects = identify_by_history(m, pre_active, budget)
            else:
                suspects = identify_greedy(m, budget)
            if blocked is None:
                blocked = suspects
                restoration = RestorationMonitor(scenario.l1, baseline_rate, cfg.r,
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
