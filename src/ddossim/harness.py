"""End-to-end scenario execution and batch aggregation.

run_once drives the whole pipeline for one seed as a loop over stretches
of slots, each run ahead to its next event.  Between episodes the buffer
and the detector run on the pre-drawn slot totals to the next fire
(Detector.scan).  A fire freezes the detector and opens a measurement
window of w_s, which runs as one stretch (TrafficStream.slots,
buffer.run_ahead and buffer.commit, Detector.run_frozen): its packet
source ids are counted per source once, the traffic is classified, and
the filter activated.
The stretch ends early only at restoration or at the end of the run.
Filter slots run one at a time: each slot's packets are split, filtered,
buffered and observed, and a fire among them means the residual traffic
still looks abnormal, so the pipeline re-measures and widens the block
set; a false alarm just before the attack cannot blind the run, and a
partial first classification is progressively repaired.  Monitoring
stays pinned against the baseline frozen at the fire until restoration
releases the filter and resumes normal baseline rotation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .buffer import BufferState, commit, run_ahead, step
from .detector import Detector, DetectorConfig, Method, SlidingWindow
from .identifier import (apply_filter, estimate_attack_rate, identify_by_history,
                         identify_greedy, measure_per_source)
from .stats import sample_mean, sample_stddev, student_t_quantile
from .traffic import ScenarioConfig, TrafficStream, slots_in

__all__ = [
    "RunMetrics",
    "MetricSummary",
    "BatchStats",
    "check_configs",
    "run_once",
    "run_batch",
    "sweep_window",
    "RestorationMonitor",
]

# numeric RunMetrics fields aggregated by run_batch
BATCH_FIELDS = [
    "detection_time", "restore_time", "correctly_identified_attackers",
    "legal_filtered", "packets_dropped", "max_buffer_level", "max_buffer_time",
]


@dataclass
class RunMetrics:
    detected: bool
    detection_time: Optional[float]        # seconds after t*
    detection_method: Optional[str]
    restore_time: Optional[float]          # seconds after t*, None if never restored
    correctly_identified_attackers: int
    legal_filtered: int
    packets_dropped: int
    max_buffer_level: int
    max_buffer_time: float
    false_alarms: int                      # detector fires before t*
    ratio_fires: int                       # ratio-rule fires, any time in the run
    stat_checks: int
    stat_positives: int
    seed: int

    def as_row(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class MetricSummary:
    min: float
    avg: float
    ci95_halfwidth: float
    n: int


@dataclass
class BatchStats:
    n_runs: int
    detected_rate: float
    metrics: dict[str, MetricSummary]


class RestorationMonitor:
    """Tracks the sustained restoration condition during a filtering episode.

    Restored once the buffer backlog (net of each slot's service) has
    stayed below l1 for ws_slots consecutive slots (w_s seconds) while the
    traffic admitted over those slots is at most (1+r) times the frozen
    baseline rate over w_s.  Backlog rather than raw occupancy, for the
    same reason the buffer-full detector uses it: at coarse slot sizes one
    slot's arrival batch can exceed l1 on its own under normal load.
    """

    def __init__(self, l1: int, baseline_rate: float, r: float,
                 w_s: float, ws_slots: int):
        self.l1 = l1
        self.ws_slots = ws_slots
        self.threshold_sum = (1.0 + r) * baseline_rate * w_s
        self._admitted = SlidingWindow(ws_slots)
        self._occ_ok = 0

    def update(self, backlog: int, admitted: int) -> bool:
        self._admitted.push(admitted)
        self._occ_ok = self._occ_ok + 1 if backlog < self.l1 else 0
        return (self._occ_ok >= self.ws_slots
                and self._admitted.is_full
                and self._admitted.running_sum <= self.threshold_sum)

    def first_restored(self, backlogs: np.ndarray, admitted: np.ndarray) -> Optional[int]:
        """The first slot of these at which update() would return True, or None.

        backlogs and admitted are a stretch's int64 arrays, one per slot.
        The monitor is left as update() over the slots up to that one, or
        over all of them, leaves it.  The low-backlog run comes from the
        last slot at or above l1, the admitted window sums from prefix sums.
        """
        n = len(admitted)
        if n == 0:
            return None
        values, sums = self._admitted.pushed_sums(admitted)
        slot = np.arange(n)
        last_high = np.maximum.accumulate(np.where(backlogs >= self.l1, slot, -1))
        low_run = np.where(last_high >= 0, slot - last_high, self._occ_ok + slot + 1)
        # a window not yet full has a NaN sum, which compares False
        hits = np.flatnonzero((low_run >= self.ws_slots) & (sums <= self.threshold_sum))
        at = int(hits[0]) if len(hits) else None
        ran = n if at is None else at + 1
        self._admitted.refill(values[:len(values) - n + ran])
        self._occ_ok = int(low_run[ran - 1])
        return at


def check_configs(scenario: ScenarioConfig, cfg: DetectorConfig) -> None:
    """Reject a scenario and detector pair that cannot run as specified."""
    scenario.validate()
    cfg.validate()
    cfg.window_slots(scenario.slot_dt)
    if cfg.w_l >= scenario.t_star:
        raise ValueError("long window w_l must warm up before the attack onset t_star")
    if Method.STATISTICAL in cfg.methods:
        warmup = cfg.c + cfg.baseline_len
        if warmup >= scenario.t_star:
            raise ValueError("statistical baseline warm-up must finish before t_star")


def run_once(scenario: ScenarioConfig, detector_cfg: DetectorConfig,
             id_method: str = "greedy", seed: Optional[int] = None) -> RunMetrics:
    """Execute one complete scenario and collect its metrics."""
    check_configs(scenario, detector_cfg)
    if id_method not in ("greedy", "history"):
        raise ValueError(f"unknown identification method {id_method!r}")
    if seed is None:
        seed = scenario.seed

    ss = np.random.SeedSequence(seed)
    rng_traffic, rng_split = (np.random.default_rng(s) for s in ss.spawn(2))
    stream = TrafficStream(scenario, rng_traffic, rng_split)
    buf = BufferState(scenario.l1, scenario.l2)
    det = Detector(detector_cfg, scenario.slot_dt)

    dt = scenario.slot_dt
    service = scenario.mu * dt
    ws_slots, _, c_slots = detector_cfg.window_slots(dt)
    # reported times are whole slot counts over slots per second
    per_second = scenario.slots_per_second
    onset = slots_in(scenario.t_star, dt, "t_star")
    truth_attackers = np.arange(stream.n_sources) >= scenario.n_legal

    phase = "monitor"
    blocked: Optional[np.ndarray] = None       # sources the active filter drops
    restoration: Optional[RestorationMonitor] = None
    episode_primary = False
    fire = 0                                   # slots elapsed at the episode's fire
    window_end = 0                             # slots elapsed when the measurement ends
    baseline_rate = 0.0

    detection_time: Optional[float] = None
    detection_method: Optional[str] = None
    restore_time: Optional[float] = None
    first_blocked: Optional[np.ndarray] = None
    false_alarms = 0
    ratio_fires = 0

    n_slots = scenario.n_slots
    elapsed = 0                                # slots done
    while elapsed < n_slots:
        fired, restored = None, False
        if phase == "monitor":
            # nothing is split or filtered between episodes: run ahead on
            # the slot totals to the next fire, or to the end of the run
            ran, fired = det.scan(stream.totals[elapsed:], buf, service)
            elapsed += ran
        elif phase == "measure":
            # the window runs ahead in one stretch, to its end, to
            # restoration or to the end of the run; fires are ignored
            stop = min(window_end, n_slots)
            if blocked is None:
                arrivals = stream.totals[elapsed:stop]
                commit(buf, run_ahead(buf, arrivals, service), len(arrivals))
                if stop == window_end:
                    # a window the end of the run cuts short is never
                    # classified, so its packets are not split
                    window, _ = stream.slots(elapsed, stop)
            else:
                ids, bounds = stream.slots(elapsed, stop)
                # each slot's unblocked packets: the packets before each of
                # its bounds less the blocked ones, counted by one search
                unblocked = bounds - np.searchsorted(np.flatnonzero(blocked[ids]), bounds)
                arrivals = np.diff(unblocked)
                stretch = run_ahead(buf, arrivals, service)
                at = restoration.first_restored(stretch.backlog, stretch.admitted)
                restored = at is not None
                if restored:
                    # the stretch ends at the slot restoration holds in
                    arrivals = arrivals[:at + 1]
                commit(buf, stretch, len(arrivals))
                window = apply_filter(blocked, ids[:bounds[len(arrivals)]])
            det.run_frozen(arrivals)
            elapsed += len(arrivals)
            if elapsed < stop:
                stream.rewind(elapsed)
        else:
            # a filter slot: packet source ids, of which the blocked go
            ids = apply_filter(blocked, stream.slot(elapsed))
            elapsed += 1
            admitted = step(buf, len(ids), service)
            fired = det.observe(len(ids), buf)
            restored = restoration.update(buf.post_service_occupancy, admitted)

        if restored:
            # sustained-normal condition met: release the filter
            if episode_primary and restore_time is None:
                restore_time = (elapsed - onset) / per_second
            blocked = None
            restoration = None
            episode_primary = False
            det.unfreeze()
            phase = "monitor"
            continue

        if phase == "measure":
            if elapsed == window_end:
                m = measure_per_source(np.bincount(window, minlength=stream.n_sources),
                                       detector_cfg.w_s)
                total_rate = len(window) / detector_cfg.w_s
                budget = estimate_attack_rate(total_rate, baseline_rate)
                if id_method == "history":
                    # legal sources are active from slot 0, attackers from
                    # the onset; exempt those active c before the fire
                    active_from = np.where(truth_attackers, onset, 0)
                    pre_active = active_from <= fire - c_slots
                    suspects = identify_by_history(m, pre_active, budget)
                else:
                    suspects = identify_greedy(m, budget)
                if blocked is None:
                    blocked = suspects
                    restoration = RestorationMonitor(scenario.l1, baseline_rate,
                                                     detector_cfg.r,
                                                     detector_cfg.w_s, ws_slots)
                else:
                    # re-measurement of residual traffic: widen the block set
                    blocked = blocked | suspects
                if episode_primary and first_blocked is None:
                    first_blocked = blocked
                det.rearm()
                phase = "filter"
        elif fired is not None:
            # a fire in the monitor phase opens an episode; one during
            # filtering means the residual still looks abnormal, so measure
            # again and extend the block set
            if phase == "monitor":
                det.freeze()
                baseline_rate = det.baseline_lambda_bar() / dt
                if elapsed < onset:
                    false_alarms += 1
            if fired is Method.RATIO:
                ratio_fires += 1
            if elapsed >= onset and detection_time is None:
                latency = elapsed - onset
                if fired is Method.STATISTICAL:
                    # a statistical fire is raised when its one-second
                    # arrival sample completes; latency counts from the
                    # start of that sample
                    latency = max(0, latency - per_second)
                detection_time = latency / per_second
                detection_method = fired.value
                episode_primary = True
            fire = elapsed
            window_end = elapsed + ws_slots
            phase = "measure"

    correct = wrong = 0
    if first_blocked is not None:
        correct = int(np.count_nonzero(first_blocked & truth_attackers))
        wrong = int(np.count_nonzero(first_blocked & ~truth_attackers))
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


def batch_seeds(base_seed: int, n_runs: int) -> list[int]:
    """Independent per-run seeds derived deterministically from base_seed."""
    state = np.random.SeedSequence(base_seed).generate_state(n_runs, dtype=np.uint64)
    return [int(s) for s in state]


def _summarize(values: list[float]) -> MetricSummary:
    n = len(values)
    if n == 0:
        return MetricSummary(min=float("nan"), avg=float("nan"),
                             ci95_halfwidth=float("nan"), n=0)
    avg = sample_mean(values)
    half = 0.0
    if n >= 2:
        # the 95% Student t interval for the mean, on n - 1 degrees
        half = student_t_quantile(0.975, n - 1) * sample_stddev(values) / (n ** 0.5)
    return MetricSummary(min=min(values), avg=avg, ci95_halfwidth=half, n=n)


def run_batch(scenario: ScenarioConfig, detector_cfg: DetectorConfig,
              id_method: str, n_runs: int, base_seed: int) -> tuple[BatchStats, list[RunMetrics]]:
    """Repeat run_once over independent seeds and aggregate min/avg/CI95."""
    if n_runs < 2:
        raise ValueError("batch needs n_runs >= 2")
    runs = [run_once(scenario, detector_cfg, id_method, seed=s)
            for s in batch_seeds(base_seed, n_runs)]
    metrics = {}
    for name in BATCH_FIELDS:
        values = [float(getattr(r, name)) for r in runs
                  if getattr(r, name) is not None]
        metrics[name] = _summarize(values)
    detected_rate = sum(r.detected for r in runs) / n_runs
    return BatchStats(n_runs=n_runs, detected_rate=detected_rate, metrics=metrics), runs


def sweep_window(scenario: ScenarioConfig, detector_cfg: DetectorConfig,
                 id_method: str, ws_values: Sequence[float],
                 runs_per_value: int = 1, base_seed: int = 0) -> list[tuple[float, list[RunMetrics]]]:
    """One run-set per short-window size, with the analysis window tied to it."""
    if not ws_values:
        raise ValueError("sweep needs at least one window value")
    if runs_per_value < 1:
        raise ValueError("sweep needs runs_per_value >= 1")
    rows = []
    for w_s in ws_values:
        cfg = dataclasses.replace(detector_cfg, w_s=w_s)
        seeds = batch_seeds(base_seed, runs_per_value)
        runs = [run_once(scenario, cfg, id_method, seed=s) for s in seeds]
        rows.append((w_s, runs))
    return rows
