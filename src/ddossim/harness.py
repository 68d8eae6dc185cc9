"""End-to-end scenario execution and batch aggregation.

run_once drives the whole pipeline for one seed as a loop over stretches
of slots, each run ahead to its next event by Detector.run.  Between
episodes the buffer and the detector run on the slot totals to the next
fire, at most 4096 slots a stretch, so that a long run costs time
linear in its slots.  A fire freezes the detector, and every slot from
then to restoration runs frozen: a measurement window of w_s, whose
fires are ignored and whose traffic is then classified, and filter
slots, which drop the blocked sources' packets, up to the next fire.
That fire means the residual traffic still looks abnormal, so the pipeline
re-measures and widens the block set; a false alarm just before the
attack cannot blind the run, and a partial first classification is
progressively repaired.  When Detector.rearm, at a classification, finds
that buffer-full fires on the next slot and nothing can fire first, that
fire is recorded at once and its slot runs in one stretch with the
window it opens.  Restoration, which the detector watches from the
episode's first classification on, releases the filter and resumes
normal baseline rotation.

Each stretch is one ask of the stream, which splits it only if it
filters or is a window that will be classified.  The ask counts each
slot's unblocked packets without building them, and the window's
packets by source, zero on the blocked ones, so no split is read after
the call that made it.  The next ask takes back the slots that a split
stretch cut short by an event did not run.  A window cut short by the
end of the run is never classified, so an episode's first window is
then not split.

The loop keeps only the state it cannot derive.  The slot of the
episode's last fire is None between episodes, and a stretch that starts
less than w_s after it is a measurement window.  The attack is detected
once, and the first restoration after that ends the primary episode,
whose first block set is the one reported.

Under the history method a run is settled at the first fire whose exempt
mask covers every source.  The mask only grows with the fire slot, so no
later classification can pick anyone: none splits, counts or ranks its
window.  A block set that has members keeps filtering to restoration, and
one that has none is dropped, so a stretch without a member to block is
never split.  Every split left comes before the first one skipped, and
gets the uniforms it always had.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .buffer import BufferState
# unused here: perfbench/tracing.py looks RestorationMonitor up on this module
from .detector import Detector, DetectorConfig, Method, RestorationMonitor  # noqa: F401
from .identifier import identify
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
        # every field holds a scalar, which dataclasses.asdict would deep-copy
        return {name: getattr(self, name) for name in _ROW_KEYS}


_ROW_KEYS = tuple(f.name for f in dataclasses.fields(RunMetrics))


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


def check_configs(scenario: ScenarioConfig, cfg: DetectorConfig) -> None:
    """Reject a scenario and detector pair that cannot run as specified:
    detector windows off the scenario's slot grid, then a detector that
    cannot warm up before the attack.  Each config checked itself when it
    was made."""
    cfg.window_slots(scenario.slot_dt)
    if cfg.w_l >= scenario.t_star:
        raise ValueError("long window w_l must warm up before the attack onset t_star")
    if Method.STATISTICAL in cfg.methods:
        warmup = cfg.c + cfg.baseline_len
        if warmup >= scenario.t_star:
            raise ValueError("statistical baseline warm-up must finish before t_star")


def run_once(scenario: ScenarioConfig, detector_cfg: DetectorConfig,
             id_method: str = "greedy", seed: int = 0) -> RunMetrics:
    """Execute one complete scenario and collect its metrics.

    The buffer is built with the scenario's service rate, its exact
    service_per_slot, and serves at it for the whole run.

    The configs checked themselves when they were made.  check_configs
    runs first, then the identification method is checked, and a seed
    that numpy rejects is reported last.  The detector holds each
    episode's restoration monitor, so the loop never builds one."""
    check_configs(scenario, detector_cfg)
    if id_method not in ("greedy", "history"):
        raise ValueError(f"unknown identification method {id_method!r}")
    ss = np.random.SeedSequence(seed)
    rng_traffic, rng_split = (np.random.default_rng(s) for s in ss.spawn(2))
    stream = TrafficStream(scenario, rng_traffic, rng_split)
    dt = scenario.slot_dt
    buf = BufferState(scenario.l1, scenario.l2, scenario.service_per_slot)
    det = Detector(detector_cfg, dt)

    ws_slots, _, c_slots = det.window_slots
    # reported times are whole slot counts over slots per second
    per_second = scenario.slots_per_second
    onset = slots_in(scenario.t_star, dt, "t_star")
    truth_attackers = np.arange(stream.n_sources) >= scenario.n_legal
    # legal sources are active from slot 0, attackers from the onset; the
    # history method exempts those active c before the episode's fire
    active_from = np.where(truth_attackers, onset, 0) if id_method == "history" else None
    exempt: Optional[np.ndarray] = None
    settled = False                            # every source is exempt

    fire: Optional[int] = None                 # slots elapsed at the episode's last fire
    blocked: Optional[np.ndarray] = None       # sources the active filter drops

    # detection is set once, and the restoration that follows ends the
    # primary episode: it is in progress while one is set and not the other
    detection_time: Optional[float] = None
    detection_method: Optional[str] = None
    restore_time: Optional[float] = None
    first_blocked: Optional[np.ndarray] = None
    false_alarms = 0
    ratio_fires = 0

    n_slots = scenario.n_slots
    elapsed = 0                                # slots done
    while elapsed < n_slots:
        # one stretch from slot lo: between episodes to the next fire, the
        # end of the run or 4096 slots ahead, a window to its end, filter
        # slots w_s ahead and on while nothing happens.  Detector.run builds
        # arrays of a stretch's length, so a stretch between episodes is
        # capped, above a preset run's 3000 slots so that none of them is cut
        lo = elapsed
        measuring = fire is not None and lo < fire + ws_slots
        stop = min(lo + 4096 if fire is None else (fire if measuring else lo) + ws_slots, n_slots)
        # the stream splits a stretch's packets only if it filters them,
        # or if it is a window that will be classified: one that is not
        # cut short by the end of the run, while the run is not settled.
        # Its window is counted in the same call, from the fire's slot,
        # which is the stretch's second after a forced fire.  Nothing is
        # split between episodes, nor once the run is settled without a
        # member to block
        window = fire if measuring and not settled and stop == fire + ws_slots else None
        arrivals, counts = stream.unblocked(lo, stop, blocked, window)
        ran, fired, restored = det.run(arrivals, buf, watch=not measuring)
        elapsed += ran

        if restored:
            # sustained-normal condition met: release the filter
            if detection_time is not None and restore_time is None:
                restore_time = (elapsed - onset) / per_second
            fire = blocked = None
            det.unfreeze()
            continue

        fired_at = elapsed                     # slots elapsed at a fire
        if measuring and elapsed == fire + ws_slots:
            # a window runs to its end in one stretch, from the fire or
            # from a forced fire's slot, and the stretch's split counted
            # it, zero on the blocked sources.  Once the run is settled
            # nobody can be picked: the window is neither split nor
            # counted, and the block set stays as it is
            if not settled:
                # the budget's baseline is lambda-bar as it stood at the
                # episode's fire: no frozen slot has entered the long tail
                suspects = identify(counts, detector_cfg.w_s, det.baseline_lambda_bar() / dt,
                                    exempt)
                # re-measurement of residual traffic widens the block set
                blocked = suspects if blocked is None else blocked | suspects
            if first_blocked is None and detection_time is not None and restore_time is None:
                first_blocked = blocked
            # rearming starts the episode's restoration watch on its first
            # classification; a fire certain on the next slot is recorded
            # now, so that slot and the window it opens run as one stretch
            if det.rearm(buf) and elapsed < n_slots:
                fired, fired_at = Method.BUFFER_FULL, elapsed + 1
        if fired is not None:
            # a fire between episodes opens one; one during filtering
            # means the residual still looks abnormal, so measure again
            # and extend the block set
            if fire is None:
                det.freeze()
                if fired_at < onset:
                    false_alarms += 1
            if fired is Method.RATIO:
                ratio_fires += 1
            if fired_at >= onset and detection_time is None:
                latency = fired_at - onset
                if fired is Method.STATISTICAL:
                    # a statistical fire is raised when its one-second
                    # arrival sample completes; latency counts from the
                    # start of that sample
                    latency = max(0, latency - per_second)
                detection_time = latency / per_second
                detection_method = fired.value
            fire = fired_at
            if active_from is not None and not settled:
                exempt = active_from <= fire - c_slots
                # the mask only grows with the fire slot: once it covers
                # every source the run stays settled, no block set can gain
                # a member, and one that has none filters nothing
                settled = bool(exempt.all())
                if settled and blocked is not None and not blocked.any():
                    blocked = None

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
