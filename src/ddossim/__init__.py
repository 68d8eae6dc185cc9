"""Slotted-traffic DDoS detection simulator.

Traffic generation, a two-tier FIFO buffer, sliding-window and
hypothesis-testing attack detectors, greedy attacker identification with
per-source filtering, and a batch harness with confidence-interval
reporting.

The package root holds what a user runs: the configs and presets, the
detection methods, and the run, batch and sweep entry points with their
results.  The pipeline's parts stay importable from their modules.
"""

from .detector import DetectorConfig, Method
from .harness import (BatchStats, MetricSummary, RunMetrics, run_batch,
                      run_once, sweep_window)
from .presets import PRESETS, Preset, get_preset
from .traffic import ScenarioConfig

__all__ = [
    "ScenarioConfig", "DetectorConfig", "Method",
    "PRESETS", "Preset", "get_preset",
    "run_once", "run_batch", "sweep_window",
    "RunMetrics", "BatchStats", "MetricSummary",
]

__version__ = "0.1.0"
