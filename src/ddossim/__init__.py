"""Slotted-traffic DDoS detection simulator.

Traffic generation, a two-tier FIFO buffer, sliding-window and
hypothesis-testing attack detectors, greedy attacker identification with
per-source filtering, and a batch harness with confidence-interval
reporting.
"""

from .buffer import BufferState, step
from .detector import (Detector, DetectorConfig, Method, SlidingWindow,
                       detect_ratio, detect_statistical)
from .harness import (BatchStats, MetricSummary, RunMetrics, run_batch,
                      run_once, sweep_window)
from .identifier import (PerSourceMeasurement, WindowCounts, apply_filter,
                         estimate_attack_rate, identify_by_history,
                         identify_greedy, measure_per_source)
from .presets import PRESETS, Preset, get_preset
from .stats import (ConfidenceBound, SummaryStats, TestResult, ks_normality,
                    levene_test, pooled_variance, sample_mean, sample_stddev,
                    t_test_pooled, upper_conf_bound)
from .traffic import ScenarioConfig, SlotTraffic, TrafficStream

__version__ = "0.1.0"
