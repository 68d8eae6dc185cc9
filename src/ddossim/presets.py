"""Built-in scenario presets.

sim1 is a large web portal under a distributed flood (10000 legal clients,
5000 attackers, fast service); sim2 a medium server with matched source
counts and small buffers.  case1 and case3 run the same pipeline on a
small server and on a large portal with a heavier attack; the medium case
is sim2.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .detector import ALL_METHODS, DetectorConfig, Method
from .traffic import ScenarioConfig

__all__ = ["Preset", "PRESETS", "get_preset"]


@dataclass(frozen=True)
class Preset:
    scenario: ScenarioConfig
    detector: DetectorConfig
    id_method: str


_COMMON = dict(t_star=100.0, attack_end=200.0, total_duration=300.0, slot_dt=0.1)

_DETECTOR_DEFAULTS = dict(w_s=10.0, w_l=45.0, r=0.6, c=45.0, alpha=0.05,
                          baseline_len=30)

# read-only, so no caller can change what a preset name runs in this process
PRESETS: Mapping[str, Preset] = MappingProxyType({
    # large portal: 10000 legal at 0.1 pkt/s vs 5000 attackers at 0.4 pkt/s;
    # approximate detectors plus greedy identification
    "sim1": Preset(
        scenario=ScenarioConfig(n_legal=10000, n_attack=5000, lambda_n=0.1,
                                lambda_a=0.4, mu=1500.0, l1=40, l2=30000,
                                **_COMMON),
        detector=DetectorConfig(methods=(Method.RATIO, Method.BUFFER_FULL),
                                **_DETECTOR_DEFAULTS),
        id_method="greedy",
    ),
    # medium server: 50 vs 50 sources, small buffers, all three detectors
    # and history-based identification
    "sim2": Preset(
        scenario=ScenarioConfig(n_legal=50, n_attack=50, lambda_n=0.1,
                                lambda_a=0.2, mu=8.0, l1=40, l2=160,
                                **_COMMON),
        detector=DetectorConfig(methods=ALL_METHODS, **_DETECTOR_DEFAULTS),
        id_method="history",
    ),
    # small corporate server: few legal clients, many attackers
    "case1": Preset(
        scenario=ScenarioConfig(n_legal=5, n_attack=40, lambda_n=0.1,
                                lambda_a=0.4, mu=4.0, l1=40, l2=160,
                                **_COMMON),
        detector=DetectorConfig(methods=ALL_METHODS, **_DETECTOR_DEFAULTS),
        id_method="history",
    ),
    # global portal with a 10x per-source attack rate
    "case3": Preset(
        scenario=ScenarioConfig(n_legal=10000, n_attack=5000, lambda_n=0.1,
                                lambda_a=1.0, mu=1500.0, l1=40, l2=30000,
                                **_COMMON),
        detector=DetectorConfig(methods=(Method.RATIO, Method.BUFFER_FULL),
                                **_DETECTOR_DEFAULTS),
        id_method="greedy",
    ),
})


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
