"""Guard for the benchmark's per-layer seams.

perfbench/tracing.py wraps the calls run_once makes into each module and
skips any call site it cannot find, so a refactor that renames or moves
one would quietly zero that layer's metrics; a changed signature would
instead turn every traced run into a failed one.  perfbench/ is only read.
"""

import importlib.util
from pathlib import Path

import pytest

from ddossim import detector, get_preset, harness

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

TRAFFIC_TO_RESTORE = {
    "traffic.stream_init", "traffic.slot", "buffer.step", "detector.observe",
    "identifier.measure_per_source", "identifier.apply_filter",
    "harness.restoration_update",
}
STATISTICAL = {
    "detector.detect_statistical", "stats.t_test_pooled", "stats.levene_test",
    "stats.upper_conf_bound", "stats.sample_mean", "stats.from_sample",
}
SEAMS = (TRAFFIC_TO_RESTORE | STATISTICAL
         | {"identifier.identify_greedy", "identifier.identify_by_history"})


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_seam_is_found():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.layer_patches(tracer, harness, detector)
    assert len(tracer.names) == len(SEAMS) == 15
    assert set(tracer.names) == SEAMS


@pytest.mark.parametrize("preset, called", [
    ("sim2", TRAFFIC_TO_RESTORE | STATISTICAL | {"identifier.identify_by_history"}),
    ("sim1", TRAFFIC_TO_RESTORE | {"identifier.identify_greedy"}),
])
def test_traced_run_matches_untraced(preset, called):
    p = get_preset(preset)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    untraced = harness.run_once(p.scenario, p.detector, p.id_method, seed=3).as_row()
    with tracing.patched(tracing.layer_patches(tracer, harness, detector)):
        traced = harness.run_once(p.scenario, p.detector, p.id_method, seed=3).as_row()
    assert traced == untraced
    assert {name for name, (calls, _, _) in tracer.totals().items() if calls} == called
