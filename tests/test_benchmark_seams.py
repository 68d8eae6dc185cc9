"""Guard for the benchmark's per-layer seams.

perfbench/tracing.py wraps the calls run_once makes into each module and
skips any call site it cannot find, so a refactor that renames or moves
one would quietly zero that layer's metrics; a changed signature would
instead turn every traced run into a failed one.  perfbench/ is only read.

The seams of the per-slot functions that stretches replaced
(traffic.slot, buffer.step, detector.observe, harness.restoration_update)
are not found, and the stretch, Detector.run, has no seam of its own yet,
so its time is billed to run_once itself.  The statistical check is one seam,
detector.detect_statistical: it decides on exact integer moments and
calls into stats for nothing but its cached critical value, so the
stats.* seams (t_test_pooled, levene_test, upper_conf_bound,
sample_mean, from_sample) are not found either.  A classification is one
identifier.identify call, which has no seam yet, so the identifier seams
of the calls it replaced (measure_per_source, identify_greedy,
identify_by_history) are not found, and identify's time is billed to
run_once itself.  Nor is identifier.apply_filter: a filter stretch counts
its unblocked packets by one search, and a window classified under the
filter counts its packets whole and zeroes the blocked sources, so no
packet is filtered out one by one.
"""

import importlib.util
from pathlib import Path

import pytest

from ddossim import cli, detector, get_preset, harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

TRAFFIC = {"traffic.stream_init"}
STATISTICAL = {"detector.detect_statistical"}
SEAMS = TRAFFIC | STATISTICAL


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_seam_is_found():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.layer_patches(tracer, harness, detector)
    assert len(tracer.names) == len(SEAMS) == 2
    assert set(tracer.names) == SEAMS


def configs(workload):
    """(scenario, detector_cfg, id_method) of a preset, or of the benchmark's
    sim2-quiet workload, read from its config file."""
    if workload == "sim2-quiet":
        scenario, detector_cfg, spec = cli.load_config(str(PERFBENCH / "sim2-quiet.ini"))
        return scenario, detector_cfg, spec.id_method
    p = get_preset(workload)
    return p.scenario, p.detector, p.id_method


@pytest.mark.parametrize("workload, called", [
    ("sim2", TRAFFIC | STATISTICAL),
    ("sim1", TRAFFIC),
    # the false-alarm study, where measurement windows count every due check
    ("sim2-quiet", TRAFFIC | STATISTICAL),
])
def test_traced_run_matches_untraced(workload, called):
    args = configs(workload)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    untraced = harness.run_once(*args, seed=3).as_row()
    with tracing.patched(tracing.layer_patches(tracer, harness, detector)):
        traced = harness.run_once(*args, seed=3).as_row()
    assert traced == untraced
    totals = tracer.totals()
    assert {name for name, (calls, _, _) in totals.items() if calls} == called
    # every statistical check goes through the wrapped module global, and
    # none is evaluated past a fire
    assert totals["detector.detect_statistical"][0] == traced["stat_checks"]
