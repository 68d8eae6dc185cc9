"""Bit-identity gate: replay recorded RunMetrics rows through run_once.

perfbench/golden/<workload>.json holds RunMetrics.as_row() for the
benchmark's workload seeds.  The first rows of each file are replayed
in tier-1, and every row under `pytest -m slow`; ints, bools, strings
and None must match exactly, floats within 1e-9.  The files are only
read.
"""

import json
import math
from pathlib import Path

import pytest

from ddossim import cli, get_preset, run_once

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ROWS_PER_WORKLOAD = 5
WORKLOADS = ["sim2-attack", "sim1-portal", "sim2-quiet"]


def workload_configs(name):
    """(scenario, detector_cfg, id_method) as the benchmark resolves them."""
    if name == "sim2-quiet":
        scenario, detector, spec = cli.load_config(str(PERFBENCH / "sim2-quiet.ini"))
        return scenario, detector, spec.id_method
    p = get_preset({"sim2-attack": "sim2", "sim1-portal": "sim1"}[name])
    return p.scenario, p.detector, p.id_method


def golden_rows(name, limit=None):
    doc = json.loads((PERFBENCH / "golden" / f"{name}.json").read_text())
    return [dict(zip(doc["fields"], values)) for values in doc["rows"][:limit]]


def same_value(expected, got):
    if type(expected) is not type(got):
        return False
    if isinstance(expected, float):
        return math.isclose(expected, got, rel_tol=1e-9, abs_tol=1e-9)
    return expected == got


def replay(name, rows):
    scenario, detector, id_method = workload_configs(name)
    for expected in rows:
        # the JSON round trip gives the row the types the CLI's output carries
        got = json.loads(json.dumps(
            run_once(scenario, detector, id_method, seed=expected["seed"]).as_row()))
        assert got.keys() == expected.keys()
        diff = {f: (expected[f], got[f]) for f in expected
                if not same_value(expected[f], got[f])}
        assert not diff, f"seed {expected['seed']}: {diff}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_golden_rows_replay(name):
    rows = golden_rows(name, ROWS_PER_WORKLOAD)
    assert len(rows) == ROWS_PER_WORKLOAD
    replay(name, rows)


@pytest.mark.slow
@pytest.mark.parametrize("name", WORKLOADS)
def test_golden_all_rows_replay(name):
    rows = golden_rows(name)
    assert len(rows) > ROWS_PER_WORKLOAD
    replay(name, rows)
