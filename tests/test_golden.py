"""The benchmark's golden rows agree with the exact fixture.

perfbench/golden/<workload>.json holds RunMetrics.as_row() for the
benchmark's workload seeds, and perfbench/run.py checks every run
against it under its own rule: ints, bools, strings and None exactly,
floats within 1e-9.  tests/golden/runs.json holds the exact row of each
of those seeds, and tests/test_corpus.py replays it.  So each golden row
is replayed here through the fixture: it must agree with the fixture's
row under the benchmark's rule, and a re-record of the fixture that the
benchmark would refuse fails here.  The golden files are only read.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from record_corpus import FIELDS, RUNS  # noqa: E402
from golden import golden_path, mismatches, read_rows  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DOC = json.loads(RUNS.read_text())


@pytest.mark.parametrize("name", WORKLOADS)
def test_golden_rows_replay(name):
    [case] = [c for c in DOC["cases"] if c.get("workload") == name]
    exact = {r[FIELDS.index("seed")]: dict(zip(DOC["fields"], r)) for r in case["rows"]}
    golden = read_rows(golden_path(name))
    assert json.loads(golden_path(name).read_text())["fields"] == DOC["fields"]
    assert sorted(golden) == sorted(exact)
    diff = {seed: mismatches(golden[seed], exact[seed]) for seed in golden
            if mismatches(golden[seed], exact[seed])}
    assert not diff, diff
