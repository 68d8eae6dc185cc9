"""Replay every recorded run: tests/golden/runs.json, exactly.

runs.json holds RunMetrics.as_row() for the 2,028 distinct runs of
tests/golden/record_corpus.py's cases: the corpus across the config
space, every seed of the benchmark's golden files and a sweep of each
preset under both identification methods.  Every field must match in
type and value, floats to the last bit, after the JSON round trip.  A
failure names each row that moved: its case, its seed and every field
that differs, with the recorded and the new value.  Re-record with
`record_corpus.py --write`, only on a deliberate change of output.
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from record_corpus import CASES, FIELDS, RUNS, configs, moves, row, spec  # noqa: E402

DOC = json.loads(RUNS.read_text())


def test_corpus_fields_and_cases():
    assert DOC["fields"] == FIELDS
    assert [spec(c) for c in DOC["cases"]] == [spec(c) for c in CASES]
    assert len({c["name"] for c in CASES}) == len(CASES)
    assert [[r[FIELDS.index("seed")] for r in c["rows"]] for c in DOC["cases"]] == [
        c["seeds"] for c in CASES]
    runs = {(*configs(c), seed) for c in CASES for seed in c["seeds"]}
    assert len(runs) == sum(len(c["rows"]) for c in DOC["cases"]) == 2028


@pytest.mark.parametrize("case", DOC["cases"], ids=[c["name"] for c in DOC["cases"]])
def test_corpus_replays(case):
    got = [row(case, r[FIELDS.index("seed")]) for r in case["rows"]]
    moved = moves(case["name"], DOC["fields"], case["rows"], got)
    assert not moved, "\n".join(moved)


# each value written as another type, or a float one ulp off
VARIANTS = {bool: lambda v: [int(v)], int: lambda v: [float(v)],
            float: lambda v: [math.nextafter(v, math.inf), int(v)]}


def test_a_row_moves_by_type_as_well_as_value():
    """A field written as another type, or a float one ulp off, moves its
    row, and the line names the case, the seed and the field."""
    case = DOC["cases"][0]
    recorded = case["rows"][0]
    seed = recorded[FIELDS.index("seed")]
    kinds = {type(v) for v in recorded}
    assert {bool, int, float, str} <= kinds
    for f, v in zip(FIELDS, recorded):
        for c in VARIANTS.get(type(v), lambda v: [])(v):
            got = [c if g == f else w for g, w in zip(FIELDS, recorded)]
            assert moves(case["name"], FIELDS, [recorded], [got]) == [
                f"{case['name']} seed {seed}: {f} {v!r} -> {c!r}"]
    assert moves(case["name"], FIELDS, [recorded], [list(recorded)]) == []
