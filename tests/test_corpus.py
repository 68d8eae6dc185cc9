"""Differential corpus: replay recorded rows across the config space.

tests/golden/corpus.json holds RunMetrics.as_row() for each case of
tests/golden/record_corpus.py, recorded before any change that must
keep output bit-identical.  Every field must match exactly after the
JSON round trip.  Cases marked slow run under `pytest -m slow`.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from record_corpus import CORPUS, FIELDS, configs, row  # noqa: E402

DOC = json.loads(CORPUS.read_text())


def test_corpus_fields_and_cases():
    assert tuple(DOC["fields"]) == FIELDS
    names = [c["name"] for c in DOC["cases"]]
    assert len(names) == len(set(names))
    assert sum(len(c["rows"]) for c in DOC["cases"]) >= 100


@pytest.mark.parametrize("case", [
    pytest.param(c, id=c["name"], marks=[pytest.mark.slow] if c["slow"] else [])
    for c in DOC["cases"]])
def test_corpus_replays(case):
    configs(case)       # a case whose config no longer builds fails here
    for expected in case["rows"]:
        seed = expected[FIELDS.index("seed")]
        got = row(case, seed)
        diff = {f: (e, g) for f, e, g in zip(FIELDS, expected, got) if e != g}
        assert not diff, f"{case['name']} seed {seed}: {diff}"
