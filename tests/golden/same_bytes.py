"""Write repr(run_once(...)) for a fixed set of runs, one line a run, so
that two commits' outputs can be compared byte for byte:

    PYTHONPATH=src python tests/golden/same_bytes.py > change.txt
    cmp parent.txt change.txt

The set is 2,113 runs: every row of the differential corpus (189), every
seed of the benchmark's golden files (484), and sim2 and case1 at seeds
0-299 and sim1 and case3 at seeds 0-59, each under both identification
methods (1,440).  A line carries every RunMetrics field at full float
precision, so an equal file is the same output, not one within the
replay tests' tolerance.  It takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from record_corpus import CASES, configs

from ddossim import cli, get_preset, run_once

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
# workload -> preset, or the INI file the benchmark reads it from
GOLDEN = {"sim2-attack": "sim2", "sim1-portal": "sim1", "sim2-quiet": "sim2-quiet.ini"}
SWEPT = {"sim2": range(300), "case1": range(300), "sim1": range(60), "case3": range(60)}


def golden_runs():
    """(scenario, detector_cfg, id_method, seed) of every golden row."""
    for workload, source in GOLDEN.items():
        if source.endswith(".ini"):
            scenario, detector, spec = cli.load_config(str(PERFBENCH / source))
            args = scenario, detector, spec.id_method
        else:
            p = get_preset(source)
            args = p.scenario, p.detector, p.id_method
        doc = json.loads((PERFBENCH / "golden" / f"{workload}.json").read_text())
        seed = doc["fields"].index("seed")
        for row in doc["rows"]:
            yield (*args, row[seed])


def runs():
    for c in CASES:
        for seed in c["seeds"]:
            yield (*configs(c), seed)
    yield from golden_runs()
    for name, seeds in SWEPT.items():
        p = get_preset(name)
        for id_method in ("greedy", "history"):
            for seed in seeds:
                yield p.scenario, p.detector, id_method, seed


def main() -> None:
    for scenario, detector, id_method, seed in runs():
        sys.stdout.write(repr(run_once(scenario, detector, id_method, seed=seed)) + "\n")


if __name__ == "__main__":
    main()
