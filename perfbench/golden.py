"""Golden RunMetrics rows: storage, comparison and recording.

golden/<workload>.json holds RunMetrics.as_row() for every run of the
default workload seeds at the default --seconds, recorded on the commit
that introduced the benchmark.  Ints, bools, strings and None compare
exactly, floats within 1e-9.  A run under any other seed writes its rows
in the same format to out/, so two commits can be compared directly:

    python3 perfbench/golden.py record
    python3 perfbench/golden.py compare out/rows-sim2-attack-seed42.json other.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from workloads import (WORKLOADS, chunk_bases, import_ddossim, n_chunks, resolve,
                       run_seeds)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIELDS = (
    "detected", "detection_time", "detection_method", "restore_time",
    "correctly_identified_attackers", "legal_filtered", "packets_dropped",
    "max_buffer_level", "max_buffer_time", "false_alarms",
    "ratio_fires", "stat_checks", "stat_positives", "seed",
)
DEFAULT_SEEDS = range(11)
DEFAULT_SECONDS = 30        # run_seconds in BENCHMARK.json
FLOAT_TOL = 1e-9


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def normalize(row: dict) -> dict:
    """The row as the CLI's JSON output carries it (raises on non-JSON values)."""
    return json.loads(json.dumps(row))


def write_rows(path: Path, workload: str, rows: list[dict]) -> None:
    """One row per line, sorted by seed, so two files diff cleanly."""
    rows = sorted(rows, key=lambda r: r["seed"])
    lines = [json.dumps([r[f] for f in FIELDS]) for r in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write('{"workload": %s,\n "fields": %s,\n "rows": [\n'
                 % (json.dumps(workload), json.dumps(list(FIELDS))))
        fh.write(",\n".join(lines))
        fh.write("\n]}\n")


def read_rows(path: Path) -> dict[int, dict]:
    """Rows keyed by run seed."""
    with open(path) as fh:
        doc = json.load(fh)
    return {row["seed"]: row for row in (dict(zip(doc["fields"], vals)) for vals in doc["rows"])}


def same_value(expected, got) -> bool:
    if type(expected) is not type(got):
        return False
    if isinstance(expected, float):
        return math.isclose(expected, got, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
    return expected == got


def mismatches(expected: dict, got: dict) -> list[str]:
    """Names of the fields where got differs from expected."""
    return [f for f in FIELDS
            if f not in expected or f not in got or not same_value(expected[f], got[f])]


def invariant_errors(row: dict, seed: int) -> list[str]:
    """Checks every row must pass, whether or not its seed has a golden row."""
    errs = []
    if missing := [f for f in FIELDS if f not in row]:
        return [f"missing fields {missing}"]
    if row["seed"] != seed:
        errs.append(f"seed {row['seed']} != {seed}")
    if row["detected"] != (row["detection_time"] is not None):
        errs.append("detected disagrees with detection_time")
    if row["detected"] != (row["detection_method"] is not None):
        errs.append("detected disagrees with detection_method")
    if not 0 <= row["stat_positives"] <= row["stat_checks"]:
        errs.append("stat_positives outside [0, stat_checks]")
    for f in ("correctly_identified_attackers", "legal_filtered", "packets_dropped",
              "max_buffer_level", "false_alarms", "ratio_fires"):
        if not isinstance(row[f], int) or row[f] < 0:
            errs.append(f"{f} is not a non-negative int")
    return errs


def record() -> None:
    import_ddossim()
    from ddossim import run_once
    for w in WORKLOADS.values():
        scenario, detector, id_method = resolve(w)
        rows = {}
        for seed in DEFAULT_SEEDS:
            for base in chunk_bases(seed, n_chunks(w, DEFAULT_SECONDS)):
                for s in run_seeds(base, w.chunk_runs):
                    if s not in rows:
                        rows[s] = normalize(run_once(scenario, detector, id_method, seed=s).as_row())
        write_rows(golden_path(w.name), w.name, list(rows.values()))
        print(f"{w.name}: {len(rows)} rows")


def compare(path_a: Path, path_b: Path) -> int:
    a, b = read_rows(path_a), read_rows(path_b)
    bad = 0
    for seed in sorted(set(a) | set(b)):
        if seed not in a or seed not in b:
            print(f"seed {seed}: only in {path_a if seed in a else path_b}")
            bad += 1
        elif diff := mismatches(a[seed], b[seed]):
            print(f"seed {seed}: differs in {', '.join(diff)}")
            bad += 1
    print(f"{bad} of {len(set(a) | set(b))} rows differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["record"]:
        record()
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    else:
        sys.exit(__doc__)
