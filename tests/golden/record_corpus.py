"""Record tests/golden/runs.json, the exact RunMetrics row of 2,028 runs.

    PYTHONPATH=src python tests/golden/record_corpus.py           # rows that would move
    PYTHONPATH=src python tests/golden/record_corpus.py --write   # re-record

Each case is a config and a list of seeds.  Its config is a preset with
scenario and detector overrides and an identification method, or one of
the benchmark's workloads, resolved as perfbench/workloads.py resolves
it.  The cases fall in three groups, and no run is in two of them:
- the corpus (104 runs): presets with overrides, over the config space
  that the benchmark's workloads do not span: each detection-method
  subset, window sizes, look-back, slot sizes, service rate, run length,
  and no attackers;
- the benchmark's golden seeds (484 runs): every seed of
  perfbench/golden/<workload>.json, under its workload's configs;
- the sweep (1,440 runs): each preset at its own defaults and with the
  other identification method, sim2 and case1 at seeds 0-299 and sim1
  and case3 at seeds 0-59.

runs.json holds each case's config and its rows, one row a line, as the
CLI's JSON output carries them, in the order of its "fields", which are
RunMetrics' fields.  tests/test_corpus.py replays every row, and each
field must match in type and value, floats to the last bit.

Without --write, the command prints each row that would move: its case,
its seed, and every field that differs, with the recorded and the new
value.  It exits 1 if any row would move.  Re-record only on a
deliberate change of output, in its own commit, and quote those lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ddossim import get_preset, run_once
from ddossim.detector import Method
from ddossim.harness import RunMetrics

RUNS = Path(__file__).resolve().parent / "runs.json"
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
from golden import golden_path, read_rows  # noqa: E402
from workloads import WORKLOADS, resolve  # noqa: E402

FIELDS = [f.name for f in dataclasses.fields(RunMetrics)]

R, B, S = "ratio", "buffer_full", "statistical"
FEW = [0, 1, 2, 3]
SOME = [0, 1, 2, 3, 4, 5]


def case(name, preset, seeds, scenario=None, detector=None, id_method=None):
    return {"name": name, "preset": preset, "scenario": scenario or {},
            "detector": detector or {}, "id_method": id_method, "seeds": list(seeds)}


def sweep(preset, seeds, other_id_method):
    """The preset at its own defaults, and with the other identification method."""
    return [case(preset, preset, seeds),
            case(f"{preset}-{other_id_method}", preset, seeds, id_method=other_id_method)]


CASES = [
    case("sim2-quiet", "sim2", SOME, scenario={"n_attack": 0}),
    case("sim2-quiet-more", "sim2", range(6, 26), scenario={"n_attack": 0}),
    case("sim2-quiet-statistical", "sim2", FEW, scenario={"n_attack": 0},
         detector={"methods": [S]}),
    case("sim1-quiet", "sim1", [0, 1, 2], scenario={"n_attack": 0}),
    *(case(f"sim2-{'+'.join(m)}", "sim2", FEW, detector={"methods": list(m)})
      for m in ([R], [B], [S], [R, B], [R, S], [B, S])),
    *(case(f"sim2-ws{w_s:g}", "sim2", FEW, detector={"w_s": w_s})
      for w_s in (2.0, 5.0, 20.0, 40.0)),
    *(case(f"sim2-c{c:g}", "sim2", FEW, detector={"c": c}) for c in (20.0, 60.0)),
    case("sim2-ratio-ws10.5", "sim2", FEW, detector={"w_s": 10.5, "methods": [R]}),
    case("sim2-ratio+buffer-ws10.5", "sim2", [0, 1, 2],
         detector={"w_s": 10.5, "methods": [R, B]}),
    *(case(f"sim2-dt{dt:g}", "sim2", FEW, scenario={"slot_dt": dt}) for dt in (0.5, 1.0)),
    # buffer-full false-alarms before the long window fills, so lambda-bar
    # comes from a long window that is not yet full
    case("sim2-mu2", "sim2", FEW, scenario={"mu": 2.0}),
    # 6000 slots: stretches run past the buffer's cached service table
    case("sim2-long", "sim2", FEW, scenario={"total_duration": 600.0}),
    *({"name": f"golden-{w}", "workload": w, "seeds": sorted(read_rows(golden_path(w)))}
      for w in WORKLOADS),
    *sweep("sim2", range(300), "greedy"),
    *sweep("case1", range(300), "greedy"),
    *sweep("sim1", range(60), "history"),
    *sweep("case3", range(60), "history"),
]


def configs(c: dict):
    """(scenario, detector_cfg, id_method) of a case."""
    if "workload" in c:
        return resolve(WORKLOADS[c["workload"]])
    p = get_preset(c["preset"])
    detector = dict(c["detector"])
    if "methods" in detector:
        detector["methods"] = tuple(Method(m) for m in detector["methods"])
    return (dataclasses.replace(p.scenario, **c["scenario"]),
            dataclasses.replace(p.detector, **detector),
            c["id_method"] or p.id_method)


def row(c: dict, seed: int) -> list:
    """The run's row as the CLI's JSON output carries it, in FIELDS order."""
    got = json.loads(json.dumps(run_once(*configs(c), seed=seed).as_row()))
    return [got[f] for f in FIELDS]


def same(expected, got) -> bool:
    """Equal in type and value; repr tells floats apart to the last bit."""
    return type(expected) is type(got) and repr(expected) == repr(got)


def moves(name: str, fields: list, recorded: list, rows: list) -> list[str]:
    """One line for each recorded row of a case that the new rows, in FIELDS
    order, move: the case, the seed and every field that differs."""
    old = {r[fields.index("seed")]: dict(zip(fields, r)) for r in recorded}
    new = {r[FIELDS.index("seed")]: dict(zip(FIELDS, r)) for r in rows}
    lines = []
    for seed in sorted(old.keys() | new.keys()):
        if seed not in new or seed not in old:
            lines.append(f"{name} seed {seed}: {'no longer run' if seed in old else 'not recorded'}")
        elif diff := [f"{f} {show(old[seed], f)} -> {show(new[seed], f)}"
                      for f in dict.fromkeys([*fields, *FIELDS])
                      if f not in old[seed] or f not in new[seed]
                      or not same(old[seed][f], new[seed][f])]:
            lines.append(f"{name} seed {seed}: {', '.join(diff)}")
    return lines


def show(row: dict, field: str) -> str:
    return repr(row[field]) if field in row else "absent"


def spec(c: dict) -> dict:
    """A case's name and config, without its seeds or rows."""
    return {k: v for k, v in c.items() if k not in ("seeds", "rows")}


def write(cases: list[dict]) -> None:
    # one row a line, so that a re-record's git diff shows the rows that move
    with open(RUNS, "w") as fh:
        fh.write('{"fields": %s,\n "cases": [\n' % json.dumps(FIELDS))
        fh.write(",\n".join(
            json.dumps(spec(c))[:-1] + ', "rows": [\n'
            + ",\n".join(json.dumps(r) for r in c["rows"]) + "]}"
            for c in cases))
        fh.write("\n]}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help=f"re-record {RUNS.name}")
    args = parser.parse_args(argv)
    cases = [{**spec(c), "rows": [row(c, s) for s in c["seeds"]]} for c in CASES]
    doc = json.loads(RUNS.read_text())
    recorded = {c["name"]: c for c in doc["cases"]}
    lines = []
    for c in cases:
        old = recorded.pop(c["name"], {"rows": []})
        if old["rows"] and spec(old) != spec(c):
            lines.append(f"{c['name']}: config {spec(old)} -> {spec(c)}")
        lines += moves(c["name"], doc["fields"], old["rows"], c["rows"])
    lines += [f"{name}: no longer recorded" for name in recorded]
    print("\n".join(lines + [f"{len(lines)} rows or cases move"]))
    if args.write:
        write(cases)
        print(f"{sum(len(c['rows']) for c in cases)} rows in {len(cases)} cases -> {RUNS}")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
