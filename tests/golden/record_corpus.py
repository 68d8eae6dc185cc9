"""Record the differential corpus: (config, seed) -> RunMetrics.as_row().

    PYTHONPATH=src python tests/golden/record_corpus.py

Each case is a preset with scenario and detector overrides, an
identification method and a list of seeds; corpus.json holds every
case's config and its rows, and tests/test_corpus.py replays them.  The
corpus spans the config space that the benchmark's three workloads do
not: other presets, each detection-method subset, window sizes, look-back
lengths and slot sizes.  Cases marked slow (most sim1 and case3 rows,
whose runs split 15 000 sources, and wider sim2 seed ranges) replay only
under `pytest -m slow`.

Re-record only on a deliberate change of output, in its own commit.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from ddossim import get_preset, run_once
from ddossim.detector import Method

CORPUS = Path(__file__).resolve().parent / "corpus.json"
FIELDS = (
    "detected", "detection_time", "detection_method", "restore_time",
    "correctly_identified_attackers", "legal_filtered", "packets_dropped",
    "max_buffer_level", "max_buffer_time", "false_alarms",
    "ratio_fires", "stat_checks", "stat_positives", "seed",
)

R, B, S = "ratio", "buffer_full", "statistical"
FEW = [0, 1, 2, 3]
SOME = [0, 1, 2, 3, 4, 5]


def case(name, preset, seeds, scenario=None, detector=None, id_method=None, slow=False):
    return {"name": name, "preset": preset, "scenario": scenario or {},
            "detector": detector or {}, "id_method": id_method, "slow": slow,
            "seeds": seeds}


CASES = [
    case("sim2", "sim2", [0, 1, 2, 3, 4, 5, 6, 7]),
    case("sim2-greedy", "sim2", SOME, id_method="greedy"),
    case("sim2-quiet", "sim2", SOME, scenario={"n_attack": 0}),
    case("sim2-quiet-statistical", "sim2", FEW, scenario={"n_attack": 0},
         detector={"methods": [S]}),
    case("case1", "case1", SOME),
    case("case1-greedy", "case1", [0, 1, 2], id_method="greedy"),
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
    case("sim1", "sim1", [0]),
    case("case3", "case3", [0]),
    case("sim1-more", "sim1", list(range(1, 9)), slow=True),
    case("sim1-history", "sim1", FEW, id_method="history", slow=True),
    case("case3-more", "case3", list(range(1, 9)), slow=True),
    case("sim1-quiet", "sim1", [0, 1, 2], scenario={"n_attack": 0}, slow=True),
    case("sim2-more", "sim2", list(range(8, 48)), slow=True),
    case("sim2-quiet-more", "sim2", list(range(6, 26)), scenario={"n_attack": 0}, slow=True),
]


def configs(c: dict):
    """(scenario, detector_cfg, id_method) of a corpus case."""
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


def main() -> None:
    cases = [{**{k: v for k, v in c.items() if k != "seeds"},
              "rows": [row(c, s) for s in c["seeds"]]} for c in CASES]
    with open(CORPUS, "w") as fh:
        fh.write('{"fields": %s,\n "cases": [\n' % json.dumps(list(FIELDS)))
        fh.write(",\n".join(json.dumps(c) for c in cases))
        fh.write("\n]}\n")
    print(f"{sum(len(c['rows']) for c in cases)} rows in {len(cases)} cases -> {CORPUS}")


if __name__ == "__main__":
    main()
