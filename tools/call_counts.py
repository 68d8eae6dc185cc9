"""Count the Python and C calls a run makes, in total and by module.

For each of sim2, sim1 and sim2-quiet (sim2 with n_attack = 0), and each
seed 0-19, run_once runs once to warm the per-config caches, and then
once more under sys.setprofile.  Every "call" and "c_call" event of that
second run is billed to the module of the nearest ddossim frame: the
frame itself for a Python call, the caller for a C call.  An event with
no ddossim frame on its stack, such as the call that stops the count, is
not counted.  The counts are exact and repeat from run to run, so they
compare two trees where times need many interleaved pairs.

    PYTHONPATH=src python3 tools/call_counts.py

prints the mean calls a run for each preset, in total and by module.  It
writes nothing.
"""

import dataclasses
import sys
from collections import Counter

from ddossim.harness import run_once
from ddossim.presets import PRESETS

SEEDS = range(20)


def workloads():
    """(name, scenario, detector config, identification method)."""
    sim1, sim2 = PRESETS["sim1"], PRESETS["sim2"]
    yield "sim2", sim2.scenario, sim2.detector, sim2.id_method
    yield "sim1", sim1.scenario, sim1.detector, sim1.id_method
    yield ("sim2-quiet", dataclasses.replace(sim2.scenario, n_attack=0), sim2.detector,
           sim2.id_method)


def billed_module(frame):
    """The module of the nearest ddossim frame from frame outwards, or None."""
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name == "ddossim" or name.startswith("ddossim."):
            return name
        frame = frame.f_back
    return None


def counted_run(scenario, detector, id_method, seed) -> Counter:
    """The calls of one run_once, by the module they are billed to."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            module = billed_module(frame)
            if module is not None:
                counts[module] += 1

    sys.setprofile(profile)
    try:
        run_once(scenario, detector, id_method, seed)
    finally:
        sys.setprofile(None)
    return counts


def main() -> None:
    for name, scenario, detector, id_method in workloads():
        total = Counter()
        for seed in SEEDS:
            run_once(scenario, detector, id_method, seed)
            total += counted_run(scenario, detector, id_method, seed)
        runs = len(SEEDS)
        print(f"{name}: {sum(total.values()) / runs:.1f} calls a run over seeds "
              f"{SEEDS.start}-{SEEDS.stop - 1}")
        for module, calls in total.most_common():
            print(f"  {module:20} {calls / runs:8.1f}")


if __name__ == "__main__":
    main()
