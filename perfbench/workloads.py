"""Benchmark workloads: which configs each one runs and which seeds.

A workload seed expands into a sequence of CLI batch calls ("chunks").
Chunk k uses base seed ``chunk_bases(seed, K)[k]`` and its runs use the
per-run seeds ``run_seeds(base, chunk_runs)``, the derivation ddossim's
batch mode uses; it is repeated here so that a change to it shows up as
rows that no longer match.  Both sequences are prefix-stable, so a longer
run repeats a shorter one and then continues.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
QUIET_INI = Path(__file__).resolve().parent / "sim2-quiet.ini"


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]     # how a CLI user selects the configs
    chunk_runs: int               # runs per CLI batch call
    nominal_runs_per_s: float     # sizes a run to --seconds on a 2-CPU host
    repeats: int                  # sweeps over the chunks in an untraced run
    trace_chunks: int             # chunks in a traced run; bounds span memory


# Every preset run is 3000 slots (300 s at slot_dt=0.1).  An untraced run
# times every chunk `repeats` times, in sweeps over all chunks, and keeps
# the fastest time of each: on a shared host, spells of 10-40 s in which
# the same work runs 30-60% slower would otherwise decide the medians.
# Short chunks and many sweeps give every chunk more chances to meet a
# quiet moment, but leave fewer distinct runs: sim2 chunks are the
# smallest batch (2 runs, so the CLI's per-call cost weighs more than in
# a long batch) swept 20 times; the long sim1 runs get 5 sweeps.
WORKLOADS = {w.name: w for w in (
    # all three detectors, history identification, 100 sources: per-slot
    # Python overhead in traffic.slot, buffer.step and Detector.observe
    Workload("sim2-attack", ("--preset", "sim2"), 2, 25.0, 20, 10),
    # 15 000 sources, ratio + buffer-full detection, greedy identification:
    # the per-source split and the identifier; stats is never called
    Workload("sim1-portal", ("--preset", "sim1"), 2, 1.3, 5, 2),
    # sim2 without attackers: the detector stays unfrozen and the
    # statistical pipeline runs every second
    Workload("sim2-quiet", ("--config", str(QUIET_INI)), 2, 25.0, 20, 10),
)}


def import_ddossim():
    """Import ddossim from this checkout's src/, never from an installed copy."""
    pkg = ROOT / "src" / "ddossim"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ddossim sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import ddossim
    if Path(ddossim.__file__).resolve().parent != pkg:
        raise SystemExit(f"benchmark: imported ddossim from {ddossim.__file__}, not {pkg}")
    return ddossim


def resolve(w: Workload):
    """(scenario, detector_cfg, id_method) exactly as the CLI resolves them."""
    from ddossim import cli, get_preset
    kind, value = w.cli_args
    if kind == "--preset":
        p = get_preset(value)
        return p.scenario, p.detector, p.id_method
    scenario, detector, spec = cli.load_config(value)
    return scenario, detector, spec.id_method


def n_chunks(w: Workload, seconds: float) -> int:
    """Chunks in an untraced run, which makes each chunk's runs w.repeats
    times through each of two entry points within about `seconds`."""
    return max(1, math.ceil(seconds / (2 * w.repeats) * w.nominal_runs_per_s / w.chunk_runs))


def chunk_bases(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)]


def run_seeds(base: int, n_runs: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(base).generate_state(n_runs, dtype=np.uint64)]
