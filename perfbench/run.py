"""ddossim benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sim2-attack --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports ddossim from src/ there.
The load is a closed loop with one caller: one process, no threads of its
own, each run starting when the previous one ends.  Every preset run is
3000 slots (300 s at slot_dt=0.1).  A pass is sized from --seconds and the
workload's nominal rate, so a given seed and --seconds always run the same
seeds and a faster program simply finishes sooner.  Runs come in chunks
(workloads.py).  An untraced run times each chunk several times and keeps
the fastest time of each CLI call and of each run_once call.

--trace 0 reports the end-to-end metrics, measured with nothing wrapped:
  runs_per_s   ddossim.cli.main(... --mode batch --format jsonl --out ...)
               once per chunk; runs / summed wall of the calls
  run_ms_p50   median wall of the run_once calls over the same seeds
  setup_s      median over fresh interpreters that import ddossim and
               resolve the workload's configs, timed from start to exit
  peak_rss_mb  max of ru_maxrss of this process and of its children
--trace 1 runs fewer chunks: each untraced, then through the CLI with spans
around its calls, then with spans around the calls run_once makes into
each module (see tracing.py).  It reports the per-layer metrics and the
tracing overhead.

Every run's RunMetrics.as_row() is checked against the golden rows where
its seed has one, against the other passes, and against row invariants;
before timing, the first golden chunk runs as warm-up and spot check.
Runs that raise, CLI calls that exit non-zero and rows that fail a check
count as failed.  The last line of stdout is the JSON result; the lines
before it are the report.  out/ gets the result with a record of the
machine, the rows (comparable across commits with golden.py compare) and,
when tracing, the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from golden import golden_path, invariant_errors, mismatches, normalize, read_rows, write_rows
from tracing import Tracer, cli_patches, layer_metrics, layer_patches, patched
from workloads import (ROOT, WORKLOADS, Workload, chunk_bases, import_ddossim, n_chunks,
                       resolve, run_seeds)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 9
P90_MIN_SAMPLES = 100       # at least ten samples above the 90th percentile


class Checker:
    """Counts attempted and failed runs and keeps the first row of each seed."""

    def __init__(self, workload: str):
        self.golden = read_rows(golden_path(workload))
        self.rows: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, where: str, why: str, runs: int = 1) -> None:
        self.attempted += runs
        self.failed += runs
        if len(self.problems) < 10:
            self.problems.append(f"{where}: {why}")

    def check(self, where: str, seed: int, row: dict) -> None:
        errs = invariant_errors(row, seed)
        if not errs and seed in self.golden and (diff := mismatches(self.golden[seed], row)):
            errs = [f"differs from golden in {', '.join(diff)}"]
        if not errs and seed in self.rows and self.rows[seed] != row:
            errs = ["differs from an earlier pass"]
        if errs:
            self.fail(f"{where} seed {seed}", "; ".join(errs))
            return
        self.attempted += 1
        self.rows.setdefault(seed, row)


class Bench:
    def __init__(self, w: Workload, checker: Checker):
        from ddossim import cli, run_once
        self.w = w
        self.cli = cli
        self.run_once = run_once
        self.configs = resolve(w)
        self.checker = checker

    def once_chunk(self, base: int, run_once=None, tracer: Tracer | None = None,
                   label: str = "once") -> list[tuple[int, float]]:
        """run_once over each run seed of the chunk, serially; (seed, wall) per run."""
        run_once = run_once or self.run_once
        times = []
        for seed in run_seeds(base, self.w.chunk_runs):
            if tracer is not None:
                tracer.current_seed[0] = seed
            t0 = time.perf_counter()
            try:
                m = run_once(*self.configs, seed=seed)
            except Exception as e:
                self.checker.fail(f"{label} seed {seed}", repr(e))
                continue
            times.append((seed, time.perf_counter() - t0))
            try:
                row = normalize(m.as_row())
            except (TypeError, ValueError) as e:
                self.checker.fail(f"{label} seed {seed}", f"row not JSON: {e!r}")
                continue
            self.checker.check(label, seed, row)
        return times

    def batch_chunk(self, base: int, main=None, tracer: Tracer | None = None) -> list[float]:
        """One CLI batch call over the chunk; its wall time, or [] if it failed."""
        main = main or self.cli.main
        out = OUT / f"batch-{self.w.name}.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        seeds = run_seeds(base, self.w.chunk_runs)
        argv = [*self.w.cli_args, "--mode", "batch", "--runs", str(self.w.chunk_runs),
                "--seed", str(base), "--format", "jsonl", "--out", str(out)]
        if tracer is not None:
            tracer.current_seed[0] = base
        try:
            t0 = time.perf_counter()
            code = main(argv)
            wall = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            with open(out) as fh:
                rows = [json.loads(line) for line in fh]
            rows = [{k: v for k, v in r.items() if k not in ("type", "run")}
                    for r in rows if r.get("type") == "run"]
            if len(rows) != len(seeds):
                raise RuntimeError(f"{len(rows)} rows for {len(seeds)} runs")
        except (Exception, SystemExit) as e:
            self.checker.fail(f"batch base {base}", repr(e), runs=len(seeds))
            return []
        for seed, row in zip(seeds, rows):
            self.checker.check(f"batch base {base}", seed, row)
        return [wall]


def measure_setup(w: Workload) -> float:
    """Wall time of one fresh interpreter that imports ddossim and resolves w."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), w.name], cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def machine_record() -> dict:
    import numpy
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        top, head = (git.stdout.split() + ["", ""])[:2]
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ddossim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(bench: Bench, bases: list[int]) -> tuple[dict, dict]:
    """w.repeats sweeps over the chunks.  Per chunk: a CLI batch call, run_once
    over the same seeds, and a share of the set-up probes, so that every
    metric is sampled across the whole run.  Each chunk and each run keeps
    its fastest time."""
    w = bench.w
    walls: dict[int, list[float]] = {}
    times: dict[int, list[float]] = {}
    setup: list[float] = []
    for sweep in range(w.repeats):
        for i, base in enumerate(bases):
            walls.setdefault(base, []).extend(bench.batch_chunk(base))
            for seed, t in bench.once_chunk(base):
                times.setdefault(seed, []).append(t)
            done = sweep * len(bases) + i + 1
            while len(setup) < math.ceil(done * SETUP_PROBES / (w.repeats * len(bases))):
                setup.append(measure_setup(w))
    best_walls = [min(ts) for ts in walls.values() if ts]
    best_times = [min(ts) for ts in times.values()]
    if not best_walls or not best_times:
        raise SystemExit("benchmark: every run failed")
    metrics = {
        "runs_per_s": (w.chunk_runs * len(best_walls) / sum(best_walls), "1/s"),
        "run_ms_p50": (statistics.median(best_times) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "runs_per_s": f"{w.chunk_runs * len(best_walls)} runs in {len(best_walls)} batch calls, "
                      f"best of {w.repeats} each",
        "run_ms_p50": f"n={len(best_times)}, best of {w.repeats} each",
        "setup_s": f"median of {len(setup)} fresh interpreters",
    }
    if len(best_times) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(best_times, n=10)[-1] * 1e3
        notes["run_ms_p90"] = f"{p90:.4f} ms, n={len(best_times)}, best of {w.repeats} each"
    return metrics, notes


def per_layer(bench: Bench, bases: list[int], tracer: Tracer) -> tuple[dict, dict]:
    """Per chunk: run_once untraced, a CLI batch call with spans around the
    CLI's calls, then run_once with spans around every layer's calls."""
    from ddossim import detector, harness
    traced_main = tracer.wrap("cli.main", bench.cli.main)
    traced_run_once = tracer.wrap("harness.run_once", bench.run_once)
    untraced, traced = [], []
    for base in bases:
        untraced += [t for _, t in bench.once_chunk(base, label="untraced")]
        with patched(cli_patches(tracer, bench.cli)):
            bench.batch_chunk(base, main=traced_main, tracer=tracer)
        with patched(layer_patches(tracer, harness, detector)):
            traced += [t for _, t in bench.once_chunk(base, run_once=traced_run_once,
                                                      tracer=tracer, label="traced")]
    if not untraced or not traced:
        raise SystemExit("benchmark: every run failed")
    runs = len(traced)
    batch_runs = len(bases) * bench.w.chunk_runs
    metrics = layer_metrics(tracer, runs, batch_runs)
    run_batch_ns = tracer.totals().get("cli.run_batch", (0, 0, 0))[1]
    metrics["harness.batch_speedup"] = (sum(untraced) * 1e9 / run_batch_ns
                                        if run_batch_ns else 0.0, "ratio")
    metrics["trace.overhead_share"] = (sum(traced) / sum(untraced) - 1, "ratio")
    notes = {"runs": f"{runs} traced runs, {batch_runs} traced batch runs, "
                     f"{len(tracer.start)} spans"}
    return metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    import_ddossim()
    w = WORKLOADS[args.workload]
    machine = machine_record()
    checker = Checker(w.name)
    bench = Bench(w, checker)
    bench.once_chunk(chunk_bases(0, 1)[0], label="spot-check")

    n = n_chunks(w, args.seconds)
    if args.trace:
        tracer = Tracer()
        bases = chunk_bases(args.seed, min(n, w.trace_chunks))
        metrics, notes = per_layer(bench, bases, tracer)
        tracer.write(OUT / f"spans-{w.name}-seed{args.seed}.npz")
    else:
        bases = chunk_bases(args.seed, n)
        metrics, notes = end_to_end(bench, bases)
    write_rows(OUT / f"rows-{w.name}-seed{args.seed}.json", w.name, list(checker.rows.values()))

    correct = checker.failed == 0
    result = {"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "chunk_bases": bases, "machine": machine,
              "notes": notes, "problems": checker.problems, **result}
    with open(OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# machine {json.dumps(machine)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:28s} {value:14.6g} {unit}{note}")
    for name in sorted(set(notes) - set(metrics)):
        print(f"# {name}: {notes[name]}")
    print(f"# failed_run_share {checker.failed / max(1, checker.attempted):.6g} "
          f"({checker.failed}/{checker.attempted})")
    for problem in checker.problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
