"""Self-test of the benchmark's checker and output.

    python3 perfbench/selftest.py

1. A golden row that is perturbed in any field counts as a failed run;
   an exact copy, or a float within the tolerance, does not.
2. Smoke-sized runs of every workload, untraced and traced, print every
   metric of BENCHMARK.json by name with its unit and fail no run;
   stats.calls is 0 on sim1-portal.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from golden import FIELDS, golden_path, read_rows
from run import Checker
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def failed_count(workload: str, seed: int, row: dict) -> int:
    checker = Checker(workload)
    checker.check("selftest", seed, row)
    return checker.failed


def test_checker() -> None:
    for name in WORKLOADS:
        golden = read_rows(golden_path(name))
        seed, row = next(iter(golden.items()))
        check(failed_count(name, seed, dict(row)) == 0, f"{name}: exact golden row passes")
        for field in FIELDS:
            value = row[field]
            if isinstance(value, bool):
                bad = not value
            elif isinstance(value, int):
                bad = value + 1
            elif isinstance(value, float):
                bad = value * (1 + 1e-6) + 1e-6
            elif value is None:
                bad = 1.0
            else:
                bad = value + "x"
            check(failed_count(name, seed, {**row, field: bad}) == 1,
                  f"{name}: perturbed {field} counts as failed")
        floats = [f for f in FIELDS if isinstance(row[f], float)]
        if floats:
            near = {**row, floats[0]: row[floats[0]] * (1 + 1e-12)}
            check(failed_count(name, seed, near) == 0, f"{name}: float within 1e-9 passes")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_smoke() -> None:
    for name in WORKLOADS:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run_bench(ROOT, name, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                check(False, f"{name} trace {trace}: prints a JSON result ({proc.stderr[-300:]})")
                continue
            check(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
                  f"{name} trace {trace}: exit 0, correct, no failed runs")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in declared},
                  f"{name} trace {trace}: result holds exactly the declared metrics")
            for m in declared:
                shown = any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                            for line in lines[:-1])
                check(shown and metrics.get(m["name"], {}).get("unit") == m["unit"],
                      f"{name} trace {trace}: {m['name']} printed with unit {m['unit']}")
            if name == "sim1-portal" and trace:
                check(metrics["stats.calls"]["value"] == 0, "sim1-portal: stats.calls is 0")


def test_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
    proc = run_bench(bare, "sim2-attack", 0)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and not last.startswith("{"),
          "without src/ the command exits non-zero and prints no result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    test_checker()
    test_smoke()
    test_bare_directory()
    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)
