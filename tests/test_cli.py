"""CLI tests: preset resolution, config file round-trips, output formats,
the runs the CLI makes and its exit codes."""

import dataclasses
import json
import re
import sys
from dataclasses import MISSING
from pathlib import Path

import numpy as np
import pytest

import ddossim
from ddossim import traffic
from ddossim.cli import (ConfigError, ExperimentSpec, build_arg_parser, dump_config,
                         emit_results, load_config, main)
from ddossim.detector import DetectorConfig, Method
from ddossim.harness import BATCH_FIELDS, run_once
from ddossim.presets import PRESETS, get_preset
from ddossim.traffic import SPLIT_ARENA_LIMIT, ScenarioConfig, TrafficStream

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from record_corpus import FIELDS, RUNS, moves  # noqa: E402


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_preset_sim1_parameters():
    p = get_preset("sim1")
    s = p.scenario
    assert (s.n_legal, s.n_attack) == (10_000, 5_000)
    assert (s.lambda_n, s.lambda_a) == (0.1, 0.4)
    assert s.mu == 1500.0
    assert s.l1 == 40
    assert p.detector.r == 0.6


def test_preset_sim2_parameters():
    p = get_preset("sim2")
    s = p.scenario
    assert (s.n_legal, s.n_attack) == (50, 50)
    assert (s.lambda_n, s.lambda_a) == (0.1, 0.2)
    assert s.mu == 8.0
    assert (s.l1, s.l2) == (40, 160)
    assert set(p.detector.methods) == set(Method)
    assert p.id_method == "history"


def test_preset_case1_parameters():
    p = get_preset("case1")
    assert (p.scenario.n_legal, p.scenario.n_attack) == (5, 40)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        get_preset("nope")


def test_presets_are_read_only():
    # the mapping the package root exports cannot be changed in place, so
    # a preset name runs the same configs everywhere in a process
    sim2 = get_preset("sim2")
    with pytest.raises(TypeError):
        ddossim.PRESETS["sim2"] = get_preset("sim1")
    with pytest.raises(TypeError):
        ddossim.PRESETS["mine"] = sim2
    with pytest.raises(TypeError):
        del ddossim.PRESETS["case1"]
    assert ddossim.PRESETS is PRESETS and get_preset("sim2") is sim2
    preset_flag = next(a for a in build_arg_parser()._actions if a.dest == "preset")
    assert preset_flag.choices == ["case1", "case3", "sim1", "sim2"]


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_load_config_with_preset_and_overrides(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("""
[experiment]
preset = sim2
mode = batch
runs = 5

[detector]
tolerance_r = 0.8
methods = ratio,buffer_full
""")
    scenario, detector, spec = load_config(str(cfg))
    assert scenario.n_legal == 50
    assert detector.r == 0.8
    assert detector.methods == (Method.RATIO, Method.BUFFER_FULL)
    assert spec.mode == "batch" and spec.runs == 5
    assert spec.id_method == "history"      # inherited from the preset


def test_load_config_full_scenario_without_preset(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("""
[scenario]
n_legal = 10
n_attack = 5
lambda_n = 0.1
lambda_a = 0.4
mu = 4
l1 = 40
l2 = 160
t_star = 100
attack_end = 200
total_duration = 300
""")
    scenario, detector, spec = load_config(str(cfg))
    assert scenario.n_legal == 10
    assert spec.mode == "once"


def test_load_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[scenario]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(str(cfg))


def test_load_config_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(str(cfg))
    # configparser copies [DEFAULT]'s keys into every section, where they
    # would be blamed on a section the file does not set them in
    cfg.write_text("[DEFAULT]\nmu = 2.0\n\n[experiment]\npreset = sim2\n")
    with pytest.raises(ConfigError, match=re.escape("unknown section [DEFAULT]")):
        load_config(str(cfg))


def test_load_config_missing_scenario_rejected(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[scenario]\nn_legal = 10\n")
    with pytest.raises(ConfigError, match="missing"):
        load_config(str(cfg))


def test_load_config_bad_method_rejected(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\npreset = sim2\n\n[detector]\nmethods = sonar\n")
    with pytest.raises(ConfigError, match="unknown detection method"):
        load_config(str(cfg))


# a config's faults in the order they are reported, after the [scenario]
# keys that a config without a preset lacks: the spec, the scenario, the
# detector, then the pair
FAULTS = [("experiment", "mode = bogus", "mode must be"),
          ("scenario", "mu = nan", "mu must be finite"),
          ("detector", "tolerance_r = nan", "r must be finite"),
          ("detector", "w_l = 120", "w_l must warm up")]


@pytest.mark.parametrize("first", range(len(FAULTS) + 1))
def test_load_config_reports_the_first_fault(tmp_path, first):
    # the config holds the faults from the first on, and a preset unless
    # the missing keys come first
    sections = {"experiment": [] if first == 0 else ["preset = sim2"], "scenario": [],
                "detector": []}
    for section, line, _ in FAULTS[max(first - 1, 0):]:
        sections[section].append(line)
    cfg = tmp_path / "exp.ini"
    cfg.write_text("".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                           for name, lines in sections.items()))
    match = "is missing" if first == 0 else FAULTS[first - 1][2]
    with pytest.raises(ConfigError, match=match):
        load_config(str(cfg))


@pytest.mark.parametrize("kwargs, message", [
    (dict(mode="batch", runs=2.5), "runs must be an integer, got 2.5"),
    (dict(runs="2"), "runs must be an integer, got '2'"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(seed=True), "seed must be an integer, got True"),
    (dict(seed=None), "seed must be an integer, got None"),
])
def test_experiment_spec_rejects_counts_that_are_not_integers(kwargs, message):
    # a float run count would fail inside numpy's seed derivation, and a
    # float seed would run as some other seed
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentSpec(**kwargs)
    assert ExperimentSpec(mode="batch", runs=np.int64(3), seed=np.int64(9)).runs == 3


@pytest.mark.parametrize("key, values", [
    ("mode", ["once", "batch", "sweep"]),
    ("format", ["csv", "jsonl"]),
    ("id_method", ["greedy", "history"]),
])
def test_experiment_choices_are_the_flags_choices(tmp_path, key, values):
    # a file may set what the flag offers and nothing else, with the
    # message that names the allowed values
    flag = next(a for a in build_arg_parser()._actions if a.dest == key)
    assert tuple(flag.choices) == tuple(values)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\npreset = sim2\n{key} = twice\n")
    message = f"{key} must be {'|'.join(values)}, got 'twice'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(cfg))


def test_dump_config_round_trip(tmp_path):
    p = get_preset("sim2")
    spec = ExperimentSpec(mode="batch", runs=3, seed=9, id_method="history")
    dumped = tmp_path / "resolved.ini"
    with open(dumped, "w") as fh:
        dump_config(p.scenario, p.detector, spec, fh)
    scenario, detector, spec2 = load_config(str(dumped))
    assert scenario == p.scenario
    assert detector == p.detector
    assert (spec2.mode, spec2.runs, spec2.seed, spec2.id_method) == \
        ("batch", 3, 9, "history")


def test_dump_config_round_trip_covers_every_field(tmp_path):
    # every field of the three configs away from its default, so a dump
    # that left out any one key would load back a different config, or
    # none: the dump names no preset to fill a gap
    scenario = ScenarioConfig(n_legal=40, n_attack=30, lambda_n=0.15, lambda_a=0.3,
                              mu=7.5, l1=35, l2=150, t_star=110.0, attack_end=210.0,
                              total_duration=320.0, slot_dt=0.5)
    detector = DetectorConfig(w_s=5.0, w_l=40.0, r=0.7, c=40.0, alpha=0.01,
                              baseline_len=25,
                              methods=(Method.BUFFER_FULL, Method.STATISTICAL, Method.RATIO))
    spec = ExperimentSpec(mode="sweep", runs=4, sweep_ws=[5.0, 8.0], seed=11,
                          out="sweep.jsonl", format="jsonl", id_method="history")
    for config in (scenario, detector, spec):
        for f in dataclasses.fields(config):
            if f.default is not MISSING or f.default_factory is not MISSING:
                default = f.default if f.default is not MISSING else f.default_factory()
                assert getattr(config, f.name) != default, f.name
    dumped = tmp_path / "resolved.ini"
    with open(dumped, "w") as fh:
        dump_config(scenario, detector, spec, fh)
    assert load_config(str(dumped)) == (scenario, detector,
                                        dataclasses.replace(spec, out=None))


# ---------------------------------------------------------------------------
# precedence: preset, then file, then flags
# ---------------------------------------------------------------------------

def test_main_flag_completes_file_sweep(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\npreset = sim2\nmode = sweep\n")
    out = tmp_path / "r.csv"
    assert main(["--config", str(cfg), "--sweep-ws", "10,20", "--runs", "1",
                 "--seed", "3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2


def test_main_flag_overrides_file_runs(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\npreset = sim2\nmode = batch\nruns = 1\n")
    out = tmp_path / "r.jsonl"
    assert main(["--config", str(cfg), "--runs", "2", "--seed", "3",
                 "--format", "jsonl", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[-1]["n_runs"] == 2


def test_main_flags_override_file_naming_a_preset(tmp_path):
    cfg = tmp_path / "exp.ini"
    # on its own the file is invalid: batch mode needs runs >= 2
    cfg.write_text("[experiment]\npreset = sim2\nmode = batch\nruns = 1\n"
                   "format = jsonl\n\n[detector]\ntolerance_r = 0.8\n")
    dumped = tmp_path / "resolved.ini"
    assert main(["--config", str(cfg), "--mode", "once", "--id-method", "greedy",
                 "--format", "csv", "--seed", "7", "--dump-config",
                 "--out", str(dumped)]) == 0
    scenario, detector, spec = load_config(str(dumped))
    assert scenario == get_preset("sim2").scenario          # from the preset
    assert detector.r == 0.8                                 # from the file
    assert (spec.mode, spec.id_method, spec.format, spec.seed, spec.runs) == \
        ("once", "greedy", "csv", 7, 1)                      # flags, then file


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def test_emit_results_rejects_empty():
    import io
    with pytest.raises(ValueError):
        emit_results([], "csv", io.StringIO())


def test_emit_results_csv_cells(tmp_path):
    # None is an empty cell, a float its repr, anything else its str
    out = tmp_path / "r.csv"
    with open(out, "w", newline="") as fh:
        emit_results([{"a": None, "b": 0.1 + 0.2, "c": True, "d": 3, "e": "ratio"}],
                     "csv", fh)
    assert out.read_bytes() == b"a,b,c,d,e\n,0.30000000000000004,True,3,ratio\n"


def test_main_batch_jsonl_summary_keys(tmp_path):
    out = tmp_path / "r.jsonl"
    assert main(["--preset", "sim2", "--mode", "batch", "--runs", "2", "--seed", "1",
                 "--format", "jsonl", "--out", str(out)]) == 0
    summary = json.loads(out.read_text().splitlines()[-1])
    assert list(summary) == ["type", "n_runs", "detected_rate", *BATCH_FIELDS]
    for name in BATCH_FIELDS:
        assert list(summary[name]) == ["min", "avg", "ci95_halfwidth", "n"], name


def test_run_row_is_every_metric_in_field_order():
    # the CSV header is the first row's keys
    p = get_preset("sim2")
    m = run_once(p.scenario, p.detector, p.id_method, seed=1)
    row = m.as_row()
    assert list(row) == [f.name for f in dataclasses.fields(m)]
    assert row == dataclasses.asdict(m)
    assert list(map(type, row.values())) == list(map(type, dataclasses.asdict(m).values()))


def test_main_sweep_csv_rows(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["--preset", "sim2", "--mode", "sweep", "--sweep-ws", "10,20",
               "--runs", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert lines[0].startswith("run,w_s,")


# ---------------------------------------------------------------------------
# the CLI's runs, one row each: exit 0, and a check of what --out holds
# ---------------------------------------------------------------------------

QUIET = str(Path(__file__).resolve().parents[1] / "perfbench" / "sim2-quiet.ini")
ONCE = ["--mode", "once", "--seed", "0", "--format", "jsonl"]
DOC = json.loads(RUNS.read_text())
SEED0 = {c["name"]: [r for r in c["rows"] if r[DOC["fields"].index("seed")] == 0]
         for c in DOC["cases"]}


def sim2(text: str) -> str:
    """A config file of the sim2 preset with the sections of text."""
    return f"[experiment]\npreset = sim2\n\n{text}"


def recorded(case: str):
    """--out holds one JSONL run line, equal in type and value to the
    seed-0 row of the runs.json case."""
    def check(out, asks):
        (line,) = out.read_text().splitlines()
        run = json.loads(line)
        assert list(run) == ["type", "run", *FIELDS]
        assert (run["type"], run["run"]) == ("run", 0)
        moved = moves(case, DOC["fields"], SEED0[case], [list(run.values())[2:]])
        assert not moved, "\n".join(moved)
    return check


def dump_of_sim2(out, asks):
    # the seed, 0 unless given, is dumped under [experiment], so the dump
    # of a dump is the same bytes; the dump runs to sim2's recorded row
    scenario, detector, spec = load_config(str(out))
    p = get_preset("sim2")
    assert (scenario, detector, spec.seed) == (p.scenario, p.detector, 0)
    assert "seed = 0" in out.read_text().split("[experiment]")[1]
    assert main(["--config", str(out), "--dump-config", "--out", "again.ini"]) == 0
    assert Path("again.ini").read_bytes() == out.read_bytes()
    assert main(["--config", str(out), *ONCE, "--out", "run.jsonl"]) == 0
    recorded("sim2")(Path("run.jsonl"), asks)


def same_csv_as_dump(out, asks):
    # the dump carries every key the file sets, so it runs to the same bytes
    assert main(["--config", "exp.ini", "--dump-config", "--out", "dump.ini"]) == 0
    assert main(["--config", "dump.ini", "--mode", "once", "--seed", "0",
                 "--out", "dump.csv"]) == 0
    assert out.read_bytes() == Path("dump.csv").read_bytes()


def batch(n: int):
    """--out holds n JSONL run lines, then the summary of n runs."""
    def check(out, asks):
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["type"] for r in records] == ["run"] * n + ["summary"]
        assert records[-1]["n_runs"] == n
    return check


def one_csv_row(out, asks):
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("run,detected,detection_time")


SHARED = ["--preset", "sim2", "--mode", "batch", "--runs", "2", "--seed", "1",
          "--format", "jsonl"]


def as_if_alone(out, asks):
    # calls in one process share the split tables' cache: a later call of
    # another config, and the first call, each write what they write with
    # the cache cleared
    later = ["--config", QUIET, "--id-method", "greedy"]
    assert main([*later, "--out", "later.csv"]) == 0
    for argv, written in ((SHARED, out), (later, Path("later.csv"))):
        traffic._class_tables.cache_clear()
        assert main([*argv, "--out", "alone"]) == 0
        assert Path("alone").read_bytes() == written.read_bytes()


def split_past_arena(out, asks):
    # an ask past the arena's cap gets arrays of its own
    assert max(asks) > SPLIT_ARENA_LIMIT, max(asks)


@pytest.mark.parametrize("ini, argv, check", [
    pytest.param(None, ["--preset", "sim2", "--dump-config"], dump_of_sim2, id="sim2-dump"),
    # the filter over 15 000 sources, under both identification methods,
    # and with and without the history exemption at 100 sources
    pytest.param(None, ["--preset", "sim1", *ONCE], recorded("sim1"), id="sim1"),
    pytest.param(None, ["--preset", "sim1", "--id-method", "history", *ONCE],
                 recorded("sim1-history"), id="sim1-history"),
    pytest.param(None, ["--preset", "sim2", "--id-method", "greedy", *ONCE],
                 recorded("sim2-greedy"), id="sim2-greedy"),
    # attackers at 1.0 pkt/s: some 60 000 packets split for a 100-slot window
    pytest.param(None, ["--preset", "case3", *ONCE], recorded("case3"), id="case3"),
    # the history exemption covers every source by the first classification,
    # so no packet is split; filter phases run the whole w_s and end by
    # restoration
    pytest.param(None, ["--config", QUIET, *ONCE], recorded("sim2-quiet"), id="sim2-quiet"),
    # with the ratio rule alone, filter phases outlive w_s and run on over
    # several stretches
    pytest.param(sim2("[detector]\nmethods = ratio\n"), ONCE, recorded("sim2-ratio"),
                 id="ratio"),
    # buffer-full false-alarms and freezes before the long window fills, so
    # lambda-bar comes from a partial long window
    pytest.param(sim2("[scenario]\nmu = 2.0\n"), ONCE, recorded("sim2-mu2"), id="mu2"),
    # 6000 slots: stretches run past the buffer's first capacity table of
    # 4096 slots
    pytest.param(sim2("[scenario]\ntotal_duration = 600\n"), ONCE, recorded("sim2-long"),
                 id="long"),
    # at slot_dt = w_s = 1.0 the slot after a classification can fire the
    # ratio rule before buffer-full, so it runs as a stretch of its own
    pytest.param(sim2("[scenario]\nslot_dt = 1.0\n\n[detector]\n"
                      "methods = ratio, buffer_full\nw_s = 1.0\n"),
                 ["--mode", "once", "--seed", "0"], same_csv_as_dump, id="refire"),
    # the mode the benchmark times; at base seed 2 a run restores twice
    # inside a re-measurement window, which ends that window's stretch early
    pytest.param(None, ["--preset", "case1", "--mode", "batch", "--runs", "2", "--seed", "2",
                        "--format", "jsonl"], batch(2), id="case1-batch"),
    pytest.param(None, ["--config", QUIET, "--mode", "batch", "--runs", "2", "--seed", "3",
                        "--format", "jsonl"], batch(2), id="sim2-quiet-batch"),
    # two runs split their largest asks into one work arena in one process
    pytest.param(None, ["--preset", "case3", "--mode", "batch", "--runs", "2", "--seed", "0",
                        "--format", "jsonl"], batch(2), id="case3-batch"),
    pytest.param(None, ["--preset", "sim2", "--mode", "batch", "--runs", "3", "--seed", "1",
                        "--format", "jsonl"], batch(3), id="sim2-batch"),
    pytest.param(None, ["--preset", "sim2", "--mode", "once", "--seed", "42"], one_csv_row,
                 id="sim2-csv"),
    pytest.param(None, SHARED, as_if_alone, id="two-calls"),
    # some 3000 packets a slot, so a 100-slot window splits some 300 000,
    # while the run stays under the packets a run may expect
    pytest.param(sim2("[scenario]\nlambda_n = 600\n"), ["--mode", "once", "--seed", "0"],
                 split_past_arena, id="bigsplit"),
])
def test_main_runs(tmp_path, monkeypatch, ini, argv, check):
    """A run exits 0 and passes its row's check of --out, which also sees
    the packets of each split ask."""
    monkeypatch.chdir(tmp_path)
    asks, split = [], TrafficStream._split

    def spy(self, lo, hi):
        asks.append(int(self._prefix[hi] - self._prefix[lo]))
        return split(self, lo, hi)

    monkeypatch.setattr(TrafficStream, "_split", spy)
    if ini is not None:
        Path("exp.ini").write_text(ini)
        argv = ["--config", "exp.ini", *argv]
    assert main([*argv, "--out", "out"]) == 0
    check(Path("out"), asks)


# ---------------------------------------------------------------------------
# exit codes: 1 for a config problem, 2 for a runtime error, --out unopened
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, ini, code, err", [
    pytest.param([], None, 1, "either --preset or --config", id="no-config"),
    pytest.param(["--preset", "sim2"], "[scenario]\nbogus = 1\n", 1, "not both",
                 id="preset-and-config"),
    pytest.param([], "[scenario]\nbogus = 1\n", 1, "unknown key", id="unknown-key"),
    pytest.param(["--preset", "sim2", "--mode", "batch", "--runs", "1"], None, 1, "runs >= 2",
                 id="batch-of-one"),
    pytest.param(["--preset", "sim2", "--mode", "sweep"], None, 1, "sweep_ws",
                 id="sweep-without-list"),
    pytest.param(["--preset", "sim2", "--mode", "sweep", "--sweep-ws", "10", "--runs", "0"],
                 None, 1, "runs >= 1", id="sweep-of-none"),
    # detector windows that do not fit the scenario: a long window that
    # outlasts the onset, and a statistical short window in half seconds
    pytest.param([], sim2("[detector]\nw_l = 120\n"), 1, "t_star", id="w_l-past-onset"),
    pytest.param([], sim2("[detector]\nw_s = 10.5\n"), 1, "whole seconds",
                 id="w_s-off-seconds"),
    # an empty methods list reaches DetectorConfig, which names the field
    pytest.param([], sim2("[detector]\nmethods =\n"), 1, "methods", id="methods-empty"),
    # every swept w_s is checked before the first run, and the message
    # names the one that fails
    pytest.param(["--preset", "sim2", "--mode", "sweep", "--sweep-ws", "10,10.5"], None, 1,
                 "w_s=10.5", id="swept-w_s-off-seconds"),
    pytest.param(["--preset", "sim2", "--mode", "sweep", "--sweep-ws", "10,50"], None, 1,
                 "w_s=50", id="swept-w_s-past-onset"),
    # a sweep list would otherwise be dropped without a word after one run
    pytest.param(["--preset", "sim2", "--sweep-ws", "5,10", "--seed", "0"], None, 1,
                 "sweep_ws", id="sweep-list-flag-outside-sweep"),
    pytest.param(["--seed", "0"],
                 "[experiment]\npreset = sim2\nmode = batch\nsweep_ws = 5,10\n", 1,
                 "sweep_ws", id="sweep-list-key-outside-sweep"),
    pytest.param(["--preset", "sim2", "--seed", "-1"], None, 1, "seed must be >= 0",
                 id="seed-flag"),
    pytest.param([], "[experiment]\npreset = sim2\nseed = -3\n", 1, "seed must be >= 0",
                 id="seed-key"),
    # a NaN or infinite number, which no range check catches on its own
    *(pytest.param([], sim2(f"[{section}]\n{line}\n"), 1, "finite",
                  id=line.replace(" ", ""))
      for section, line in (("detector", "tolerance_r = nan"), ("detector", "w_l = inf"),
                            ("detector", "c = inf"), ("scenario", "mu = nan"),
                            ("scenario", "lambda_a = nan"), ("scenario", "lambda_n = inf"),
                            ("scenario", "total_duration = inf"),
                            ("scenario", "slot_dt = nan"))),
    # runs too large to hold: the service of mu = 1e20 overflows the
    # buffer's int64 capacity prefix sums; lambda_n = 1e7 expects too many
    # packets; 1e10 slots; and 1e10 sources, which expect only 3000 packets
    pytest.param(["--seed", "0"], sim2("[scenario]\nmu = 1e20\n"), 1, "int64", id="hugemu"),
    pytest.param(["--seed", "0"], sim2("[scenario]\nlambda_n = 1e7\n"), 1,
                 "packets, more than", id="hugelambda"),
    pytest.param(["--seed", "0"], sim2("[scenario]\nlambda_n = 1e-3\nlambda_a = 1e-3\n"
                                       "mu = 1.0\ntotal_duration = 1e9\n"), 1,
                 "slots, more than", id="hugeslots"),
    pytest.param(["--seed", "0"], sim2("[scenario]\nn_legal = 10000000000\n"
                                       "lambda_n = 1e-9\n"), 1,
                 "sources, more than", id="hugesources"),
    pytest.param(["--preset", "sim2", "--mode", "once"], None, 2, "no/dir/r.csv",
                 id="no-out-dir"),
])
def test_main_exit_codes(tmp_path, monkeypatch, capsys, argv, ini, code, err):
    """A config problem exits 1 and a runtime error 2, each with its
    message, and neither leaves an --out file."""
    monkeypatch.chdir(tmp_path)
    if ini is not None:
        Path("exp.ini").write_text(ini)
        argv = [*argv, "--config", "exp.ini"]
    out = Path("no/dir/r.csv" if code == 2 else "r.csv")
    assert main([*argv, "--out", str(out)]) == code
    stderr = capsys.readouterr().err
    assert stderr.startswith("config error:" if code == 1 else "runtime error:"), stderr
    assert err in stderr
    assert not out.exists()
