"""CLI tests: preset resolution, config file round-trips, output formats,
and exit codes."""

import json
import re

import pytest

import ddossim
from ddossim.cli import (ConfigError, ExperimentSpec, build_arg_parser, dump_config,
                         emit_results, load_config, main)
from ddossim.detector import Method
from ddossim.presets import PRESETS, get_preset


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


def test_main_once_csv(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["--preset", "sim2", "--mode", "once", "--seed", "42",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("run,detected,detection_time")


def test_main_csv_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--preset", "sim2", "--mode", "once", "--seed", "42",
                 "--out", str(a)]) == 0
    assert main(["--preset", "sim2", "--mode", "once", "--seed", "42",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_batch_jsonl_has_summary(tmp_path):
    out = tmp_path / "r.jsonl"
    rc = main(["--preset", "sim2", "--mode", "batch", "--runs", "3",
               "--seed", "1", "--format", "jsonl", "--out", str(out)])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["type"] for r in records] == ["run"] * 3 + ["summary"]
    assert records[-1]["n_runs"] == 3


def test_main_sweep_csv_rows(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["--preset", "sim2", "--mode", "sweep", "--sweep-ws", "10,20",
               "--runs", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert lines[0].startswith("run,w_s,")


def test_main_dump_config_round_trip(tmp_path):
    dumped = tmp_path / "resolved.ini"
    rc = main(["--preset", "sim2", "--dump-config", "--out", str(dumped)])
    assert rc == 0
    scenario, detector, spec = load_config(str(dumped))
    p = get_preset("sim2")
    assert scenario == p.scenario
    assert detector == p.detector
    # the seed, 0 unless given, is dumped under [experiment], so the dump
    # of a dump is the same bytes
    assert spec.seed == 0 and "seed = 0" in dumped.read_text().split("[experiment]")[1]
    again = tmp_path / "again.ini"
    assert main(["--config", str(dumped), "--dump-config", "--out", str(again)]) == 0
    assert again.read_bytes() == dumped.read_bytes()


def test_main_exit_codes(tmp_path, capsys):
    # config errors -> 1
    assert main([]) == 1
    assert main(["--preset", "sim2", "--mode", "batch", "--runs", "1"]) == 1
    assert main(["--preset", "sim2", "--mode", "sweep"]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nbogus = 1\n")
    assert main(["--config", str(bad)]) == 1
    assert main(["--preset", "sim2", "--config", str(bad)]) == 1
    # detector windows that do not fit the scenario: a long window that
    # outlasts the onset, and a statistical short window in half seconds
    for window in ("w_l = 120", "w_s = 10.5"):
        bad.write_text(f"[experiment]\npreset = sim2\n\n[detector]\n{window}\n")
        capsys.readouterr()
        assert main(["--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
    # every swept w_s is checked before the first run or the output file
    out = tmp_path / "sweep.csv"
    capsys.readouterr()
    assert main(["--preset", "sim2", "--mode", "sweep", "--sweep-ws", "10,10.5",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()
    assert main(["--preset", "sim2", "--mode", "sweep", "--sweep-ws", "10",
                 "--runs", "0"]) == 1
    # the message names the swept value that fails
    capsys.readouterr()
    assert main(["--preset", "sim2", "--mode", "sweep", "--sweep-ws", "10,50"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "w_s=50" in err
    # a negative seed, as a flag or in a file, before --out is opened
    out = tmp_path / "r.csv"
    bad.write_text("[experiment]\npreset = sim2\nseed = -3\n")
    for argv in (["--preset", "sim2", "--seed", "-1"], ["--config", str(bad)]):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()
    # a NaN or infinite number, which no range check catches on its own,
    # before --out is opened
    for section, line in (("detector", "tolerance_r = nan"), ("detector", "w_l = inf"),
                          ("detector", "c = inf"), ("scenario", "mu = nan"),
                          ("scenario", "lambda_a = nan"), ("scenario", "lambda_n = inf"),
                          ("scenario", "total_duration = inf"), ("scenario", "slot_dt = nan")):
        bad.write_text(f"[experiment]\npreset = sim2\n\n[{section}]\n{line}\n")
        capsys.readouterr()
        assert main(["--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()
    # runtime errors -> 2
    assert main(["--preset", "sim2", "--mode", "once",
                 "--out", str(tmp_path / "no" / "dir" / "r.csv")]) == 2


@pytest.mark.parametrize("argv, config", [
    (["--preset", "sim2", "--sweep-ws", "5,10"], None),
    ([], "[experiment]\npreset = sim2\nmode = batch\nsweep_ws = 5,10\n"),
])
def test_sweep_list_outside_sweep_mode_rejected(tmp_path, capsys, argv, config):
    # a sweep list would otherwise be dropped without a word after one run
    if config is not None:
        cfg = tmp_path / "exp.ini"
        cfg.write_text(config)
        argv = ["--config", str(cfg)]
    out = tmp_path / "r.csv"
    assert main(argv + ["--seed", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "sweep_ws" in err
    assert not out.exists()


def test_service_past_int64_rejected(tmp_path, capsys):
    # mu = 1e20 serves 1e19 packets a slot: the buffer's int64 capacity
    # prefix sums would overflow, so the config is rejected before --out
    # is opened
    cfg = tmp_path / "mu.ini"
    cfg.write_text("[experiment]\npreset = sim2\n\n[scenario]\nmu = 1e20\n")
    out = tmp_path / "r.csv"
    assert main(["--config", str(cfg), "--seed", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "int64" in err
    assert not out.exists()
