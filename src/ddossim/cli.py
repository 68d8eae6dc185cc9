"""Command-line front end: run single/batch/sweep experiments and emit
machine-readable results.

A configuration is built in one order: the preset's defaults, then the
config file's values, then the flags, and it is validated once at the end.
The config file is INI-style with [scenario], [detector] and [experiment]
sections; every key maps one-to-one onto the dataclass fields (the
ratio-rule tolerance is spelled tolerance_r).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence, TextIO

from .detector import DetectorConfig, Method
from .harness import (BatchStats, RunMetrics, check_configs, run_batch, run_once,
                      sweep_window)
from .presets import PRESETS, get_preset
from .traffic import ScenarioConfig

__all__ = ["ConfigError", "ExperimentSpec", "load_config", "dump_config",
           "emit_results", "main"]


class ConfigError(Exception):
    pass


@dataclass
class ExperimentSpec:
    mode: str = "once"                 # once | batch | sweep
    runs: int = 2
    sweep_ws: list[float] = field(default_factory=list)
    seed: Optional[int] = None
    out: Optional[str] = None
    format: str = "csv"                # csv | jsonl
    id_method: str = "greedy"

    def validate(self) -> None:
        if self.mode not in ("once", "batch", "sweep"):
            raise ConfigError(f"mode must be once|batch|sweep, got {self.mode!r}")
        if self.mode == "batch" and self.runs < 2:
            raise ConfigError("batch mode needs runs >= 2")
        if self.mode == "sweep" and not self.sweep_ws:
            raise ConfigError("sweep mode needs a non-empty sweep_ws list")
        if self.mode != "sweep" and self.sweep_ws:
            raise ConfigError(f"sweep_ws is only read in sweep mode, not {self.mode}")
        if self.mode == "sweep" and self.runs < 1:
            raise ConfigError("sweep mode needs runs >= 1")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.format not in ("csv", "jsonl"):
            raise ConfigError(f"format must be csv|jsonl, got {self.format!r}")
        if self.id_method not in ("greedy", "history"):
            raise ConfigError(f"id_method must be greedy|history, got {self.id_method!r}")


def _parse_methods(text: str) -> tuple[Method, ...]:
    methods = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            methods.append(Method(part))
        except ValueError:
            valid = ", ".join(m.value for m in Method)
            raise ConfigError(f"unknown detection method {part!r}; valid: {valid}") from None
    if not methods:
        raise ConfigError("methods list is empty")
    return tuple(methods)


def _parse_ws_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as e:
        raise ConfigError(f"bad sweep_ws list {text!r}: {e}") from None


_SCENARIO_KEYS = {
    "n_legal": int, "n_attack": int, "lambda_n": float, "lambda_a": float,
    "mu": float, "l1": int, "l2": int, "t_star": float, "attack_end": float,
    "total_duration": float, "slot_dt": float, "seed": int,
}
_DETECTOR_KEYS = {
    "w_s": float, "w_l": float, "tolerance_r": float, "c": float,
    "alpha": float, "baseline_len": int, "methods": _parse_methods,
}
_EXPERIMENT_KEYS = {
    "preset": str, "mode": str, "runs": int, "sweep_ws": _parse_ws_list, "seed": int,
    "out": str, "format": str, "id_method": str,
}
_SECTIONS = {"scenario": _SCENARIO_KEYS, "detector": _DETECTOR_KEYS,
             "experiment": _EXPERIMENT_KEYS}


def _read_file(path: str) -> tuple[dict, dict, dict]:
    """The converted [scenario], [detector] and [experiment] kwargs of a file."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"parse error in {path}: {e}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path}")
    kwargs: dict[str, dict] = {}
    for name, keys in _SECTIONS.items():
        section = parser[name] if parser.has_section(name) else {}
        kwargs[name] = {}
        for key in section:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            try:
                kwargs[name][key] = keys[key](section[key])
            except ValueError as e:
                raise ConfigError(f"bad value for {name}.{key}: {e}") from None
    if "tolerance_r" in kwargs["detector"]:
        kwargs["detector"]["r"] = kwargs["detector"].pop("tolerance_r")
    return kwargs["scenario"], kwargs["detector"], kwargs["experiment"]


def _build(path: Optional[str], flags: dict) -> tuple[ScenarioConfig, DetectorConfig,
                                                      ExperimentSpec]:
    """Apply the preset's defaults, then the file's values, then the flags,
    and validate the result once; in sweep mode every swept w_s is checked."""
    scen_kwargs, det_kwargs, exp_kwargs = _read_file(path) if path else ({}, {}, {})
    exp_kwargs.update(flags)
    preset_name = exp_kwargs.pop("preset", None)
    try:
        if preset_name is not None:
            preset = get_preset(preset_name)
            scenario = dataclasses.replace(preset.scenario, **scen_kwargs)
            detector = dataclasses.replace(preset.detector, **det_kwargs)
            exp_kwargs = {"id_method": preset.id_method, **exp_kwargs}
        else:
            missing = [k for k in _SCENARIO_KEYS if k not in scen_kwargs
                       and k not in ("seed", "slot_dt")]
            if missing:
                raise ConfigError(f"no preset given and [scenario] is missing: {missing}")
            scenario = ScenarioConfig(**scen_kwargs)
            detector = DetectorConfig(**det_kwargs)
        spec = ExperimentSpec(**exp_kwargs)
        spec.validate()
        if spec.mode == "sweep":
            for w_s in spec.sweep_ws:
                try:
                    check_configs(scenario, dataclasses.replace(detector, w_s=w_s))
                except ValueError as e:
                    raise ValueError(f"swept w_s={w_s}: {e}") from None
        else:
            check_configs(scenario, detector)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return scenario, detector, spec


def load_config(path: str) -> tuple[ScenarioConfig, DetectorConfig, ExperimentSpec]:
    """Load and validate a config file, resolving any preset it names."""
    return _build(path, {})


def dump_config(scenario: ScenarioConfig, detector: DetectorConfig,
                spec: ExperimentSpec, out: TextIO) -> None:
    """Write the fully resolved configuration in the loadable INI format."""
    parser = configparser.ConfigParser()
    parser["scenario"] = {k: repr(getattr(scenario, k)) for k in _SCENARIO_KEYS}
    det = {k: repr(getattr(detector, k)) for k in _DETECTOR_KEYS
           if k not in ("tolerance_r", "methods")}
    det["tolerance_r"] = repr(detector.r)
    det["methods"] = ",".join(m.value for m in detector.methods)
    parser["detector"] = det
    parser["experiment"] = {
        "mode": spec.mode,
        "runs": str(spec.runs),
        "sweep_ws": ",".join(repr(v) for v in spec.sweep_ws),
        "format": spec.format,
        "id_method": spec.id_method,
        **({"seed": str(spec.seed)} if spec.seed is not None else {}),
    }
    parser.write(out)


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_results(rows: list[dict], fmt: str, out: TextIO,
                 summary: Optional[dict] = None) -> None:
    """Write result rows as CSV (fixed header) or JSON Lines.

    JSONL output appends the summary record when one is given; CSV output
    carries data rows only.
    """
    if not rows:
        raise ValueError("no results to emit")
    if fmt == "csv":
        header = list(rows[0].keys())
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_format_cell(row[k]) for k in header) + "\n")
    elif fmt == "jsonl":
        for row in rows:
            out.write(json.dumps({"type": "run", **row}) + "\n")
        if summary is not None:
            out.write(json.dumps({"type": "summary", **summary}) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _summary_dict(stats: BatchStats) -> dict:
    d: dict = {"n_runs": stats.n_runs, "detected_rate": stats.detected_rate}
    for name, s in stats.metrics.items():
        d[name] = {"min": s.min, "avg": s.avg, "ci95_halfwidth": s.ci95_halfwidth,
                   "n": s.n}
    return d


def _run_rows(runs: list[RunMetrics], extra: Optional[dict] = None) -> list[dict]:
    return [{"run": idx, **(extra or {}), **r.as_row()} for idx, r in enumerate(runs)]


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ddossim",
        description="Slotted-traffic DDoS detection simulator")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="built-in scenario preset")
    p.add_argument("--config", help="INI config file (overrides preset values)")
    p.add_argument("--mode", choices=["once", "batch", "sweep"])
    p.add_argument("--runs", type=int, help="runs per batch (or per sweep value)")
    p.add_argument("--sweep-ws", help="comma-separated short-window sizes, e.g. 5,10,20,30,40")
    p.add_argument("--seed", type=int)
    p.add_argument("--id-method", choices=["greedy", "history"])
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "jsonl"])
    p.add_argument("--dump-config", action="store_true",
                   help="print the resolved configuration and exit")
    return p


def _execute(scenario: ScenarioConfig, detector: DetectorConfig,
             spec: ExperimentSpec, out: TextIO) -> None:
    seed = spec.seed if spec.seed is not None else scenario.seed
    summary = None
    if spec.mode == "once":
        rows = _run_rows([run_once(scenario, detector, spec.id_method, seed=seed)])
    elif spec.mode == "batch":
        stats, runs = run_batch(scenario, detector, spec.id_method,
                                spec.runs, base_seed=seed)
        rows, summary = _run_rows(runs), _summary_dict(stats)
    else:
        rows = [row for w_s, runs in sweep_window(scenario, detector, spec.id_method,
                                                  spec.sweep_ws, runs_per_value=spec.runs,
                                                  base_seed=seed)
                for row in _run_rows(runs, {"w_s": w_s})]
    emit_results(rows, spec.format, out, summary=summary)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.preset and args.config:
            raise ConfigError("give either --preset or --config, not both "
                              "(a config file may name its preset)")
        if not (args.preset or args.config):
            raise ConfigError("either --preset or --config is required")
        # flags convert like the file's [experiment] keys; --preset, like a
        # file's preset key, supplies the defaults the rest override
        flags = {k: conv(getattr(args, k)) for k, conv in _EXPERIMENT_KEYS.items()
                 if getattr(args, k) is not None}
        scenario, detector, spec = _build(args.config, flags)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    try:
        with (open(spec.out, "w", newline="") if spec.out
              else contextlib.nullcontext(sys.stdout)) as out:
            if args.dump_config:
                dump_config(scenario, detector, spec, out)
            else:
                _execute(scenario, detector, spec, out)
    except (ValueError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
