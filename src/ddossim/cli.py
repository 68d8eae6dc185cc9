"""Command-line front end: run single/batch/sweep experiments and emit
machine-readable results.

Configuration precedence is flags > config file > preset defaults.  The
config file is INI-style with [scenario], [detector] and [experiment]
sections; every key maps one-to-one onto the dataclass fields (the
ratio-rule tolerance is spelled tolerance_r).
"""

from __future__ import annotations

import argparse
import configparser
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
    preset: Optional[str] = None
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
        if self.format not in ("csv", "jsonl"):
            raise ConfigError(f"format must be csv|jsonl, got {self.format!r}")
        if self.id_method not in ("greedy", "history"):
            raise ConfigError(f"id_method must be greedy|history, got {self.id_method!r}")


_SCENARIO_KEYS = {
    "n_legal": int, "n_attack": int, "lambda_n": float, "lambda_a": float,
    "mu": float, "l1": int, "l2": int, "t_star": float, "attack_end": float,
    "total_duration": float, "slot_dt": float, "seed": int,
}
_DETECTOR_KEYS = {
    "w_s": float, "w_l": float, "tolerance_r": float, "c": float,
    "alpha": float, "baseline_len": int, "methods": str,
}
_EXPERIMENT_KEYS = {
    "preset": str, "mode": str, "runs": int, "sweep_ws": str, "seed": int,
    "out": str, "format": str, "id_method": str,
}


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


def _apply_section(section, keys: dict, target_kwargs: dict, section_name: str) -> None:
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
        conv = keys[key]
        try:
            target_kwargs[key] = conv(section[key])
        except ValueError as e:
            raise ConfigError(f"bad value for {section_name}.{key}: {e}") from None


def load_config(path: str) -> tuple[ScenarioConfig, DetectorConfig, ExperimentSpec]:
    """Load and validate a config file, resolving any preset it names."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"parse error in {path}: {e}") from None

    for section in parser.sections():
        if section not in ("scenario", "detector", "experiment"):
            raise ConfigError(f"unknown section [{section}] in {path}")

    exp_kwargs: dict = {}
    if parser.has_section("experiment"):
        _apply_section(parser["experiment"], _EXPERIMENT_KEYS, exp_kwargs, "experiment")
    if "sweep_ws" in exp_kwargs:
        exp_kwargs["sweep_ws"] = _parse_ws_list(exp_kwargs["sweep_ws"])

    preset_name = exp_kwargs.get("preset")
    if preset_name is not None:
        preset = get_preset_or_error(preset_name)
        scenario = dataclasses.replace(preset.scenario)
        detector = dataclasses.replace(preset.detector)
        exp_kwargs.setdefault("id_method", preset.id_method)
    else:
        scenario = None
        detector = DetectorConfig()

    scen_kwargs: dict = {}
    if parser.has_section("scenario"):
        _apply_section(parser["scenario"], _SCENARIO_KEYS, scen_kwargs, "scenario")
    det_kwargs: dict = {}
    if parser.has_section("detector"):
        _apply_section(parser["detector"], _DETECTOR_KEYS, det_kwargs, "detector")
    if "tolerance_r" in det_kwargs:
        det_kwargs["r"] = det_kwargs.pop("tolerance_r")
    if "methods" in det_kwargs:
        det_kwargs["methods"] = _parse_methods(det_kwargs["methods"])

    if scenario is None:
        missing = [k for k in _SCENARIO_KEYS if k not in scen_kwargs
                   and k not in ("seed", "slot_dt")]
        if missing:
            raise ConfigError(f"no preset given and [scenario] is missing: {missing}")
        scenario = ScenarioConfig(**scen_kwargs)
    else:
        scenario = dataclasses.replace(scenario, **scen_kwargs)
    detector = dataclasses.replace(detector, **det_kwargs)

    spec = ExperimentSpec(**exp_kwargs)
    try:
        check_configs(scenario, detector)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    spec.validate()
    return scenario, detector, spec


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


def get_preset_or_error(name: str):
    try:
        return get_preset(name)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _summary_dict(stats: BatchStats) -> dict:
    d: dict = {"n_runs": stats.n_runs, "detected_rate": stats.detected_rate}
    for name, s in stats.metrics.items():
        d[name] = {"min": s.min, "avg": s.avg, "ci95_halfwidth": s.ci95_halfwidth,
                   "n": s.n}
    return d


def _run_rows(runs: list[RunMetrics], extra: Optional[dict] = None) -> list[dict]:
    rows = []
    for idx, r in enumerate(runs):
        row = {"run": idx, **(extra or {}), **r.as_row()}
        rows.append(row)
    return rows


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


def _resolve(args) -> tuple[ScenarioConfig, DetectorConfig, ExperimentSpec]:
    if args.config:
        scenario, detector, spec = load_config(args.config)
        if args.preset:
            raise ConfigError("give either --preset or --config, not both "
                              "(a config file may name its preset)")
    elif args.preset:
        preset = get_preset_or_error(args.preset)
        scenario = dataclasses.replace(preset.scenario)
        detector = dataclasses.replace(preset.detector)
        spec = ExperimentSpec(preset=args.preset, id_method=preset.id_method)
    else:
        raise ConfigError("either --preset or --config is required")

    if args.mode:
        spec.mode = args.mode
    if args.runs is not None:
        spec.runs = args.runs
    if args.sweep_ws:
        spec.sweep_ws = _parse_ws_list(args.sweep_ws)
    if args.seed is not None:
        spec.seed = args.seed
    if args.id_method:
        spec.id_method = args.id_method
    if args.out:
        spec.out = args.out
    if args.format:
        spec.format = args.format
    spec.validate()
    return scenario, detector, spec


def _execute(scenario: ScenarioConfig, detector: DetectorConfig,
             spec: ExperimentSpec, out: TextIO) -> None:
    seed = spec.seed if spec.seed is not None else scenario.seed
    if spec.mode == "once":
        run = run_once(scenario, detector, spec.id_method, seed=seed)
        emit_results(_run_rows([run]), spec.format, out)
    elif spec.mode == "batch":
        stats, runs = run_batch(scenario, detector, spec.id_method,
                                spec.runs, base_seed=seed)
        emit_results(_run_rows(runs), spec.format, out,
                     summary=_summary_dict(stats))
    else:
        rows: list[dict] = []
        for w_s, runs in sweep_window(scenario, detector, spec.id_method,
                                      spec.sweep_ws, runs_per_value=max(1, spec.runs),
                                      base_seed=seed):
            for idx, r in enumerate(runs):
                rows.append({"run": idx, "w_s": w_s, **r.as_row()})
        emit_results(rows, spec.format, out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        scenario, detector, spec = _resolve(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    try:
        if args.dump_config:
            if spec.out:
                with open(spec.out, "w") as fh:
                    dump_config(scenario, detector, spec, fh)
            else:
                dump_config(scenario, detector, spec, sys.stdout)
            return 0
        if spec.out:
            with open(spec.out, "w", newline="") as fh:
                _execute(scenario, detector, spec, fh)
        else:
            _execute(scenario, detector, spec, sys.stdout)
    except (ValueError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
