"""Command-line front end: run single/batch/sweep experiments and emit
machine-readable results.

A configuration is built in one order: the preset's defaults, then the
config file's values, then the flags, and each config checks itself once,
when it is made from them.
The config file is INI-style with [scenario], [detector] and [experiment]
sections. Each section's keys, and how each value is parsed, are read off
the fields of ScenarioConfig, DetectorConfig and ExperimentSpec: a key is
its field's name, except that the ratio-rule tolerance r is spelled
tolerance_r, and [experiment] also takes the preset key.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import json
import sys
from dataclasses import MISSING, dataclass, field
from typing import Optional, Sequence, TextIO

from .detector import DetectorConfig, Method
from .harness import RunMetrics, check_configs, run_batch, run_once, sweep_window
from .presets import PRESETS, get_preset
from .traffic import ScenarioConfig, require_numbers

__all__ = ["ConfigError", "ExperimentSpec", "load_config", "dump_config",
           "emit_results", "main"]


class ConfigError(Exception):
    pass


# the values of each experiment setting with a fixed set of them, which the
# flags offer and an ExperimentSpec accepts
_CHOICES = {"mode": ("once", "batch", "sweep"), "format": ("csv", "jsonl"),
            "id_method": ("greedy", "history")}


@dataclass(frozen=True)
class ExperimentSpec:
    mode: str = "once"
    runs: int = 2
    sweep_ws: list[float] = field(default_factory=list)
    seed: int = 0
    out: Optional[str] = None
    format: str = "csv"
    id_method: str = "greedy"

    def __post_init__(self) -> None:
        try:
            require_numbers(self)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be {'|'.join(allowed)}, got {value!r}")
        if self.mode == "batch" and self.runs < 2:
            raise ConfigError("batch mode needs runs >= 2")
        if self.mode == "sweep" and not self.sweep_ws:
            raise ConfigError("sweep mode needs a non-empty sweep_ws list")
        if self.mode != "sweep" and self.sweep_ws:
            raise ConfigError(f"sweep_ws is only read in sweep mode, not {self.mode}")
        if self.mode == "sweep" and self.runs < 1:
            raise ConfigError("sweep mode needs runs >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


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
    return tuple(methods)


def _parse_ws_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as e:
        raise ConfigError(f"bad sweep_ws list {text!r}: {e}") from None


# the parser of each config field's annotation
_PARSERS = {"int": int, "float": float, "str": str, "Optional[str]": str,
            "list[float]": _parse_ws_list, "tuple[Method, ...]": _parse_methods}


def _keys(config_class, **spelled: str) -> dict:
    """Each INI key of a config dataclass, mapped to its field's name and
    parser; spelled gives the key of a field whose key is not its name."""
    return {spelled.get(f.name, f.name): (f.name, _PARSERS[f.type])
            for f in dataclasses.fields(config_class)}


# each section's INI key -> (field name, parser)
_SECTIONS = {"scenario": _keys(ScenarioConfig),
             "detector": _keys(DetectorConfig, r="tolerance_r"),
             "experiment": {"preset": ("preset", str), **_keys(ExperimentSpec)}}


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

    if parser.defaults():
        raise ConfigError(f"unknown section [DEFAULT] in {path}")
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
            field_name, parse = keys[key]
            try:
                kwargs[name][field_name] = parse(section[key])
            except ValueError as e:
                raise ConfigError(f"bad value for {name}.{key}: {e}") from None
    return kwargs["scenario"], kwargs["detector"], kwargs["experiment"]


def _build(path: Optional[str], flags: dict) -> tuple[ScenarioConfig, DetectorConfig,
                                                      ExperimentSpec]:
    """Apply the preset's defaults, then the file's values, then the flags.
    Each config checks itself when it is made, the spec first, and then
    the pair is checked; in sweep mode every swept w_s is."""
    scen_kwargs, det_kwargs, exp_kwargs = _read_file(path) if path else ({}, {}, {})
    exp_kwargs.update(flags)
    preset_name = exp_kwargs.pop("preset", None)
    try:
        if preset_name is not None:
            preset = get_preset(preset_name)
            spec = ExperimentSpec(**{"id_method": preset.id_method, **exp_kwargs})
            scenario = dataclasses.replace(preset.scenario, **scen_kwargs)
            detector = dataclasses.replace(preset.detector, **det_kwargs)
        else:
            missing = [f.name for f in dataclasses.fields(ScenarioConfig)
                       if f.default is MISSING and f.name not in scen_kwargs]
            if missing:
                raise ConfigError(f"no preset given and [scenario] is missing: {missing}")
            spec = ExperimentSpec(**exp_kwargs)
            scenario = ScenarioConfig(**scen_kwargs)
            detector = DetectorConfig(**det_kwargs)
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
    """Load a config file, resolving any preset it names, and check the pair."""
    return _build(path, {})


def _format(value) -> str:
    """A config value as the INI text its field's parser reads back."""
    if isinstance(value, (list, tuple)):
        return ",".join(_format(v) for v in value)
    if isinstance(value, Method):
        return value.value
    return repr(value) if isinstance(value, float) else str(value)


def dump_config(scenario: ScenarioConfig, detector: DetectorConfig,
                spec: ExperimentSpec, out: TextIO) -> None:
    """Write the fully resolved configuration in the loadable INI format:
    every field, in field order, except out."""
    parser = configparser.ConfigParser()
    for (name, keys), config in zip(_SECTIONS.items(), (scenario, detector, spec)):
        # the preset is already folded into the values; out is where this
        # dump itself goes, so running the dump must not write over it
        parser[name] = {key: _format(getattr(config, field_name))
                        for key, (field_name, _) in keys.items()
                        if key not in ("preset", "out")}
    parser.write(out)


def emit_results(rows: list[dict], fmt: str, out: TextIO,
                 summary: Optional[dict] = None) -> None:
    """Write result rows as CSV (fixed header) or JSON Lines.

    CSV writes None as an empty cell and a float as its repr, and carries
    data rows only; JSONL output appends the summary record when one is
    given.
    """
    if not rows:
        raise ValueError("no results to emit")
    if fmt == "csv":
        writer = csv.DictWriter(out, rows[0].keys(), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    elif fmt == "jsonl":
        for row in rows:
            out.write(json.dumps({"type": "run", **row}) + "\n")
        if summary is not None:
            out.write(json.dumps({"type": "summary", **summary}) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _run_rows(runs: list[RunMetrics], extra: Optional[dict] = None) -> list[dict]:
    return [{"run": idx, **(extra or {}), **r.as_row()} for idx, r in enumerate(runs)]


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ddossim",
        description="Slotted-traffic DDoS detection simulator")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="built-in scenario preset")
    p.add_argument("--config", help="INI config file (overrides preset values)")
    p.add_argument("--mode", choices=_CHOICES["mode"])
    p.add_argument("--runs", type=int, help="runs per batch (or per sweep value)")
    p.add_argument("--sweep-ws", help="comma-separated short-window sizes, e.g. 5,10,20,30,40")
    p.add_argument("--seed", type=int)
    p.add_argument("--id-method", choices=_CHOICES["id_method"])
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=_CHOICES["format"])
    p.add_argument("--dump-config", action="store_true",
                   help="print the resolved configuration and exit")
    return p


def _execute(scenario: ScenarioConfig, detector: DetectorConfig,
             spec: ExperimentSpec, out: TextIO) -> None:
    summary = None
    if spec.mode == "once":
        rows = _run_rows([run_once(scenario, detector, spec.id_method, seed=spec.seed)])
    elif spec.mode == "batch":
        stats, runs = run_batch(scenario, detector, spec.id_method, spec.runs,
                                base_seed=spec.seed)
        # plain dicts: every value is a scalar, which dataclasses.asdict
        # would deep-copy
        rows = _run_rows(runs)
        summary = {"n_runs": stats.n_runs, "detected_rate": stats.detected_rate,
                   **{name: dict(vars(m)) for name, m in stats.metrics.items()}}
    else:
        rows = [row for w_s, runs in sweep_window(scenario, detector, spec.id_method,
                                                  spec.sweep_ws, runs_per_value=spec.runs,
                                                  base_seed=spec.seed)
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
        flags = {field_name: parse(getattr(args, key))
                 for key, (field_name, parse) in _SECTIONS["experiment"].items()
                 if getattr(args, key) is not None}
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
