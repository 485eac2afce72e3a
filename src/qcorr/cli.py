"""Command-line entry point.

    qcorr thermal  [--preset fig1] [--jx F --jy F --jz F --dz F]
                   [--t-range a:b:s] [--dz-range a:b:s] --out PATH
    qcorr decohere [--preset fig2-lower|fig2-upper] [--jx F ...]
                   [--time-range a:b:s] [--dz-range a:b:s] [--gamma F] --out PATH

Options may also come from an INI-style key=value file via --config; explicit
flags override the file, and both override the preset.  Exit codes: 0 ok,
2 configuration error, 3 numeric failure, 4 output error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    NumericFailure,
    OutputError,
)
from .model import ModelParams
from .sweep import (
    PRESETS,
    SweepConfig,
    emit_csv,
    find_zero_runs,
    parse_range,
    run_sweep,
    staged_output,
)

_MODE_BY_COMMAND = {"thermal": "thermal", "decohere": "decoherence"}

_FLOAT_KEYS = ("jx", "jy", "jz", "dz", "gamma")
_RANGE_KEYS = ("t-range", "time-range", "dz-range")
_ALL_KEYS = ("mode", "preset", "out") + _FLOAT_KEYS + _RANGE_KEYS
_RANGE_FLAGS = tuple(f"--{key}" for key in _RANGE_KEYS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; surface as config-error
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qcorr", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", metavar="thermal|decohere")
    for command in ("thermal", "decohere"):
        p = sub.add_parser(command)
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", metavar="FILE")
        for key in _FLOAT_KEYS:
            p.add_argument(f"--{key}", type=float)
        for key in _RANGE_KEYS:
            p.add_argument(f"--{key}", metavar="a:b:s")
        p.add_argument("--out", metavar="PATH")
    return parser


def _join_negative_ranges(argv) -> list:
    """'--dz-range -1:1:0.5' -> '--dz-range=-1:1:0.5'; argparse takes '-1:1:0.5' for an option."""
    out = []
    for token in argv:
        if out and out[-1] in _RANGE_FLAGS and token.startswith("-") and ":" in token:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")) or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _merge(mode: str, file_values: dict, args: argparse.Namespace) -> dict:
    """preset < config file < explicit flags."""
    merged: dict = {}
    preset = getattr(args, "preset", None) or file_values.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        spec = PRESETS[preset]
        if spec["mode"] != mode:
            raise ConfigError(
                f"preset {preset!r} is a {spec['mode']} preset, not valid for mode {mode}"
            )
        merged.update(spec)
    for key, value in file_values.items():
        if key in ("preset", "mode"):
            if key == "mode" and value != mode:
                raise ConfigError(f"config file mode {value!r} conflicts with command {mode}")
            continue
        merged[key] = value
    for key in _FLOAT_KEYS + _RANGE_KEYS + ("out",):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    merged["mode"] = mode
    return merged


def _to_float(merged: dict, key: str, default: float = 0.0) -> float:
    value = merged.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"--{key}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"--{key}: expected a finite number, got {value!r}")
    return number


def build_config(merged: dict) -> SweepConfig:
    mode = merged["mode"]
    params = ModelParams(
        jx=_to_float(merged, "jx"),
        jy=_to_float(merged, "jy"),
        jz=_to_float(merged, "jz"),
        dz=_to_float(merged, "dz"),
    )
    ranges = {}
    for key in _RANGE_KEYS:
        value = merged.get(key)
        ranges[key] = parse_range(str(value), f"--{key}") if value is not None else None
    if mode == "thermal" and ranges["time-range"] is not None:
        raise ConfigError("--time-range is not valid in thermal mode")
    if mode == "decoherence" and ranges["t-range"] is not None:
        raise ConfigError("--t-range selects temperatures; use --time-range in decohere mode")
    return SweepConfig(
        mode=mode,
        params=params,
        temperature_range=ranges["t-range"],
        time_range=ranges["time-range"],
        dz_range=ranges["dz-range"],
        gamma=_to_float(merged, "gamma"),
        output_path=str(merged.get("out") or ""),
    )


def parse_config(argv) -> SweepConfig:
    """Build a validated SweepConfig from CLI arguments (and --config file)."""
    args = _build_parser().parse_args(_join_negative_ranges(argv))
    if args.command is None:
        raise ConfigError("missing command: expected thermal or decohere")
    mode = _MODE_BY_COMMAND[args.command]
    file_values = _read_config_file(args.config) if args.config else {}
    return build_config(_merge(mode, file_values, args))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        with staged_output(cfg.output_path) as tmp:
            rows = run_sweep(cfg)
            emit_csv(rows, tmp, cfg.mode)
    except ConfigError as exc:
        print(f"qcorr: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericFailure, ValueError) as exc:
        print(f"qcorr: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OutputError as exc:
        print(f"qcorr: io error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(rows)} rows to {cfg.output_path}")
    if cfg.mode == "decoherence":
        events = find_zero_runs(rows)
        if events:
            spans = ", ".join(f"[{a:g}, {b:g}]" for a, b in events)
            print(f"concurrence death/revival intervals: {spans}", file=sys.stderr)
        else:
            print("concurrence death/revival intervals: none", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
