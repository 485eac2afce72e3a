"""Command-line entry point.

    qcorr thermal  [--preset fig1] [--jx F --jy F --jz F]
                   [--dz F | --dz-range a:b:s] [--t-range a:b:s] --out PATH
    qcorr decohere [--preset fig2-lower|fig2-upper] [--jx F ...]
                   [--dz F | --dz-range a:b:s] [--time-range a:b:s] [--gamma F] --out PATH

Options may also come from an INI-style key=value file via --config; explicit
flags override the file, and both override the preset.  --dz and --dz-range
spell one setting: the highest of those layers that gives either one decides.
Each subcommand takes only its own axis flag.  Exit codes: 0 ok,
2 configuration error, 3 numeric failure, 4 output error.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

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


def _number(text: str, name: str) -> float:
    """A finite float: the converter of the number flags, as parse_range is of the ranges."""
    try:
        number = float(text)
    except ValueError:
        raise ConfigError(f"{name}: expected a number, got {text!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name}: expected a finite number, got {text!r}")
    return number


def _options(axis: str, *numbers: str) -> dict:
    """key -> (converter of (text, flag name), or None for text, default) of one subcommand."""
    table = {key: (_number, 0.0) for key in ("jx", "jy", "jz", "dz", *numbers)}
    table.update({key: (parse_range, None) for key in (axis, "dz-range")})
    table["out"] = (None, None)
    return table


# One table per subcommand makes its parser, its config-file keys and the
# flags whose negative values are rejoined.
_OPTIONS = {"thermal": _options("t-range"), "decohere": _options("time-range", "gamma")}
_VALUE_FLAGS = {f"--{key}" for table in _OPTIONS.values() for key in ("preset", "config", *table)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; surface as config-error
        raise ConfigError(message)


def _build_parser():
    """The parser and its subcommand parsers; a flag that is not given is absent.

    Each flag has one spelling: an abbreviation is an unrecognized argument,
    so every value flag is one that _join_negative_values knows.
    """
    parser = _Parser(prog="qcorr", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", metavar="thermal|decohere")
    for command, table in _OPTIONS.items():
        p = sub.add_parser(command, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", metavar="FILE")
        for key, (convert, _) in table.items():
            metavar = {parse_range: "a:b:s", None: "PATH"}.get(convert)
            p.add_argument(f"--{key}", type=convert and partial(convert, name=f"--{key}"),
                           metavar=metavar)
    return parser, sub.choices


def _join_negative_values(argv) -> list:
    """'--jy -1e-1' -> '--jy=-1e-1'; argparse takes '-1e-1' or '-1:1:0.5' for an option."""
    out = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS and token.startswith("-") and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _read_config_file(path: str, command: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")) or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in ("mode", "preset", *_OPTIONS[command]):
            if any(key in table for table in _OPTIONS.values()):
                raise ConfigError(f"--{key} is not valid in {_MODE_BY_COMMAND[command]} mode")
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _preset_values(name: str, mode: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    values = dict(PRESETS[name])
    if (preset_mode := values.pop("mode")) != mode:
        raise ConfigError(f"preset {name!r} is a {preset_mode} preset, not valid for mode {mode}")
    return values


def parse_config(argv) -> SweepConfig:
    """Build a validated SweepConfig from CLI arguments (and --config file).

    The first parse reads the command, --preset, --config and the flags
    given.  The preset values, then the file values, become the
    subcommand's defaults; the second parse lets the flags override them
    and runs every string default through its flag's type= converter.
    """
    argv = _join_negative_values(argv)
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise ConfigError("missing command: expected thermal or decohere")
    command, mode = args.command, _MODE_BY_COMMAND[args.command]
    given = {dest.replace("_", "-"): value for dest, value in vars(args).items()
             if dest not in ("command", "preset", "config")}
    path = getattr(args, "config", None)
    file_values = _read_config_file(path, command) if path else {}
    if (file_mode := file_values.pop("mode", mode)) != mode:
        raise ConfigError(f"config file mode {file_mode!r} conflicts with command {mode}")
    preset = getattr(args, "preset", file_values.pop("preset", None))
    layers = (("the preset", _preset_values(preset, mode) if preset else {}),
              (f"config file {path}", file_values), ("the command line", given))
    base = {key: default for key, (_, default) in _OPTIONS[command].items()}
    defaults = dict(base)
    for where, layer in layers:
        if "dz" in layer and "dz-range" in layer:
            raise ConfigError(f"--dz and --dz-range spell one setting; {where} gives both")
        if "dz" in layer or "dz-range" in layer:  # the layer replaces both
            defaults.update({"dz": base["dz"], "dz-range": base["dz-range"]})
        defaults.update(layer)
    subparsers[command].set_defaults(**{key.replace("-", "_"): v for key, v in defaults.items()})
    args = parser.parse_args(argv)
    return SweepConfig(
        mode=mode,
        params=ModelParams(args.jx, args.jy, args.jz, args.dz),
        axis=args.t_range if mode == "thermal" else args.time_range,
        dz_range=args.dz_range,
        gamma=getattr(args, "gamma", 0.0),
        output_path=args.out or "",
    )


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
