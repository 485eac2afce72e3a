"""Parameter sweeps over temperature, DM strength and time, with CSV output.

Two modes:

* thermal: for every (Dz, T) grid point build the Gibbs state and report all
  four correlation measures.  Columns: dz,T,C,CC,QD,I.
* decoherence: for every (Dz, t) grid point dephase the Bell pair and report
  the measures plus the max entrywise deviation of the closed-form state from
  the evolution in the energy eigenbasis.  Columns: dz,t,C,CC,QD,I,closed_form_dev.

Ranges are given as start:stop:step and include both endpoints; when the
step does not divide the span exactly the last point overshoots stop by less
than one step so that stop is always covered.  ``SweepConfig.axis`` holds
the temperatures in thermal mode and the times in decoherence mode.  Rows are
ordered lexicographically by (dz, axis) and every run of the same configuration
produces a byte-identical file.  Sweep points are independent of each other;
``run_sweep`` builds the states of each Dz block as one stack, in one call of
the mode's builder in ``qcorr.model``, and hands it to ``correlation_columns``,
which minimizes the discord of the whole block at once.  It returns one float
table whose columns follow the mode's header; ``emit_csv`` writes it, and
``find_zero_runs`` scans its concurrence column one Dz block at a time.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, replace
from decimal import Decimal

import numpy as np

from .correlations import correlation_columns
from .errors import ConfigError, OutputError
from .model import ModelParams, _bell_closed_forms, _dephased_states, _gibbs_states, bell_initial_state

# at this T the fig1 Gibbs states already equal their ground state to 1e-16 (README)
THERMAL_FLOOR = 0.01
MAX_GRID_ROWS = 10**7

THERMAL_HEADER = "dz,T,C,CC,QD,I"
DECOHERENCE_HEADER = "dz,t,C,CC,QD,I,closed_form_dev"


@dataclass(frozen=True)
class AxisRange:
    """Inclusive start:stop:step grid along one axis."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        for name in ("start", "stop", "step"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ConfigError(f"range {name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.step <= 0.0:
            raise ConfigError(f"range step must be > 0, got {self.step}")
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ConfigError(f"range {self.start}:{self.stop}:{self.step} has too many points")
        if self.count < 1:
            raise ConfigError(f"empty range {self.start}:{self.stop}:{self.step} (stop < start)")
        if not math.isfinite(self.start + self.step * (self.count - 1)):
            raise ConfigError(f"range {self.start}:{self.stop}:{self.step} overflows at its last point")

    @property
    def count(self) -> int:
        span = self.stop - self.start
        if span < 0.0:
            return 0
        return int(math.ceil(span / self.step - 1e-9)) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


def parse_range(text: str, name: str) -> AxisRange:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name}: expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{name}: non-numeric field in {text!r}") from None
    try:
        return AxisRange(start, stop, step)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class SweepConfig:
    """Validated description of one sweep run."""

    mode: str  # "thermal" | "decoherence"
    params: ModelParams
    axis: AxisRange | None  # temperatures in thermal mode, times in decoherence mode
    dz_range: AxisRange | None
    gamma: float
    output_path: str

    def __post_init__(self):
        if self.mode not in ("thermal", "decoherence"):
            raise ConfigError(f"mode must be thermal or decoherence, got {self.mode!r}")
        if not self.output_path:
            raise ConfigError("missing output path (--out)")
        axis_flag = "--t-range" if self.mode == "thermal" else "--time-range"
        if self.axis is None:
            raise ConfigError(f"{self.mode} mode requires {axis_flag}")
        if self.mode == "thermal" and self.axis.start < THERMAL_FLOOR:
            raise ConfigError(
                f"--t-range: temperatures below the floor {THERMAL_FLOOR} "
                f"are not supported (got start {self.axis.start})"
            )
        if self.mode == "decoherence":
            if self.axis.start < 0.0:
                raise ConfigError("--time-range: time must start at >= 0")
            if self.gamma < 0.0:
                raise ConfigError(f"--gamma must be >= 0, got {self.gamma}")
            if not math.isfinite(self.gamma):
                raise ConfigError(f"--gamma must be finite, got {self.gamma}")
        rows = (self.dz_range.count if self.dz_range is not None else 1) * self.axis.count
        if rows > MAX_GRID_ROWS:
            # a count past 1e308 overflows a float, so the short form comes from Decimal
            shown = rows if rows < 10**9 else f"{Decimal(rows):.0e}"
            raise ConfigError(f"grid of {shown} rows exceeds the limit of {MAX_GRID_ROWS}")
        # a step below the float spacing of the values rounds onto the same point
        for flag, r in (("--dz-range", self.dz_range), (axis_flag, self.axis)):
            if r is not None and (np.diff(r.values()) <= 0.0).any():
                raise ConfigError(f"{flag}: range {r.start}:{r.stop}:{r.step} repeats grid "
                                  "points (step below the float spacing of its values)")


PRESETS = {
    "fig1": {"mode": "thermal", "jx": 0.2, "jy": 0.4, "jz": 0.8,
             "t-range": "0.01:2:0.02", "dz-range": "0:3:0.05"},
    "fig2-lower": {"mode": "decoherence", "jx": 0.03, "jy": 0.06, "jz": 0.0, "dz": 6.0,
                   "gamma": 0.01, "time-range": "0:6:0.005"},
    "fig2-upper": {"mode": "decoherence", "jx": 3.0, "jy": 0.6, "jz": 0.0, "dz": 0.1,
                   "gamma": 0.1, "time-range": "0:12:0.01"},
}


def run_sweep(cfg: SweepConfig) -> np.ndarray:
    """Measures of the Gibbs state over (dz, T) or of the dephased Bell pair over (dz, t).

    One float row per grid point in (dz, axis) order, its columns those of the
    mode's CSV header.  A row with a non-finite value or a measure below -1e-9
    raises ValueError naming the first such row.
    """
    dzs = cfg.dz_range.values() if cfg.dz_range is not None else np.array([cfg.params.dz])
    xs = cfg.axis.values()
    blocks = []
    for dz in dzs:
        params = replace(cfg.params, dz=float(dz))
        if cfg.mode == "thermal":
            states, devs = _gibbs_states(params, xs), []
        else:
            states = _dephased_states(params, cfg.gamma, xs, bell_initial_state())
            devs = [np.abs(states - _bell_closed_forms(params, cfg.gamma, xs)).max(axis=(1, 2))]
        cols = correlation_columns(states)
        blocks.append(np.column_stack([np.full(xs.size, dz), xs, cols.concurrence, cols.classical_correlation,
                                       cols.quantum_discord, cols.mutual_information, *devs]))
    table = np.concatenate(blocks)
    values = table[:, :6]
    finite = np.isfinite(values).all(axis=1)
    bad = ~finite | (values[:, 2:] < -1e-9).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        what = "negative correlation value in sweep row" if finite[i] else "non-finite sweep row"
        raise ValueError(f"{what}: {tuple(values[i].tolist())}")
    return table


def emit_csv(table: np.ndarray, path: str, mode: str) -> None:
    """Write the mode's header plus the table's rows, 12 significant digits, newline-terminated."""
    lines = [THERMAL_HEADER if mode == "thermal" else DECOHERENCE_HEADER]
    lines += (",".join(format(x, ".12g") for x in row) for row in np.asarray(table).tolist())
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def staged_output(path: str):
    """Reserve a temp file next to ``path`` before any work; yield its name.

    The temp file is created up front, so an unwritable target fails before
    the sweep runs.  On a clean exit the temp file replaces ``path``; on any
    failure it is removed.  OSErrors surface as OutputError.
    """
    if os.path.isdir(path):
        raise OutputError(f"cannot write {path}: it is a directory")
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        open(tmp, "w").close()
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    try:
        yield tmp
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc}") from exc
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def find_zero_runs(table: np.ndarray) -> list[tuple[float, float]]:
    """Maximal axis intervals where the concurrence is exactly zero, bounded on
    both sides by positive values of the same Dz block (death/revival events)."""
    events = []
    for block in np.split(table, np.flatnonzero(np.diff(table[:, 0])) + 1):
        # step +1 enters a zero run and -1 leaves it; a run that opens the
        # block has no +1 and a run that closes it has no -1
        step = np.diff((block[:, 2] == 0.0).astype(int))
        starts, ends = np.flatnonzero(step == 1) + 1, np.flatnonzero(step == -1)
        ends = ends[ends >= starts[0]] if starts.size else ends[:0]
        events += zip(block[starts[:ends.size], 1].tolist(), block[ends, 1].tolist())
    return events
