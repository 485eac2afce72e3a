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
``run_sweep`` evaluates them sequentially in grid order, picking the state
builder by mode, and ``emit_csv`` writes the rows.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .correlations import correlation_report
from .errors import ConfigError, OutputError
from .model import (
    DecoherenceParams,
    ModelParams,
    ThermalPoint,
    bell_initial_state,
    milburn_closed_form,
    milburn_evolve,
    thermal_state,
)

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
            raise ConfigError(
                f"empty range {self.start}:{self.stop}:{self.step} (stop < start)"
            )

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
        if self.axis is None:
            flag = "--t-range" if self.mode == "thermal" else "--time-range"
            raise ConfigError(f"{self.mode} mode requires {flag}")
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
        rows = (self.dz_range.count if self.dz_range is not None else 1) * self.axis.count
        if rows > MAX_GRID_ROWS:
            raise ConfigError(f"grid of {rows} rows exceeds the limit of {MAX_GRID_ROWS}")


@dataclass(frozen=True)
class SweepRow:
    """One grid point: axis values plus the four correlation measures."""

    dz: float
    axis: float  # T in thermal mode, t in decoherence mode
    concurrence: float
    classical_correlation: float
    quantum_discord: float
    mutual_information: float
    closed_form_dev: float | None = None

    def __post_init__(self):
        values = (self.dz, self.axis, self.concurrence, self.classical_correlation,
                  self.quantum_discord, self.mutual_information)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite sweep row: {values}")
        if min(values[2:]) < -1e-9:
            raise ValueError(f"negative correlation value in sweep row: {values}")


PRESETS = {
    "fig1": {"mode": "thermal", "jx": 0.2, "jy": 0.4, "jz": 0.8,
             "t-range": "0.01:2:0.02", "dz-range": "0:3:0.05"},
    "fig2-lower": {"mode": "decoherence", "jx": 0.03, "jy": 0.06, "jz": 0.0, "dz": 6.0,
                   "gamma": 0.01, "time-range": "0:6:0.005"},
    "fig2-upper": {"mode": "decoherence", "jx": 3.0, "jy": 0.6, "jz": 0.0, "dz": 0.1,
                   "gamma": 0.1, "time-range": "0:12:0.01"},
}


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """Measures of the Gibbs state over (dz, T) or of the dephased Bell pair over (dz, t)."""
    thermal = cfg.mode == "thermal"
    dzs = cfg.dz_range.values() if cfg.dz_range is not None else np.array([cfg.params.dz])
    rho0 = None if thermal else bell_initial_state()
    rows = []
    for dz in dzs:
        params = replace(cfg.params, dz=float(dz))
        for x in cfg.axis.values():
            if thermal:
                rho = thermal_state(ThermalPoint(params, float(x)))
            else:
                dp = DecoherenceParams(params, cfg.gamma, float(x))
                rho = milburn_evolve(dp, rho0)
            rep = correlation_report(rho)
            dev = None if thermal else float(np.abs(rho - milburn_closed_form(dp)).max())
            rows.append(
                SweepRow(
                    dz=float(dz),
                    axis=float(x),
                    concurrence=rep.concurrence,
                    classical_correlation=rep.classical_correlation,
                    quantum_discord=rep.quantum_discord,
                    mutual_information=rep.mutual_information,
                    closed_form_dev=dev,
                )
            )
    return rows


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def emit_csv(rows: list[SweepRow], path: str, mode: str) -> None:
    """Write header plus rows, 12 significant digits, newline-terminated."""
    if mode == "thermal":
        header = THERMAL_HEADER
    elif mode == "decoherence":
        header = DECOHERENCE_HEADER
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    lines = [header]
    for row in rows:
        fields = [
            _fmt(row.dz),
            _fmt(row.axis),
            _fmt(row.concurrence),
            _fmt(row.classical_correlation),
            _fmt(row.quantum_discord),
            _fmt(row.mutual_information),
        ]
        if mode == "decoherence":
            fields.append(_fmt(row.closed_form_dev))
        lines.append(",".join(fields))
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


def find_zero_runs(rows: list[SweepRow]) -> list[tuple[float, float]]:
    """Maximal axis intervals where the concurrence is exactly zero,
    bounded on both sides by strictly positive values (death/revival events)."""
    events = []
    run_start = None
    preceded_positive = False
    prev_axis = None
    for row in rows:
        if row.concurrence == 0.0:
            if run_start is None and preceded_positive:
                run_start = row.axis
            prev_axis = row.axis
        else:
            if run_start is not None:
                events.append((run_start, prev_axis))
            run_start = None
            preceded_positive = True
            prev_axis = row.axis
    return events
