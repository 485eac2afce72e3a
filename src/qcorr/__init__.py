"""Correlation dynamics of a two-qubit XYZ chain with z-axis DM coupling (README API only)."""

from .correlations import CorrelationReport, MeasurementBasis, correlation_report
from .errors import ConfigError, NumericFailure, OutputError, QcorrError
from .model import (
    DecoherenceParams,
    ModelParams,
    ThermalPoint,
    bell_initial_state,
    milburn_evolve,
    thermal_state,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CorrelationReport",
    "DecoherenceParams",
    "MeasurementBasis",
    "ModelParams",
    "NumericFailure",
    "OutputError",
    "QcorrError",
    "ThermalPoint",
    "bell_initial_state",
    "correlation_report",
    "milburn_evolve",
    "thermal_state",
]
