"""Experiment harness: machine config, inputs, runner, reports, drivers."""

from repro.harness.checkpoint import (
    SweepCheckpoint,
    default_checkpoint_dir,
    list_runs,
)
from repro.harness.faults import (
    FaultInjector,
    FaultPolicy,
    GracefulShutdown,
    PointFailure,
    SweepInterrupted,
    SweepOutcome,
)
from repro.harness.machine import DEFAULT_MACHINE, MachineConfig
from repro.harness.modes import (
    ALL_MODES,
    BASELINE,
    COBRA,
    COBRA_COMM,
    COMMUTATIVE_ONLY_MODES,
    PB_SW,
    PB_SW_IDEAL,
    PHI,
    ExecutionMode,
)
from repro.harness.parallel import run_sweep
from repro.harness.report import format_series, format_table, geomean, speedup
from repro.harness.runner import Runner
from repro.harness.telemetry import NULL_TELEMETRY, JsonlTelemetry, Telemetry

__all__ = [
    "ALL_MODES",
    "BASELINE",
    "COBRA",
    "COBRA_COMM",
    "COMMUTATIVE_ONLY_MODES",
    "DEFAULT_MACHINE",
    "ExecutionMode",
    "FaultInjector",
    "FaultPolicy",
    "GracefulShutdown",
    "JsonlTelemetry",
    "MachineConfig",
    "NULL_TELEMETRY",
    "PB_SW",
    "PB_SW_IDEAL",
    "PHI",
    "PointFailure",
    "Runner",
    "SweepCheckpoint",
    "SweepInterrupted",
    "SweepOutcome",
    "Telemetry",
    "default_checkpoint_dir",
    "format_series",
    "format_table",
    "geomean",
    "speedup",
    "list_runs",
    "run_sweep",
]
