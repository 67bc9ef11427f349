"""OLTP-Bench-style harness + the paper's figure runners."""

from .driver import DriverConfig, DriverResult, WorkloadDriver
from .metrics import LatencyRecorder, LatencySummary, ThroughputSeries, cdf_points, percentile
from .report import render_cdf, render_timeseries, summary_rows
from .scenarios import (
    AdaptiveClient,
    ExperimentConfig,
    ExperimentResult,
    build_database,
    measure_max_throughput,
    run_migration_experiment,
)
from .experiments import ALL_FIGURES, FigureResult, Profile

__all__ = [
    "DriverConfig",
    "DriverResult",
    "WorkloadDriver",
    "LatencyRecorder",
    "LatencySummary",
    "ThroughputSeries",
    "cdf_points",
    "percentile",
    "render_cdf",
    "render_timeseries",
    "summary_rows",
    "AdaptiveClient",
    "ExperimentConfig",
    "ExperimentResult",
    "build_database",
    "measure_max_throughput",
    "run_migration_experiment",
    "ALL_FIGURES",
    "FigureResult",
    "Profile",
]
