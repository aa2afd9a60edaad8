"""Experiment orchestration: configuration, runners, reports, CLI."""

from .config import ConfigError, ExperimentConfig, derive_group, load_config
from .experiments import (
    InsufficientDataError,
    run_constants,
    run_evanescence,
    run_expansion_probability,
    run_goodfn,
    run_grassmann,
    run_integrability,
    run_key_inequality,
    run_stationary_bound,
)
from .report import ExperimentReport, Verdict, write_report

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "InsufficientDataError",
    "Verdict",
    "derive_group",
    "load_config",
    "write_report",
    "run_constants",
    "run_evanescence",
    "run_expansion_probability",
    "run_goodfn",
    "run_grassmann",
    "run_integrability",
    "run_key_inequality",
    "run_stationary_bound",
]
