"""Experiment harness: scenario config, Monte-Carlo drivers, CLI."""

from .config import ScenarioConfig, desk_preset, table1_preset
from .experiments import (
    ExperimentResult,
    empirical_cdf,
    run_detection_experiment,
    run_rate_experiment,
)
from .scenario import noise_variance

__all__ = [
    "ScenarioConfig",
    "desk_preset",
    "table1_preset",
    "ExperimentResult",
    "empirical_cdf",
    "noise_variance",
    "run_rate_experiment",
    "run_detection_experiment",
]
