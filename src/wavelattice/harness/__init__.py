"""Experiment harness: configuration, norms, tables, experiments, CLI."""

from .config import ConfigError, ExperimentConfig, format_data_function, parse_data_function
from .experiments import (
    ExperimentResult,
    Gate,
    audit_dispersion_roots,
    audit_seno_bound,
    default_config,
    propagator_degeneration,
    run_experiment,
)
from .norms import compare_on_common_lattice, scaled_norms
from .table import ErrorTable, TableRow
