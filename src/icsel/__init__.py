"""Penalized variable selection for interval-censored proportional-hazards models."""

from .data import Dataset, StandardizationRecord, standardize, validate
from .em import EMWorkspace, FitDiagnostics, estep, fit_fixed_theta, mstep_lambda
from .errors import DegenerateSupportError, NumericalError, ParseError, ValidationError
from .likelihood import ModelState, loglik
from .metrics import AggregateReport, FitReport, aggregate, hazard_sup_distance, score
from .path import PathResult, adaptive_lasso_pipeline, gic, run_path, theta_grid
from .penalties import PenaltySpec, penalty_value, soft_threshold, theta_max, univariate_solve
from .simulate import (
    PRESETS,
    ScenarioConfig,
    censoring_stats,
    gen_snps,
    impute_genotypes,
    make_replicate,
    midpoint_impute,
    scenario_from_preset,
)
from .support import SupportSet, maximal_intersections

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "Dataset",
    "DegenerateSupportError",
    "EMWorkspace",
    "FitDiagnostics",
    "FitReport",
    "ModelState",
    "NumericalError",
    "ParseError",
    "PathResult",
    "PenaltySpec",
    "PRESETS",
    "ScenarioConfig",
    "StandardizationRecord",
    "SupportSet",
    "ValidationError",
    "adaptive_lasso_pipeline",
    "aggregate",
    "censoring_stats",
    "estep",
    "fit_fixed_theta",
    "gen_snps",
    "gic",
    "hazard_sup_distance",
    "impute_genotypes",
    "loglik",
    "make_replicate",
    "maximal_intersections",
    "midpoint_impute",
    "mstep_lambda",
    "penalty_value",
    "run_path",
    "scenario_from_preset",
    "score",
    "soft_threshold",
    "standardize",
    "theta_grid",
    "theta_max",
    "univariate_solve",
    "validate",
]
