"""Penalized variable selection for interval-censored proportional-hazards models."""

from .data import Dataset, StandardizationRecord, standardize, validate
from .em import EMWorkspace, FitDiagnostics, fit_fixed_theta
from .errors import DegenerateSupportError, NumericalError, ParseError, ValidationError
from .likelihood import ModelState, loglik
from .metrics import AggregateReport, FitReport, aggregate, hazard_sup_distance, score
from .path import GridFit, PathResult, fit_families, run_path
from .penalties import PenaltySpec
from .simulate import (
    PRESETS,
    ScenarioConfig,
    censoring_stats,
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
    "GridFit",
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
    "aggregate",
    "censoring_stats",
    "fit_families",
    "fit_fixed_theta",
    "hazard_sup_distance",
    "impute_genotypes",
    "loglik",
    "make_replicate",
    "maximal_intersections",
    "midpoint_impute",
    "run_path",
    "scenario_from_preset",
    "score",
    "standardize",
    "validate",
]
