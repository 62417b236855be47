"""Data model for interval-censored observations with covariates.

Each subject carries a censoring interval (left, right] with right possibly
infinite (right-censored past the last inspection), an optional left-truncation
entry time, and a covariate row. Covariate standardization rescales every
column to sample mean 0 and sample second moment sum(z^2)/n = 1 and records
the per-column (center, scale) pair so fitted coefficients can be mapped back
to the original scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

INF = math.inf

_CONST_SCALE_TOL = 1e-12


@dataclass(frozen=True)
class Observation:
    """One subject: interval (left, right], entry time, covariate row."""

    left: float
    right: float
    covariates: np.ndarray
    truncation: float = 0.0


@dataclass(frozen=True)
class StandardizationRecord:
    """Per-column centers and scales, plus the constant-column flags.

    Constant columns are left untouched (center 0, scale 1) and are pinned to
    a zero coefficient by the fitter; their v_j curvature would be degenerate.
    """

    center: np.ndarray
    scale: np.ndarray
    constant: np.ndarray

    def destandardize_beta(self, beta: np.ndarray) -> np.ndarray:
        """Coefficients on the original covariate scale: beta_j / s_j."""
        return np.asarray(beta, dtype=float) / self.scale

    def restandardize_beta(self, beta_original: np.ndarray) -> np.ndarray:
        return np.asarray(beta_original, dtype=float) * self.scale

    def baseline_factor(self, beta: np.ndarray) -> float:
        """Multiplier turning fitted jump sizes into original-scale jumps.

        Standardized covariates shift the linear predictor by
        -sum_j beta_j c_j / s_j, which the baseline hazard absorbs.
        """
        return float(np.exp(-np.sum(np.asarray(beta, dtype=float) * self.center / self.scale)))

    def to_original_scale(self, beta, lam) -> tuple[np.ndarray, np.ndarray]:
        """(coefficients, baseline jump sizes) of a standardized fit on the original scale."""
        return self.destandardize_beta(beta), lam * self.baseline_factor(beta)


class Dataset:
    """Immutable bundle of censoring intervals, covariates and penalty factors.

    Arrays are locked read-only after construction so a Dataset can be shared
    across parallel workers.
    """

    def __init__(
        self,
        left,
        right,
        covariates,
        truncation=None,
        penalty_factors=None,
        standardization: StandardizationRecord | None = None,
    ):
        left = np.ascontiguousarray(left, dtype=float)
        right = np.ascontiguousarray(right, dtype=float)
        covariates = np.ascontiguousarray(covariates, dtype=float)
        if covariates.ndim != 2:
            raise ValidationError("covariates must be a 2-d array (subjects x covariates)")
        n, p = covariates.shape
        if left.shape != (n,) or right.shape != (n,):
            raise ValidationError("left/right endpoint arrays must have one entry per subject")
        if truncation is None:
            truncation = np.zeros(n)
        truncation = np.ascontiguousarray(truncation, dtype=float)
        if truncation.shape != (n,):
            raise ValidationError("truncation array must have one entry per subject")
        if penalty_factors is None:
            penalty_factors = np.ones(p)
        penalty_factors = np.ascontiguousarray(penalty_factors, dtype=float)
        if penalty_factors.shape != (p,):
            raise ValidationError("penalty_factors must have one entry per covariate")
        for arr in (left, right, covariates, truncation, penalty_factors):
            arr.setflags(write=False)
        self.left = left
        self.right = right
        self.covariates = covariates
        self.truncation = truncation
        self.penalty_factors = penalty_factors
        self.standardization = standardization

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    @property
    def observations(self) -> list[Observation]:
        return [
            Observation(
                left=float(self.left[i]),
                right=float(self.right[i]),
                covariates=self.covariates[i],
                truncation=float(self.truncation[i]),
            )
            for i in range(self.n)
        ]

    @classmethod
    def from_observations(cls, observations, penalty_factors=None) -> "Dataset":
        if not observations:
            raise ValidationError("dataset needs at least one observation")
        Z = np.stack([np.asarray(o.covariates, dtype=float) for o in observations])
        return cls(
            left=[o.left for o in observations],
            right=[o.right for o in observations],
            covariates=Z,
            truncation=[o.truncation for o in observations],
            penalty_factors=penalty_factors,
        )

    def replace(self, **kwargs) -> "Dataset":
        base = dict(
            left=self.left,
            right=self.right,
            covariates=self.covariates,
            truncation=self.truncation,
            penalty_factors=self.penalty_factors,
            standardization=self.standardization,
        )
        base.update(kwargs)
        return Dataset(**base)


def validate(dataset: Dataset) -> list[str]:
    """Collect every invariant violation, tagged with the subject index.

    Returns an empty list when the dataset is well formed. Diagnostic only:
    never raises.
    """
    violations: list[str] = []
    L, R, V = dataset.left, dataset.right, dataset.truncation
    for i in range(dataset.n):
        if not np.isfinite(L[i]) or L[i] < 0:
            violations.append(f"subject {i}: left endpoint must be finite and nonnegative")
        if np.isnan(R[i]):
            violations.append(f"subject {i}: right endpoint is NaN")
        elif R[i] == L[i]:
            violations.append(f"subject {i}: left equals right (exact event times unsupported)")
        elif R[i] < L[i]:
            violations.append(f"subject {i}: left >= right")
        if not np.isfinite(V[i]) or V[i] < 0:
            violations.append(f"subject {i}: truncation time must be finite and nonnegative")
        elif V[i] > L[i]:
            violations.append(f"subject {i}: truncation exceeds left endpoint")
        if not np.all(np.isfinite(dataset.covariates[i])):
            violations.append(f"subject {i}: covariates contain non-finite values")
    # the fitter reads only whether a factor is zero, so it cannot honor other weights
    if not np.all(np.isin(dataset.penalty_factors, (0.0, 1.0))):
        violations.append("penalty factors must be 0 (unpenalized) or 1 (penalized)")
    return violations


def standardize(dataset: Dataset) -> tuple[Dataset, StandardizationRecord]:
    """Center and rescale every covariate column to mean 0, sum(z^2)/n = 1.

    The scale is the population-style root mean square about the mean, so the
    standardized second moment is exactly 1. Constant columns are flagged and
    left untouched.
    """
    if dataset.n < 2:
        raise ValidationError("standardization needs at least 2 subjects")
    if dataset.p < 1:
        raise ValidationError("standardization needs at least 1 covariate")
    Z = dataset.covariates
    center = Z.mean(axis=0)
    centered = Z - center
    scale = np.sqrt(np.mean(centered * centered, axis=0))
    constant = (Z.max(axis=0) - Z.min(axis=0)) <= _CONST_SCALE_TOL * np.maximum(
        1.0, np.abs(center)
    )
    center = np.where(constant, 0.0, center)
    scale = np.where(constant, 1.0, scale)
    out = (Z - center) / scale
    record = StandardizationRecord(center=center, scale=scale, constant=constant)
    return dataset.replace(covariates=out, standardization=record), record
