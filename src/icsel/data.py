"""Data model for interval-censored observations with covariates.

Each subject carries a censoring interval (left, right] with right possibly
infinite (right-censored past the last inspection), an optional left-truncation
entry time, and a covariate row. Covariate standardization rescales every
column to sample mean 0 and sample second moment sum(z^2)/n = 1 and records
the per-column (center, scale) pair so fitted coefficients can be mapped back
to the original scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_CONST_SCALE_TOL = 1e-12


@dataclass(frozen=True)
class StandardizationRecord:
    """Per-column centers and scales, plus the constant-column flags.

    Constant columns are left untouched (center 0, scale 1) and are pinned to
    a zero coefficient by the fitter; their v_j curvature would be degenerate.
    """

    center: np.ndarray
    scale: np.ndarray
    constant: np.ndarray

    def to_original_scale(self, beta, lam) -> tuple[np.ndarray, np.ndarray]:
        """(coefficients, baseline jump sizes) of a standardized fit on the original scale.

        Coefficients become beta_j / s_j. Standardized covariates shift the
        linear predictor by -sum_j beta_j c_j / s_j, which the jump sizes absorb.
        """
        beta = np.asarray(beta, dtype=float)
        factor = float(np.exp(-np.sum(beta * self.center / self.scale)))
        return beta / self.scale, lam * factor


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
    def truncated(self) -> bool:
        """Whether any subject enters late (a positive truncation time)."""
        return bool(np.any(self.truncation > 0))

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
    L, R, V = dataset.left, dataset.right, dataset.truncation
    bad_trunc = ~np.isfinite(V) | (V < 0)
    # in message order; the R checks and the V checks are each mutually
    # exclusive, as a per-subject if/elif chain would make them
    checks = [
        (~np.isfinite(L) | (L < 0), "left endpoint must be finite and nonnegative"),
        (np.isnan(R), "right endpoint is NaN"),
        (R == L, "left equals right (exact event times unsupported)"),
        (R < L, "left >= right"),
        (bad_trunc, "truncation time must be finite and nonnegative"),
        (~bad_trunc & (V > L), "truncation exceeds left endpoint"),
        (~np.all(np.isfinite(dataset.covariates), axis=1), "covariates contain non-finite values"),
    ]
    failed = np.array([mask for mask, _ in checks])
    violations = [
        f"subject {i}: {checks[k][1]}"
        for i in np.flatnonzero(failed.any(axis=0))
        for k in np.flatnonzero(failed[:, i])
    ]
    # the fitter reads only whether a factor is zero, so it cannot honor other weights
    if not np.all(np.isin(dataset.penalty_factors, (0.0, 1.0))):
        violations.append("penalty factors must be 0 (unpenalized) or 1 (penalized)")
    return violations


def standardize(dataset: Dataset) -> tuple[Dataset, StandardizationRecord]:
    """Center and rescale every covariate column to mean 0, sum(z^2)/n = 1.

    The scale is the population-style root mean square about the mean, so the
    standardized second moment is exactly 1. Constant columns are flagged and
    left untouched. A column whose mean or scale overflows is rejected.
    """
    if dataset.n < 2:
        raise ValidationError("standardization needs at least 2 subjects")
    if dataset.p < 1:
        raise ValidationError("standardization needs at least 1 covariate")
    Z = dataset.covariates
    with np.errstate(over="ignore"):
        center = Z.mean(axis=0)
        centered = Z - center
        scale = np.sqrt(np.mean(centered * centered, axis=0))
    overflowed = np.flatnonzero(~(np.isfinite(center) & np.isfinite(scale)))
    if overflowed.size:
        raise ValidationError(
            f"covariate {overflowed[0]} is too large to standardize (its mean or scale overflows)"
        )
    constant = (Z.max(axis=0) - Z.min(axis=0)) <= _CONST_SCALE_TOL * np.maximum(
        1.0, np.abs(center)
    )
    center = np.where(constant, 0.0, center)
    scale = np.where(constant, 1.0, scale)
    out = (Z - center) / scale
    record = StandardizationRecord(center=center, scale=scale, constant=constant)
    return dataset.replace(covariates=out, standardization=record), record
