"""Scoring fitted coefficient vectors against a known truth.

Selection errors are counted over penalized coordinates only and use exact
zeros by default (the solvers threshold exactly); a tolerance knob exists for
externally produced estimates. Estimation errors are plain L1/L2 norms over
the full vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .support import SupportSet


@dataclass
class FitReport:
    l1_error: float
    l2_error: float
    fp: int
    fn: int
    beta_hat_on_true_support: np.ndarray
    nnz: int


@dataclass
class AggregateReport:
    count: int
    means: dict[str, float]
    ses: dict[str, float]
    coef_means: np.ndarray
    coef_ses: np.ndarray
    se_defined: bool


def score(
    beta_hat: np.ndarray,
    beta_true: np.ndarray,
    penalized: np.ndarray | None = None,
    tol: float = 0.0,
) -> FitReport:
    """L1/L2 errors plus false positives and negatives.

    A coordinate counts as selected when |beta_hat_j| > tol; tol = 0 means
    exact-zero detection.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    beta_true = np.asarray(beta_true, dtype=float)
    if beta_hat.shape != beta_true.shape:
        raise ValueError("estimate and truth must have equal length")
    if penalized is None:
        penalized = np.ones(beta_hat.shape, dtype=bool)
    diff = beta_hat - beta_true
    sel = np.abs(beta_hat) > tol
    true_nz = beta_true != 0
    fp = int(np.count_nonzero(sel & ~true_nz & penalized))
    fn = int(np.count_nonzero(~sel & true_nz & penalized))
    return FitReport(
        l1_error=float(np.abs(diff).sum()),
        l2_error=float(np.sqrt((diff * diff).sum())),
        fp=fp,
        fn=fn,
        beta_hat_on_true_support=beta_hat[true_nz],
        nnz=int(np.count_nonzero(sel & penalized)),
    )


_METRIC_FIELDS = ("l1_error", "l2_error", "fp", "fn")


def aggregate(reports: list[FitReport]) -> AggregateReport:
    """Sample mean and standard error per metric, plus per-coefficient stats.

    With a single report the standard errors are undefined; they are reported
    as NaN and se_defined is False.
    """
    if not reports:
        raise ValueError("aggregate needs at least one report")
    count = len(reports)
    se_defined = count > 1
    means: dict[str, float] = {}
    ses: dict[str, float] = {}
    for name in _METRIC_FIELDS:
        vals = np.array([getattr(rep, name) for rep in reports], dtype=float)
        means[name] = float(vals.mean())
        ses[name] = float(vals.std(ddof=1) / math.sqrt(count)) if se_defined else math.nan
    coefs = np.stack([rep.beta_hat_on_true_support for rep in reports])
    coef_means = coefs.mean(axis=0)
    if se_defined:
        coef_ses = coefs.std(axis=0, ddof=1) / math.sqrt(count)
    else:
        coef_ses = np.full(coefs.shape[1], math.nan)
    return AggregateReport(
        count=count,
        means=means,
        ses=ses,
        coef_means=coef_means,
        coef_ses=coef_ses,
        se_defined=se_defined,
    )


def hazard_sup_distance(
    support: SupportSet, lam: np.ndarray, eta: float, kappa: float
) -> float:
    """Sup-norm distance between the fitted step hazard and (eta t)^kappa.

    Taken over [u_1, u_m]; on each flat piece the extremes sit at the piece
    endpoints, so only jump points need checking.
    """
    us = support.upper
    if us.size == 0:
        return math.nan
    cum = np.cumsum(np.asarray(lam, dtype=float))
    target = (eta * us) ** kappa
    at_jumps = np.abs(cum - target)
    before_next = np.abs(cum[:-1] - target[1:]) if us.size > 1 else np.array([])
    pieces = [at_jumps] if before_next.size == 0 else [at_jumps, before_next]
    return float(np.max(np.concatenate(pieces)))
