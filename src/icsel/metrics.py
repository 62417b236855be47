"""Scoring fitted coefficient vectors against a known truth.

Selection errors are counted over every coordinate and use exact zeros by
default (the solvers threshold exactly); a tolerance knob exists for
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


@dataclass
class AggregateReport:
    means: dict[str, float]
    ses: dict[str, float]


def score(beta_hat: np.ndarray, beta_true: np.ndarray, tol: float = 0.0) -> FitReport:
    """L1/L2 errors plus false positives and negatives.

    A coordinate counts as selected when |beta_hat_j| > tol; tol = 0 means
    exact-zero detection.
    """
    beta_hat = np.asarray(beta_hat, dtype=float)
    beta_true = np.asarray(beta_true, dtype=float)
    if beta_hat.shape != beta_true.shape:
        raise ValueError("estimate and truth must have equal length")
    diff = beta_hat - beta_true
    sel = np.abs(beta_hat) > tol
    true_nz = beta_true != 0
    return FitReport(
        l1_error=float(np.abs(diff).sum()),
        l2_error=float(np.sqrt((diff * diff).sum())),
        fp=int(np.count_nonzero(sel & ~true_nz)),
        fn=int(np.count_nonzero(~sel & true_nz)),
        beta_hat_on_true_support=beta_hat[true_nz],
    )


METRIC_FIELDS = ("l1_error", "l2_error", "fp", "fn")


def aggregate(reports: list[FitReport]) -> AggregateReport:
    """Sample mean and standard error per metric.

    With a single report the standard errors are undefined and reported as NaN.
    """
    if not reports:
        raise ValueError("aggregate needs at least one report")
    count = len(reports)
    means: dict[str, float] = {}
    ses: dict[str, float] = {}
    for name in METRIC_FIELDS:
        vals = np.array([getattr(rep, name) for rep in reports], dtype=float)
        means[name] = float(vals.mean())
        ses[name] = float(vals.std(ddof=1) / math.sqrt(count)) if count > 1 else math.nan
    return AggregateReport(means=means, ses=ses)


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
