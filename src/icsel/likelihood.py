"""Observed-data log likelihood for the proportional-hazards model.

The cumulative baseline hazard is a step function with jump lambda_k at the
right endpoint u_k of the k-th maximal intersection. Each subject contributes

    log( exp(-A_i) * [1 - exp(-B_i)]^{I(R_i < inf)} )

with A_i = Lambda(L_i) e^{beta'Z_i} and B_i = (Lambda(R_i) - Lambda(L_i))
e^{beta'Z_i}; exp(-Lambda(inf | Z)) = 0 by convention. Under left truncation
Lambda(V_i0) e^{beta'Z_i} is subtracted from A_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .support import SupportSet

_LOG2 = math.log(2.0)
LINPRED_CLAMP = 700.0


@dataclass
class ModelState:
    """Regression coefficients plus baseline jump sizes on a support set."""

    beta: np.ndarray
    lam: np.ndarray
    support: SupportSet

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.lam.shape[0] != self.support.m:
            raise ValueError("lambda length must match the support set size")


def log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - exp(-x)) for x > 0 without catastrophic cancellation.

    Uses log(-expm1(-x)) for x <= log 2 and log1p(-exp(-x)) above, which keeps
    the relative error near machine precision across the whole range.
    """
    small = x <= _LOG2
    out = np.empty_like(x)
    out[small] = np.log(-np.expm1(-x[small]))
    out[~small] = np.log1p(-np.exp(-x[~small]))
    return out


def clamped_linpred(Z: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, int]:
    """beta'Z_i clamped to +-700 before exponentiation; returns the clamp count."""
    eta = Z @ beta
    n_clamped = int(np.count_nonzero(np.abs(eta) > LINPRED_CLAMP))
    if n_clamped:
        eta = np.clip(eta, -LINPRED_CLAMP, LINPRED_CLAMP)
    return eta, n_clamped


def _check_finite(state: ModelState):
    if not (np.all(np.isfinite(state.beta)) and np.all(np.isfinite(state.lam))):
        raise ValueError("model state contains non-finite beta or lambda values")


def loglik(state: ModelState, dataset: Dataset) -> float:
    """Observed-data log likelihood in jump-size form.

    Each subject conditions on T > V_i0; without truncation Lambda(V_i0) = 0
    because every u_k > 0, so the subtracted term is exactly zero. Returns
    -inf when any interval-censored subject has zero bracket mass (B_i = 0).
    The linear predictor is clamped to +-700 as a safety valve for divergent
    intermediate iterates.
    """
    upper = state.support.upper
    a, c, d = (
        np.searchsorted(upper, t, side="right")
        for t in (dataset.truncation, dataset.left, dataset.right)
    )
    return _loglik_indexed(state, dataset.covariates, a, c, d, np.isfinite(dataset.right))


def _loglik_indexed(
    state: ModelState,
    covariates: np.ndarray,
    a: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    ic: np.ndarray,
) -> float:
    """loglik with each subject's support indices already known.

    a, c and d index the first u_k past V_i0, L_i and R_i (d is read only
    where ic, the interval-censored mask), so Lambda at each endpoint is one
    lookup into the cumulative jump sums.
    """
    _check_finite(state)
    eta, _ = clamped_linpred(covariates, state.beta)
    exb = np.exp(eta)
    cum = np.concatenate(([0.0], np.cumsum(state.lam)))
    at_left = cum[c]
    A = at_left * exb - cum[a] * exb
    total = -float(np.sum(A))
    B = (cum[d[ic]] - at_left[ic]) * exb[ic]
    if np.any(B <= 0.0):
        return -math.inf
    total += float(np.sum(log1mexp(B)))
    return total
