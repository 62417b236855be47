"""Penalty families and exact univariate penalized-least-squares solvers.

Supported families: lasso, adaptive lasso, SCAD (alpha > 2, default 2.5) and
MCP (alpha > 1, default 1.5). The lasso is the adaptive lasso's weighted L1
rule at unit weight. The coordinate-descent engine repeatedly solves

    minimize over b:   0.5 * v * (y/v - b)^2 + p_{theta,alpha}(|b|)

for which each family admits a closed form when the relevant curvature is
positive. In the nonconvex regimes (v <= 1/alpha for MCP, v <= 1/(alpha-1)
for SCAD) the closed forms are invalid; there the solver minimizes the exact
objective over the finite candidate set containing 0, the kink points and the
per-segment stationary points, which provably contains a global minimizer.
Ties go to the nonzero candidate; `penalty_value` serves this search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

FAMILIES = ("lasso", "adaptive_lasso", "scad", "mcp")
L1_FAMILIES = ("lasso", "adaptive_lasso")
DEFAULT_ALPHA = {"scad": 2.5, "mcp": 1.5}


@dataclass(frozen=True)
class PenaltySpec:
    """Family, shape alpha, threshold theta and, for adaptive_lasso only, weights.

    weights holds |beta_tilde_j| from a pilot estimator; a zero weight means
    an infinite penalty, pinning that coefficient at 0.
    """

    family: str
    theta: float
    alpha: float | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown penalty family {self.family!r}")
        if self.theta < 0:
            raise ValidationError("theta must be nonnegative")
        if self.alpha is None and self.family in DEFAULT_ALPHA:
            object.__setattr__(self, "alpha", DEFAULT_ALPHA[self.family])
        alpha = self.alpha
        if self.family == "scad" and not alpha > 2:
            raise ValidationError("scad requires alpha > 2")
        if self.family == "mcp" and not alpha > 1:
            raise ValidationError("mcp requires alpha > 1")
        if (self.weights is None) == (self.family == "adaptive_lasso"):
            raise ValidationError("adaptive_lasso takes weights and no other family does")
        if self.weights is not None:
            object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
            if np.any(self.weights < 0):
                raise ValidationError("adaptive weights must be nonnegative")


def soft_threshold(x: float, t: float) -> float:
    """S(x, t): shrink x toward 0 by t, exactly 0 inside [-t, t]."""
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def penalty_value(spec: PenaltySpec, b: float) -> float:
    """p_{theta,alpha}(|b|) of a SCAD or MCP spec."""
    if not np.isfinite(b):
        raise NumericalError("penalty_value needs a finite argument")
    theta, alpha, a = spec.theta, spec.alpha, abs(b)
    if spec.family == "scad":
        if a <= theta:
            return theta * a
        if a <= alpha * theta:
            return (2.0 * alpha * theta * a - a * a - theta * theta) / (2.0 * (alpha - 1.0))
        return (alpha + 1.0) * theta * theta / 2.0
    if a <= alpha * theta:
        return theta * a - a * a / (2.0 * alpha)
    return alpha * theta * theta / 2.0


def _best_candidate(spec: PenaltySpec, y: float, v: float, candidates) -> float:
    """Exact minimization over a finite candidate set; ties pick larger |b|."""
    # a numpy scalar squares past the float range to inf, with a warning, where
    # a Python float raises OverflowError
    y = np.float64(y)
    best_b = 0.0
    best_m = 0.5 * v * (y / v) ** 2  # SCAD and MCP cost nothing at b = 0
    for b in candidates:
        m = 0.5 * v * (y / v - b) ** 2 + penalty_value(spec, b)
        if m < best_m or (m == best_m and abs(b) > abs(best_b)):
            best_b, best_m = b, m
    return best_b


def univariate_solve(spec: PenaltySpec, y: float, v: float, weight: float = 1.0) -> float:
    """Global minimizer of 0.5 v (y/v - b)^2 + p_{theta,alpha}(|b|); weight is
    the coordinate's L1 weight (1 for the lasso), unread by SCAD and MCP."""
    if not v > 0:
        raise NumericalError("univariate_solve requires v > 0")
    if y == 0.0:
        return 0.0
    theta, alpha, family = spec.theta, spec.alpha, spec.family
    if family in L1_FAMILIES:
        # product form of the zero condition |y| <= theta/weight; exact at
        # theta_max, where the binding coordinate ties bitwise
        if weight == 0.0 or abs(y) * weight <= theta:
            return 0.0
        return soft_threshold(y, theta / weight) / v
    sign = 1.0 if y > 0 else -1.0
    a = abs(y)
    if family == "mcp":
        if v * alpha > 1.0:
            if a <= v * alpha * theta:
                b = soft_threshold(a, theta) / (v - 1.0 / alpha)
            else:
                b = a / v
            return sign * b
        # concave middle segment: global minimum sits at 0, the kink alpha*theta,
        # or the outer stationary point a/v
        cands = [a / v, alpha * theta]
        return sign * _best_candidate(spec, a, v, cands)
    if v * (alpha - 1.0) > 1.0:
        if a <= theta * (v + 1.0):
            b = soft_threshold(a, theta) / v
        elif a <= v * alpha * theta:
            b = soft_threshold(a, alpha * theta / (alpha - 1.0)) / (v - 1.0 / (alpha - 1.0))
        else:
            b = a / v
        return sign * b
    cands = [a / v, soft_threshold(a, theta) / v, theta, alpha * theta]
    return sign * _best_candidate(spec, a, v, cands)


def theta_max(
    spec: PenaltySpec, y: np.ndarray, v: np.ndarray, penalized: np.ndarray | None = None
) -> float:
    """Smallest theta at which every penalized coordinate solves to 0 under
    spec's family, alpha and weights (its theta is not read).

    y and v are the coordinate-descent linearization at the null model
    (see path.null_linearization). L1 rule: max |y_j| * w_j, with w_j = 1
    for the lasso and |beta_tilde_j| for the adaptive lasso; SCAD:
    max(|y_j|, |y_j|/v_j); MCP: max(|y_j|, |y_j|/(v_j alpha)).
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if penalized is None:
        penalized = np.ones(y.shape, dtype=bool)
    ay = np.abs(y[penalized])
    av = v[penalized]
    if ay.size == 0 or not np.any(ay > 0):
        raise NumericalError("degenerate null fit: all linearized scores are zero")
    if spec.family in L1_FAMILIES:
        w = 1.0 if spec.weights is None else spec.weights[penalized]
        val = float((ay * w).max())
        if val <= 0:
            raise NumericalError("degenerate null fit: all adaptive weights are zero")
        return val
    curv = av if spec.family == "scad" else av * spec.alpha
    with np.errstate(divide="ignore"):
        theta = np.maximum(ay, ay / curv)
    if spec.family == "mcp":
        # v_j alpha at or just below 1 leaves the objective flat on [0, alpha |y_j|]
        # at theta = |y_j| / (v_j alpha) to within rounding, and the tie rule can
        # pick the nonzero end: step a few ulps past it. Random solves picked it up
        # to 6 ulps below 1; the band reaches 16.
        eps = np.finfo(float).eps
        theta[(curv <= 1.0) & (curv >= 1.0 - 8 * eps)] *= 1.0 + 4 * eps
    return float(theta.max())
