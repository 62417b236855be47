"""Penalty families and exact univariate penalized-least-squares solvers.

Supported families: lasso, adaptive lasso, SCAD (alpha > 2, default 2.5) and
MCP (alpha > 1, default 1.5). The coordinate-descent engine repeatedly solves

    minimize over b:   0.5 * v * (y/v - b)^2 + p_{theta,alpha}(|b|)

for which each family admits a closed form when the relevant curvature is
positive. In the nonconvex regimes (v <= 1/alpha for MCP, v <= 1/(alpha-1)
for SCAD) the closed forms are invalid; there the solver minimizes the exact
objective over the finite candidate set containing 0, the kink points and the
per-segment stationary points, which provably contains a global minimizer.
Objective ties are resolved toward the nonzero candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("lasso", "adaptive_lasso", "scad", "mcp")
DEFAULT_ALPHA = {"scad": 2.5, "mcp": 1.5}


@dataclass(frozen=True)
class PenaltySpec:
    """Family, shape alpha, threshold theta and optional adaptive weights.

    weights holds |beta_tilde_j| from a pilot estimator; a zero weight means
    an infinite penalty, pinning that coefficient at 0.
    """

    family: str
    theta: float
    alpha: float | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown penalty family {self.family!r}")
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")
        alpha = self.alpha
        if alpha is None and self.family in DEFAULT_ALPHA:
            alpha = DEFAULT_ALPHA[self.family]
            object.__setattr__(self, "alpha", alpha)
        if self.family == "scad" and not alpha > 2:
            raise ValueError("scad requires alpha > 2")
        if self.family == "mcp" and not alpha > 1:
            raise ValueError("mcp requires alpha > 1")
        if self.family == "adaptive_lasso":
            if self.weights is None:
                raise ValueError("adaptive_lasso requires weights")
            object.__setattr__(
                self, "weights", np.asarray(self.weights, dtype=float)
            )
            if np.any(self.weights < 0):
                raise ValueError("adaptive weights must be nonnegative")


def soft_threshold(x: float, t: float) -> float:
    """S(x, t): shrink x toward 0 by t, exactly 0 inside [-t, t]."""
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def penalty_value(spec: PenaltySpec, b: float, weight: float | None = None) -> float:
    """p_{theta,alpha}(|b|); adaptive lasso divides theta by the coordinate weight."""
    if not np.isfinite(b):
        raise ValueError("penalty_value needs a finite argument")
    if spec.family == "adaptive_lasso":
        if weight is None:
            raise ValueError("adaptive_lasso penalty needs the coordinate weight")
        if weight == 0.0:
            return 0.0 if b == 0.0 else np.inf
        return spec.theta * abs(b) / weight
    theta, alpha, a = spec.theta, spec.alpha, abs(b)
    if spec.family == "lasso":
        return theta * a
    if spec.family == "scad":
        if a <= theta:
            return theta * a
        if a <= alpha * theta:
            return (2.0 * alpha * theta * a - a * a - theta * theta) / (2.0 * (alpha - 1.0))
        return (alpha + 1.0) * theta * theta / 2.0
    if spec.family == "mcp":
        if a <= alpha * theta:
            return theta * a - a * a / (2.0 * alpha)
        return alpha * theta * theta / 2.0
    raise ValueError(spec.family)


def _best_candidate(spec: PenaltySpec, y: float, v: float, candidates) -> float:
    """Exact minimization over a finite candidate set; ties pick larger |b|."""
    best_b = 0.0
    best_m = 0.5 * v * (y / v) ** 2 + penalty_value(spec, 0.0)
    for b in candidates:
        m = 0.5 * v * (y / v - b) ** 2 + penalty_value(spec, b)
        if m < best_m or (m == best_m and abs(b) > abs(best_b)):
            best_b, best_m = b, m
    return best_b


def univariate_solve(spec: PenaltySpec, y: float, v: float, weight: float | None = None) -> float:
    """Global minimizer of 0.5 v (y/v - b)^2 + p_{theta,alpha}(|b|)."""
    if not v > 0:
        raise ValueError("univariate_solve requires v > 0")
    if y == 0.0:
        return 0.0
    theta, alpha, family = spec.theta, spec.alpha, spec.family
    if family == "lasso":
        return soft_threshold(y, theta) / v
    if family == "adaptive_lasso":
        if weight is None:
            raise ValueError("adaptive_lasso solve needs the coordinate weight")
        if weight == 0.0:
            return 0.0
        # product form of the zero condition |y| <= theta/weight; exact at
        # theta_max, where the binding coordinate ties bitwise
        if abs(y) * weight <= theta:
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
    if family == "scad":
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
    raise ValueError(family)


def theta_max(
    family: str,
    y: np.ndarray,
    v: np.ndarray,
    weights: np.ndarray | None = None,
    alpha: float | None = None,
    penalized: np.ndarray | None = None,
) -> float:
    """Smallest theta at which every penalized coordinate solves to 0.

    y and v are the coordinate-descent linearization at the null model
    (see path.null_linearization). lasso: max |y_j|; adaptive lasso:
    max |y_j| * |beta_tilde_j|; SCAD: max(|y_j|, |y_j|/v_j); MCP:
    max(|y_j|, |y_j|/(v_j alpha)).
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if penalized is None:
        penalized = np.ones(y.shape, dtype=bool)
    ay = np.abs(y[penalized])
    av = v[penalized]
    if ay.size == 0 or not np.any(ay > 0):
        raise ValueError("degenerate null fit: all linearized scores are zero")
    if family == "lasso":
        return float(ay.max())
    if family == "adaptive_lasso":
        if weights is None:
            raise ValueError("adaptive_lasso theta_max needs weights")
        w = np.asarray(weights, dtype=float)[penalized]
        val = float((ay * w).max())
        if val <= 0:
            raise ValueError("degenerate null fit: all adaptive weights are zero")
        return val
    if alpha is None:
        alpha = DEFAULT_ALPHA[family]
    with np.errstate(divide="ignore"):
        if family == "scad":
            return float(np.maximum(ay, ay / av).max())
        if family == "mcp":
            return float(np.maximum(ay, ay / (av * alpha)).max())
    raise ValueError(family)
