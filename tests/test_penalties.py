"""Penalty values, exact univariate solvers, theta_max."""

import math

import numpy as np
import pytest

from icsel import PenaltySpec, penalty_value, soft_threshold, theta_max, univariate_solve

from oracles import grid_minimize, objective_value, reference_penalty

LASSO = PenaltySpec(family="lasso", theta=0.5)
SCAD = PenaltySpec(family="scad", theta=1.0, alpha=2.5)
MCP = PenaltySpec(family="mcp", theta=1.0, alpha=1.5)


def test_soft_threshold_definition():
    assert soft_threshold(5.0, 2.0) == 3.0
    assert soft_threshold(1.0, 2.0) == 0.0
    assert soft_threshold(-5.0, 2.0) == -3.0


def test_penalty_zero_at_zero():
    for spec in (LASSO, SCAD, MCP):
        assert penalty_value(spec, 0.0) == 0.0


def test_scad_value_tail():
    """SCAD theta=1, alpha=2.5, b=3 sits past alpha*theta: (alpha+1)theta^2/2 = 1.75."""
    assert penalty_value(SCAD, 3.0) == pytest.approx(1.75, abs=1e-15)


def test_mcp_value_inner_branch():
    """MCP theta=1, alpha=1.5, b=1: 1 - 1/3 = 2/3."""
    assert penalty_value(MCP, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_adaptive_value_and_weights():
    spec = PenaltySpec(family="adaptive_lasso", theta=0.6, weights=np.array([0.5]))
    assert penalty_value(spec, 2.0, weight=0.5) == pytest.approx(2.4, rel=1e-15)
    assert penalty_value(spec, 0.0, weight=0.0) == 0.0
    assert penalty_value(spec, 1.0, weight=0.0) == math.inf


def test_penalty_even_and_monotone():
    rng = np.random.default_rng(2)
    for spec in (LASSO, SCAD, MCP):
        bs = np.sort(rng.uniform(0.0, 5.0, size=40))
        vals = [penalty_value(spec, b) for b in bs]
        assert all(penalty_value(spec, -b) == v for b, v in zip(bs, vals))
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))


def test_value_matches_reference_formulas():
    rng = np.random.default_rng(3)
    for _ in range(200):
        family = rng.choice(["lasso", "scad", "mcp"])
        theta = float(rng.uniform(0.01, 3.0))
        alpha = {"lasso": None, "scad": 2.0 + float(rng.uniform(0.5, 3.0)),
                 "mcp": 1.0 + float(rng.uniform(0.2, 3.0))}[family]
        spec = PenaltySpec(family=family, theta=theta, alpha=alpha)
        b = float(rng.uniform(-6.0, 6.0))
        assert penalty_value(spec, b) == pytest.approx(
            reference_penalty(family, theta, alpha or 0.0, b), rel=1e-13, abs=1e-13
        )


def test_solve_zero_score():
    for spec in (LASSO, SCAD, MCP):
        assert univariate_solve(spec, 0.0, 1.0) == 0.0


def test_solve_lasso_example():
    """theta=0.5, y=2, v=1: S(2, 0.5)/1 = 1.5."""
    assert univariate_solve(LASSO, 2.0, 1.0) == pytest.approx(1.5, abs=1e-15)


def test_solve_mcp_example():
    """theta=1, alpha=1.5, y=0.8, v=1: soft threshold kills it."""
    assert univariate_solve(MCP, 0.8, 1.0) == 0.0


def test_solve_scad_example():
    """theta=1, alpha=2.5, y=3, v=1: |y| > v*alpha*theta, so y/v = 3."""
    assert univariate_solve(SCAD, 3.0, 1.0) == pytest.approx(3.0, abs=1e-15)


def test_solve_adaptive_weight_zero_pins():
    spec = PenaltySpec(family="adaptive_lasso", theta=0.5, weights=np.array([0.0]))
    assert univariate_solve(spec, 4.0, 1.0, weight=0.0) == 0.0


def test_solve_requires_positive_curvature():
    with pytest.raises(ValueError):
        univariate_solve(LASSO, 1.0, 0.0)


def test_mcp_nonconvex_tie_takes_larger_magnitude():
    """v=1/8, alpha=2, theta=1, y=0.5: objectives at 0 and 4 tie exactly in
    IEEE arithmetic (both equal 1.0); the nonzero root 4.0 is returned."""
    spec = PenaltySpec(family="mcp", theta=1.0, alpha=2.0)
    v, y = 0.125, 0.5
    assert objective_value("mcp", 1.0, 2.0, 0.0, y, v) == objective_value(
        "mcp", 1.0, 2.0, 4.0, y, v
    )
    assert univariate_solve(spec, y, v) == 4.0


def random_tuple(rng):
    family = str(rng.choice(["lasso", "adaptive_lasso", "scad", "mcp"]))
    theta = float(rng.uniform(0.01, 2.0))
    alpha = None
    weight = None
    if family == "scad":
        alpha = 2.0 + float(rng.uniform(0.2, 3.0))
    elif family == "mcp":
        alpha = 1.0 + float(rng.uniform(0.1, 3.0))
    elif family == "adaptive_lasso":
        weight = float(rng.uniform(0.05, 3.0))
    y = float(rng.uniform(-4.0, 4.0))
    if abs(y) < 1e-3:
        y = 1e-3
    v = float(rng.uniform(0.05, 3.0))
    return family, theta, alpha, weight, y, v


def test_solver_beats_dense_grid():
    """1,000 random tuples: solver objective <= grid minimum + 1e-9 over
    100,001 points spanning [-10|y|/v, 10|y|/v]."""
    rng = np.random.default_rng(9)
    for _ in range(1000):
        family, theta, alpha, weight, y, v = random_tuple(rng)
        weights = None if weight is None else np.array([weight])
        spec = PenaltySpec(family=family, theta=theta, alpha=alpha, weights=weights)
        b = univariate_solve(spec, y, v, weight=weight)
        _, grid_obj = grid_minimize(family, theta, alpha or 0.0, y, v, weight)
        assert objective_value(family, theta, alpha or 0.0, b, y, v, weight) <= grid_obj + 1e-9


def test_theta_max_lasso_example():
    assert theta_max("lasso", np.array([0.3, -0.7, 0.1]), np.ones(3)) == pytest.approx(0.7)


def test_theta_max_mcp_example():
    """alpha=1.5, y=(1,), v=(0.5,): max(1, 1/0.75) = 4/3."""
    got = theta_max("mcp", np.array([1.0]), np.array([0.5]), alpha=1.5)
    assert got == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_theta_max_adaptive_example():
    got = theta_max(
        "adaptive_lasso", np.array([2.0, -1.0]), np.ones(2), weights=np.array([0.1, 3.0])
    )
    assert got == pytest.approx(3.0)


def test_theta_max_scad_uses_curvature():
    got = theta_max("scad", np.array([1.2]), np.array([0.4]), alpha=2.5)
    assert got == pytest.approx(3.0, rel=1e-14)


def test_theta_max_respects_penalized_mask():
    y = np.array([5.0, 0.2])
    got = theta_max("lasso", y, np.ones(2), penalized=np.array([False, True]))
    assert got == pytest.approx(0.2)


def test_theta_max_zero_score_errors():
    with pytest.raises(ValueError):
        theta_max("lasso", np.zeros(3), np.ones(3))


def test_all_coordinates_zero_at_theta_max():
    """Every penalized solution is 0 at theta_max, including bitwise ties."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        family = str(rng.choice(["lasso", "adaptive_lasso", "scad", "mcp"]))
        p = int(rng.integers(1, 8))
        y = rng.uniform(-3.0, 3.0, size=p)
        y[np.abs(y) < 1e-6] = 1e-6
        v = rng.uniform(0.02, 2.5, size=p)
        alpha = {"lasso": None, "adaptive_lasso": None, "scad": 2.5, "mcp": 1.5}[family]
        weights = rng.uniform(0.0, 2.0, size=p) if family == "adaptive_lasso" else None
        if weights is not None and not np.any(weights > 0):
            weights[0] = 0.5
        tmax = theta_max(family, y, v, weights=weights, alpha=alpha)
        spec = PenaltySpec(family=family, theta=tmax, alpha=alpha, weights=weights)
        for j in range(p):
            w = None if weights is None else float(weights[j])
            assert univariate_solve(spec, float(y[j]), float(v[j]), weight=w) == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(family="scad", theta=1.0, alpha=2.0)
    with pytest.raises(ValueError):
        PenaltySpec(family="mcp", theta=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        PenaltySpec(family="adaptive_lasso", theta=1.0)
    with pytest.raises(ValueError):
        PenaltySpec(family="ridge", theta=1.0)
