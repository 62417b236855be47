"""Penalty values, exact univariate solvers, theta_max."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsel.errors import NumericalError, ValidationError
from icsel.penalties import (
    FAMILIES,
    PenaltySpec,
    penalty_value,
    soft_threshold,
    theta_max,
    univariate_solve,
)

from oracles import grid_minimize, objective_value, reference_penalty

LASSO = PenaltySpec(family="lasso", theta=0.5)
SCAD = PenaltySpec(family="scad", theta=1.0, alpha=2.5)
MCP = PenaltySpec(family="mcp", theta=1.0, alpha=1.5)

# derandomized so that tier-1 runs the same examples every time
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_soft_threshold_definition():
    assert soft_threshold(5.0, 2.0) == 3.0
    assert soft_threshold(1.0, 2.0) == 0.0
    assert soft_threshold(-5.0, 2.0) == -3.0


def test_penalty_zero_at_zero():
    for spec in (SCAD, MCP):
        assert penalty_value(spec, 0.0) == 0.0


def test_scad_value_tail():
    """SCAD theta=1, alpha=2.5, b=3 sits past alpha*theta: (alpha+1)theta^2/2 = 1.75."""
    assert penalty_value(SCAD, 3.0) == pytest.approx(1.75, abs=1e-15)


def test_mcp_value_inner_branch():
    """MCP theta=1, alpha=1.5, b=1: 1 - 1/3 = 2/3."""
    assert penalty_value(MCP, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_penalty_even_and_monotone():
    rng = np.random.default_rng(2)
    for spec in (SCAD, MCP):
        bs = np.sort(rng.uniform(0.0, 5.0, size=40))
        vals = [penalty_value(spec, b) for b in bs]
        assert all(penalty_value(spec, -b) == v for b, v in zip(bs, vals))
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))


@PROPERTY
@given(
    family=st.sampled_from(["scad", "mcp"]),
    theta=st.floats(0.01, 3.0),
    excess=st.floats(0.2, 3.0),
    b=st.floats(-6.0, 6.0),
)
def test_value_matches_reference_formulas(family, theta, excess, b):
    """SCAD and MCP values against the oracle; alpha is 2 or 1 plus excess."""
    alpha = {"scad": 2.0, "mcp": 1.0}[family] + excess
    spec = PenaltySpec(family=family, theta=theta, alpha=alpha)
    assert penalty_value(spec, b) == pytest.approx(
        reference_penalty(family, theta, alpha, b), rel=1e-13, abs=1e-13
    )


@st.composite
def lasso_scores(draw):
    """(theta, y): y is often 0, -0.0, +-theta or one ulp beside +-theta."""
    theta = draw(st.floats(0.0, 1e3))
    edges = [theta, np.nextafter(theta, np.inf), np.nextafter(theta, 0.0)]
    near = [0.0, -0.0, *edges, *(-e for e in edges)]
    y = draw(st.sampled_from(near) | st.floats(allow_nan=True, allow_infinity=True))
    return theta, float(y)


@PROPERTY
@given(lasso_scores(), st.floats(1e-3, 1e3))
def test_lasso_solve_is_soft_threshold(theta_y, v):
    """The unit-weight L1 rule gives the bits of S(y, theta) / v."""
    theta, y = theta_y
    got = univariate_solve(PenaltySpec(family="lasso", theta=theta), y, v)
    assert bits(got) == bits(soft_threshold(y, theta) / v)


@PROPERTY
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8).filter(lambda ys: any(ys)))
def test_lasso_theta_max_is_max_abs_score(ys):
    y = np.array(ys)
    got = theta_max(LASSO, y, np.ones(y.size))
    assert bits(got) == bits(float(np.abs(y).max()))


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
    with pytest.raises(NumericalError):
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
        b = univariate_solve(spec, y, v, weight=1.0 if weight is None else weight)
        _, grid_obj = grid_minimize(family, theta, alpha or 0.0, y, v, weight)
        assert objective_value(family, theta, alpha or 0.0, b, y, v, weight) <= grid_obj + 1e-9


def test_theta_max_lasso_example():
    assert theta_max(LASSO, np.array([0.3, -0.7, 0.1]), np.ones(3)) == pytest.approx(0.7)


def test_theta_max_mcp_example():
    """alpha=1.5, y=(1,), v=(0.5,): max(1, 1/0.75) = 4/3."""
    got = theta_max(MCP, np.array([1.0]), np.array([0.5]))
    assert got == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_theta_max_mcp_flat_objective_tie():
    """v alpha == 1 exactly: at theta = |y| the MCP objective is flat on
    [0, alpha theta] and the tie rule picks alpha theta, so theta_max must
    lie just above |y|."""
    y, v = 1.0, 0.6666666666666666
    assert v * MCP.alpha == 1.0
    assert univariate_solve(MCP, y, v) == 1.5
    got = theta_max(MCP, np.array([y]), np.array([v]))
    assert got == pytest.approx(1.0, rel=1e-15) and got > 1.0
    assert univariate_solve(PenaltySpec("mcp", got), y, v) == 0.0


def test_theta_max_adaptive_example():
    spec = PenaltySpec(family="adaptive_lasso", theta=0.0, weights=np.array([0.1, 3.0]))
    got = theta_max(spec, np.array([2.0, -1.0]), np.ones(2))
    assert got == pytest.approx(3.0)


def test_theta_max_scad_uses_curvature():
    got = theta_max(SCAD, np.array([1.2]), np.array([0.4]))
    assert got == pytest.approx(3.0, rel=1e-14)


def test_theta_max_reads_no_theta():
    y, v = np.array([1.2, -0.3]), np.array([0.4, 2.0])
    for family in ("lasso", "scad", "mcp"):
        specs = [PenaltySpec(family=family, theta=t) for t in (0.0, 7.0)]
        assert theta_max(specs[0], y, v) == theta_max(specs[1], y, v)


def test_theta_max_respects_penalized_mask():
    y = np.array([5.0, 0.2])
    got = theta_max(LASSO, y, np.ones(2), penalized=np.array([False, True]))
    assert got == pytest.approx(0.2)


def test_theta_max_zero_score_errors():
    with pytest.raises(NumericalError, match="degenerate null fit"):
        theta_max(LASSO, np.zeros(3), np.ones(3))


@st.composite
def null_linearizations(draw):
    """(spec, y, v, weights) for one family; adaptive weights may tie the
    binding coordinate with a second one whose |y| and weight are swapped, and
    SCAD and MCP curvatures may sit on the nonconvex boundary."""
    family = draw(st.sampled_from(FAMILIES))
    p = draw(st.integers(1, 7))
    mags = draw(st.lists(st.floats(1e-6, 3.0), min_size=p, max_size=p))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=p, max_size=p))
    y = [m * s for m, s in zip(mags, signs)]
    v = draw(st.lists(st.floats(0.02, 2.5), min_size=p, max_size=p))
    weights = None
    if family == "adaptive_lasso":
        weights = draw(st.lists(st.floats(0.0, 2.0), min_size=p, max_size=p))
        if not any(weights):
            weights[0] = 0.5
        if draw(st.booleans()):
            k = int(np.argmax(np.abs(y) * weights))
            y.append(draw(st.sampled_from([1.0, -1.0])) * weights[k])
            weights.append(abs(y[k]))
            v.append(draw(st.floats(0.02, 2.5)))
        weights = np.array(weights)
    spec = PenaltySpec(family=family, theta=0.0, weights=weights)
    if spec.alpha is not None:
        # v alpha = 1 for MCP, v (alpha - 1) = 1 for SCAD, exactly in floats
        shape = spec.alpha - (family == "scad")
        edge = 1.0 / shape
        assert edge * shape == 1.0
        v = [edge if draw(st.booleans()) else vj for vj in v]
    return spec, np.array(y), np.array(v), weights


# more examples: a quotient-form zero test (|y| <= theta / w) fails on only
# about one adaptive binding coordinate in twenty
@settings(max_examples=500, deadline=None, derandomize=True)
@given(null_linearizations())
def test_all_coordinates_zero_at_theta_max(case):
    """Every penalized solution is 0 at theta_max, including bitwise ties."""
    spec, y, v, weights = case
    at_max = PenaltySpec(spec.family, theta_max(spec, y, v), spec.alpha, weights)
    for j in range(y.size):
        w = 1.0 if weights is None else float(weights[j])
        assert univariate_solve(at_max, float(y[j]), float(v[j]), weight=w) == 0.0


def test_spec_validation():
    with pytest.raises(ValidationError):
        PenaltySpec(family="scad", theta=1.0, alpha=2.0)
    with pytest.raises(ValidationError):
        PenaltySpec(family="mcp", theta=1.0, alpha=1.0)
    with pytest.raises(ValidationError):
        PenaltySpec(family="adaptive_lasso", theta=1.0)
    with pytest.raises(ValidationError):
        PenaltySpec(family="adaptive_lasso", theta=1.0, weights=np.array([-0.5]))
    with pytest.raises(ValidationError):
        PenaltySpec(family="lasso", theta=1.0, weights=np.array([0.5]))
    with pytest.raises(ValidationError):
        PenaltySpec(family="ridge", theta=1.0)
