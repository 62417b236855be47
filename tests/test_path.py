"""Theta grid, GIC scoring, path fitting and model selection."""

import math

import numpy as np
import pytest

import icsel.path
from icsel import Dataset, standardize
from icsel.em import EM_RELDIST_TOL, EMWorkspace
from icsel.errors import NumericalError
from icsel.likelihood import loglik
from icsel.path import (
    fit_families,
    gic,
    null_linearization,
    run_path,
    select_index,
    theta_grid,
)
from icsel.penalties import FAMILIES

from test_golden import DATASETS as GOLDEN_DATASETS
from test_golden import criterion2_dataset


def strong_signal_dataset(seed, n=300, p=100):
    rng = np.random.default_rng(seed)
    beta = np.zeros(p)
    positions = [p // 13, p // 4, (3 * p) // 5]
    beta[positions] = [1.2, -1.5, 1.0]
    Z = rng.normal(size=(n, p))
    xb = Z @ beta
    T = (rng.exponential(size=n) * np.exp(-xb)) ** (1.0 / 1.5) / 1.2
    gaps = rng.uniform(0.1, np.tile((np.arange(6) + 3) / 10.0, (n, 1)))
    V = np.cumsum(gaps, axis=1)
    idx = np.array([np.searchsorted(V[i], T[i]) for i in range(n)])
    lo = np.where(idx == 0, 0.0, V[np.arange(n), np.maximum(idx - 1, 0)])
    hi = np.where(idx >= 6, math.inf, V[np.arange(n), np.minimum(idx, 5)])
    ds = Dataset(left=lo, right=hi, covariates=Z)
    std, _ = standardize(ds)
    return std, set(positions)


def selected_support(result, tol=1e-8):
    beta = result.states[result.selected].beta
    return set(np.flatnonzero(np.abs(beta) > tol))


# ---------------------------------------------------------------------------
# theta grid


def test_grid_endpoints_exact():
    grid = theta_grid(0.37, "lasso")
    assert grid.shape == (101,)
    assert grid[0] == 0.37
    assert grid[-1] == 0.05 * 0.37
    assert abs(grid[0] - 0.37) < 1e-12
    assert abs(grid[-1] - 0.05 * 0.37) < 1e-12


def test_grid_midpoint_is_sqrt_eps():
    """The 51st point carries exponent 50/100, so it equals
    theta_max * sqrt(0.05) with sqrt(0.05) = 0.22360679774997896."""
    grid = theta_grid(1.0, "scad")
    assert grid[50] == pytest.approx(0.22360679774997896, rel=1e-12)


def test_grid_strictly_decreasing():
    for family in ("lasso", "scad", "mcp", "adaptive_lasso"):
        grid = theta_grid(2.5, family)
        assert np.all(np.diff(grid) < 0)


def test_grid_adaptive_epsilon():
    grid = theta_grid(1.0, "adaptive_lasso")
    assert grid[-1] == pytest.approx(1e-4, rel=1e-12)


def test_grid_rejects_nonpositive():
    with pytest.raises(NumericalError):
        theta_grid(0.0, "lasso")


# ---------------------------------------------------------------------------
# GIC


def test_gic_df_zero_is_twice_negative_loglik():
    assert gic(-123.456, 0, 500, 3000) == pytest.approx(246.912, abs=1e-12)


def test_gic_frozen_example():
    """-2(-100) + log(log 500) * log(3000) * 3 = 243.88056275335845."""
    assert gic(-100.0, 3, 500, 3000) == pytest.approx(243.88056275335845, rel=1e-14)


def test_gic_small_n_or_p_raises():
    with pytest.raises(ValueError):
        gic(-1.0, 0, 2, 10)
    with pytest.raises(ValueError):
        gic(-1.0, 0, 500, 1)


# ---------------------------------------------------------------------------
# selection rule


def test_select_smallest_gic_among_converged():
    vals = np.array([5.0, 1.0, 3.0])
    conv = np.array([True, True, True])
    idx, warn = select_index(vals, conv)
    assert idx == 1 and warn == []


def test_select_ties_take_larger_theta():
    # grid is descending, so the earlier index is the larger theta
    vals = np.array([4.0, 2.0, 2.0, 9.0])
    conv = np.ones(4, dtype=bool)
    idx, _ = select_index(vals, conv)
    assert idx == 1


def test_select_skips_non_converged():
    vals = np.array([1.0, 5.0])
    conv = np.array([False, True])
    idx, warn = select_index(vals, conv)
    assert idx == 1 and warn == []


def test_select_fallback_when_nothing_converged():
    vals = np.array([3.0, 2.0])
    conv = np.zeros(2, dtype=bool)
    idx, warn = select_index(vals, conv)
    assert idx == 1
    assert any("no converged grid point" in w for w in warn)


def test_select_is_deterministic():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=101)
    conv = rng.random(101) > 0.2
    first = select_index(vals, conv)
    assert select_index(vals, conv) == first


# ---------------------------------------------------------------------------
# full paths


def test_path_zero_df_at_first_theta_all_families():
    std, _ = strong_signal_dataset(1, n=120, p=20)
    fits = fit_families(EMWorkspace(std), FAMILIES)
    for family in ("lasso", "scad", "mcp"):
        res = fits[family]
        assert res.df[0] == 0
        assert np.count_nonzero(res.states[0].beta) == 0
        assert np.all(np.diff(res.thetas) < 0)
        assert len(res.states) == 101
        assert 0 <= res.selected < 101
    assert fits["adaptive_lasso"].df[0] == 0


def test_path_loglik_and_gic_consistent():
    std, _ = strong_signal_dataset(2, n=120, p=20)
    res = run_path(EMWorkspace(std), "lasso")
    n, p = 120, 20
    for r in (0, 37, 100):
        assert res.gic[r] == pytest.approx(
            gic(res.loglik[r], int(res.df[r]), n, p), rel=1e-14)
    assert res.gic[res.selected] == min(
        g for g, c in zip(res.gic, res.converged) if c)


def test_path_unpenalized_covariate_not_counted_in_df():
    std, _ = strong_signal_dataset(3, n=150, p=10)
    ds = Dataset(
        left=std.left,
        right=std.right,
        covariates=std.covariates,
        penalty_factors=[0.0] + [1.0] * 9,
    )
    res = run_path(EMWorkspace(ds), "lasso")
    # the unpenalized coordinate is fit by least squares at theta_max yet
    # contributes nothing to df
    assert res.df[0] == 0
    assert res.states[0].beta[0] != 0.0


def test_path_rerun_is_bit_identical():
    std, _ = strong_signal_dataset(4, n=100, p=12)
    a = run_path(EMWorkspace(std), "mcp")
    b = run_path(EMWorkspace(std), "mcp")
    assert a.selected == b.selected
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.gic, b.gic)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.beta, sb.beta)
        assert np.array_equal(sa.lam, sb.lam)


def test_path_df_trend_mostly_monotone():
    """df is non-strictly increasing along the descending grid in >= 90% of
    adjacent pairs for the lasso."""
    std, _ = strong_signal_dataset(6, n=200, p=40)
    res = run_path(EMWorkspace(std), "lasso")
    diffs = np.diff(res.df)
    assert np.mean(diffs >= 0) >= 0.9


def test_path_warm_start_agrees_with_cold_start():
    """Fitting theta_2 cold reaches the same active set and nearly the same
    coefficients as the warm-started path fit."""
    from icsel import PenaltySpec, fit_fixed_theta

    std, _ = strong_signal_dataset(7, n=150, p=10)
    res = run_path(EMWorkspace(std), "lasso")
    ws = EMWorkspace(std)
    spec = PenaltySpec(family="lasso", theta=float(res.thetas[1]))
    cold, _, _ = fit_fixed_theta(ws, spec)
    warm = res.states[1].beta
    assert set(np.flatnonzero(cold.beta)) == set(np.flatnonzero(warm))
    assert np.max(np.abs(cold.beta - warm)) < 1e-2


def test_mcp_path_recovers_strong_signal():
    """n = 300, p = 100, three coefficients of size >= 1: the GIC-selected
    MCP model has FP + FN <= 1 in at least 18 of 20 seeds."""
    hits = 0
    for seed in range(20):
        std, true = strong_signal_dataset(500 + seed)
        res = run_path(EMWorkspace(std), "mcp")
        sel = selected_support(res)
        if len(sel - true) + len(true - sel) <= 1:
            hits += 1
    assert hits >= 18


def test_adaptive_path_recovers_strong_signal():
    """Same instances: adaptive lasso reaches FP + FN <= 1 in >= 17 of 20."""
    hits = 0
    for seed in range(20):
        std, true = strong_signal_dataset(500 + seed)
        res = fit_families(EMWorkspace(std), ["adaptive_lasso"])["adaptive_lasso"]
        sel = selected_support(res)
        if len(sel - true) + len(true - sel) <= 1:
            hits += 1
    assert hits >= 17


# ---------------------------------------------------------------------------
# adaptive pipeline structure


def test_adaptive_pilot_zero_pins_coordinate():
    std, _ = strong_signal_dataset(8, n=200, p=30)
    fits = fit_families(EMWorkspace(std), ["lasso", "adaptive_lasso"])
    lasso, res = fits["lasso"], fits["adaptive_lasso"]
    assert lasso.family == "lasso" and res.family == "adaptive_lasso"
    pilot = lasso.states[lasso.selected].beta
    zeros = np.flatnonzero(pilot == 0.0)
    assert zeros.size > 0
    for state in res.states:
        assert np.all(state.beta[zeros] == 0.0)
    assert np.array_equal(res.weights, np.abs(pilot))


def test_adaptive_degenerates_on_empty_pilot():
    """Pure noise at small n: the lasso stage picks the empty model and the
    adaptive stage is a one-record path holding the theta_1 lasso fit, with a
    warning."""
    rng = np.random.default_rng(9)
    n, p = 60, 25
    Z = rng.normal(size=(n, p))
    T = rng.exponential(size=n) ** (1.0 / 1.5) / 1.2
    left = np.floor(T * 4) / 4
    right = left + 0.25
    right[T > 1.5] = math.inf
    left[T > 1.5] = 1.5
    ds = Dataset(left=left, right=right, covariates=Z)
    std, _ = standardize(ds)
    fits = fit_families(EMWorkspace(std), ["lasso", "adaptive_lasso"])
    lasso, res = fits["lasso"], fits["adaptive_lasso"]
    assert np.all(lasso.states[lasso.selected].beta == 0.0)
    assert res.degenerate
    assert len(res.fits) == len(res.states) == 1
    assert res.states[0] is lasso.states[0]
    assert np.all(res.states[0].beta == 0.0)
    assert any("degenerate" in w for w in res.warnings)
    assert np.isnan(res.thetas).tolist() == [True] and math.isnan(res.theta_max)
    assert res.iterations.tolist() == [0]
    assert res.converged.tolist() == [True]
    assert res.df.tolist() == [0]
    assert res.selected == 0
    assert res.gic.tobytes() == lasso.gic[:1].tobytes()
    assert res.loglik.tobytes() == lasso.loglik[:1].tobytes()


def test_adaptive_rerun_bit_identical():
    std, _ = strong_signal_dataset(10, n=120, p=15)
    a = fit_families(EMWorkspace(std), ["adaptive_lasso"])["adaptive_lasso"]
    b = fit_families(EMWorkspace(std), ["adaptive_lasso"])["adaptive_lasso"]
    assert a.selected == b.selected
    assert np.array_equal(a.states[a.selected].beta, b.states[b.selected].beta)
    assert np.array_equal(a.weights, b.weights)


# ---------------------------------------------------------------------------
# null fit shared across the families of one workspace


def criterion2_workspace(unpenalized=False):
    ds = criterion2_dataset()
    if unpenalized:
        factors = np.ones(ds.p)
        factors[0] = 0.0
        ds = Dataset(left=ds.left, right=ds.right, covariates=ds.covariates,
                     penalty_factors=factors)
    std, _ = standardize(ds)
    ws = EMWorkspace(std)
    assert ws.pen_mask[0] == (not unpenalized)
    return ws


def counted(monkeypatch, name):
    """Replace icsel.path.<name> by a wrapper; returns the list of its calls' arguments."""
    calls = []
    fn = getattr(icsel.path, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(icsel.path, name, wrapper)
    return calls


def test_one_baseline_fit_per_workspace(monkeypatch):
    calls = counted(monkeypatch, "baseline_lambda_fit")
    ws = criterion2_workspace()
    fit_families(ws, FAMILIES)
    assert len(calls) == 1 and calls[0][0] is ws


@pytest.mark.parametrize("unpenalized", [False, True])
def test_shared_workspace_matches_fresh_workspaces(unpenalized, monkeypatch):
    """fit_families on one workspace gives the bits of separate run_path
    calls on fresh workspaces; it fits the lasso path once, and every
    workspace fits its null baseline at most once."""
    paths = counted(monkeypatch, "run_path")
    baselines = counted(monkeypatch, "baseline_lambda_fit")
    ws = criterion2_workspace(unpenalized)
    shared = fit_families(ws, FAMILIES)
    assert [args[1] for args in paths] == ["lasso", "adaptive_lasso", "scad", "mcp"]
    std = ws.dataset
    fresh = {family: run_path(EMWorkspace(std), family) for family in ("lasso", "scad", "mcp")}
    pilot = fresh["lasso"].selected_state.beta
    fresh["adaptive_lasso"] = run_path(EMWorkspace(std), "adaptive_lasso", weights=np.abs(pilot))
    assert len(baselines) == (0 if unpenalized else 5)
    assert len({id(args[0]) for args in baselines}) == len(baselines)
    for family, a in shared.items():
        b = fresh[family]
        for name in ("thetas", "loglik", "df", "gic", "iterations", "converged"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), (
                family, name)
        assert a.selected == b.selected, family
        assert len(a.states) == len(b.states), family
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.beta, sb.beta), family
            assert np.array_equal(sa.lam, sb.lam), family
    assert np.array_equal(shared["adaptive_lasso"].weights, fresh["adaptive_lasso"].weights)
    if unpenalized:
        assert shared["lasso"].states[0].beta[0] != 0.0


def test_null_fit_arrays_are_readonly():
    ws = criterion2_workspace()
    assert ws.null_fit is None
    first = null_linearization(ws)
    assert null_linearization(ws) is first
    for arr in first:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_path_columns_come_from_the_records():
    """Every column of a path is read off its per-point records: iterations
    and converged from each fit's diagnostics, converged meaning the last
    relative step fell below the EM tolerance, and GIC from loglik and df."""
    ws = criterion2_workspace()
    for family, res in fit_families(ws, FAMILIES).items():
        assert len(res.fits) == 101, family
        for r, fit in enumerate(res.fits):
            assert res.iterations[r] == fit.diag.iterations, (family, r)
            assert res.converged[r] == fit.diag.converged, (family, r)
            assert res.converged[r] == (fit.diag.final_reldist < EM_RELDIST_TOL), (family, r)
            assert res.gic[r] == gic(res.loglik[r], int(res.df[r]), ws.n, ws.p), (family, r)
            assert res.thetas[r] == fit.theta and res.states[r] is fit.state, (family, r)
            assert res.loglik[r] == fit.loglik and res.df[r] == fit.df, (family, r)


@pytest.mark.parametrize("name", sorted(GOLDEN_DATASETS))
def test_path_loglik_equals_recomputed_loglik(name):
    """Each grid point is scored from the linear predictor that its fit
    carried; that changes no bits against loglik, which forms Z @ beta anew."""
    std, _ = standardize(GOLDEN_DATASETS[name]())
    for family, res in fit_families(EMWorkspace(std), FAMILIES).items():
        assert np.array_equal(res.loglik, [loglik(state, std) for state in res.states]), family
