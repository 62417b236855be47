"""Observed-data log likelihood and its numerical guards."""

import math

import numpy as np
import pytest

from icsel import Dataset, ModelState, loglik
from icsel.em import EMWorkspace
from icsel.likelihood import _loglik_indexed, clamped_linpred, log1mexp
from icsel.support import SupportSet, maximal_intersections

from oracles import reference_loglik


def state(lowers, uppers, lam, p=1):
    return ModelState(
        beta=np.zeros(p),
        lam=np.asarray(lam, dtype=float),
        support=SupportSet(lower=lowers, upper=uppers),
    )


def test_single_subject_example():
    """Subject (1, 3], one jump of 0.5 inside, beta = 0:
    log(1 - exp(-0.5)) = -0.9327521295671886."""
    ds = Dataset(left=[1.0], right=[3.0], covariates=np.zeros((1, 1)))
    st = state([1.0], [2.0], [0.5])
    assert loglik(st, ds) == pytest.approx(-0.9327521295671886, abs=1e-15)


def test_right_censored_subject():
    """(2, inf) with cumulative hazard 0.5 at 2: contribution -0.5."""
    ds = Dataset(left=[2.0], right=[math.inf], covariates=np.zeros((1, 1)))
    st = state([1.0], [2.0], [0.5])
    assert loglik(st, ds) == pytest.approx(-0.5, abs=1e-15)


def test_truncated_example():
    """V0 = 1, interval (2, 4], jump 0.7 at u = 3:
    log(1 - exp(-0.7)) = -0.6863410028083852."""
    ds = Dataset(left=[2.0], right=[4.0], covariates=np.zeros((1, 1)), truncation=[1.0])
    st = state([2.0], [3.0], [0.7])
    assert loglik(st, ds) == pytest.approx(-0.6863410028083852, abs=1e-15)


def test_truncation_mass_before_entry_is_removed():
    # jump of 0.3 before V0 = 1 must cancel between A and the entry term
    ds = Dataset(left=[2.0], right=[4.0], covariates=np.zeros((1, 1)), truncation=[1.0])
    st2 = state([0.5, 2.0], [0.8, 3.0], [0.3, 0.7])
    assert loglik(st2, ds) == pytest.approx(-0.6863410028083852, abs=1e-14)


def test_zero_bracket_mass_gives_minus_inf():
    ds = Dataset(left=[1.0], right=[2.0], covariates=np.zeros((1, 1)))
    st = state([3.0], [4.0], [0.5])
    assert loglik(st, ds) == -math.inf


def test_covariate_scaling():
    """A positive linear predictor scales both hazard terms by e^{xb}."""
    ds = Dataset(left=[1.0], right=[3.0], covariates=np.array([[2.0]]))
    st = ModelState(
        beta=np.array([0.5]),
        lam=np.array([0.4, 0.3]),
        support=SupportSet(lower=[0.5, 1.5], upper=[1.0, 2.0]),
    )
    e = math.exp(1.0)
    expected = -0.4 * e + math.log(1.0 - math.exp(-0.3 * e))
    assert loglik(st, ds) == pytest.approx(expected, rel=1e-14)


def test_matches_survival_difference_form():
    """Random states agree with exp-difference evaluation to 1e-12."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        n, p, m = 8, 3, 5
        uppers = np.sort(rng.uniform(0.2, 5.0, size=m))
        lowers = np.concatenate(([uppers[0] / 2], uppers[:-1]))
        lam = rng.uniform(0.05, 0.6, size=m)
        beta = rng.normal(scale=0.4, size=p)
        Z = rng.normal(size=(n, p))
        left = rng.uniform(0.0, 2.5, size=n)
        right = left + rng.uniform(0.5, 3.0, size=n)
        right[rng.random(n) < 0.3] = math.inf
        ds = Dataset(left=left, right=right, covariates=Z)
        st = ModelState(beta=beta, lam=lam, support=SupportSet(lower=lowers, upper=uppers))
        ref = reference_loglik(ds, list(uppers), list(lam), beta)
        got = loglik(st, ds)
        if math.isinf(ref):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_truncated_matches_survival_difference_form():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n, p, m = 6, 2, 4
        uppers = np.sort(rng.uniform(0.5, 5.0, size=m))
        lowers = np.concatenate(([0.1], uppers[:-1]))
        lam = rng.uniform(0.05, 0.6, size=m)
        beta = rng.normal(scale=0.4, size=p)
        Z = rng.normal(size=(n, p))
        left = rng.uniform(0.5, 2.5, size=n)
        right = left + rng.uniform(0.5, 3.0, size=n)
        right[rng.random(n) < 0.3] = math.inf
        trunc = rng.uniform(0.0, 1.0, size=n) * (left / 2.5)
        ds = Dataset(left=left, right=right, covariates=Z, truncation=trunc)
        st = ModelState(beta=beta, lam=lam, support=SupportSet(lower=lowers, upper=uppers))
        ref = reference_loglik(ds, list(uppers), list(lam), beta)
        got = loglik(st, ds)
        if math.isinf(ref):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_log1mexp_branch_values():
    """log(1 - e^{-x}) across the log 2 branch split, reference values from
    40-digit evaluation: x = 1e-8 -> -18.420680748952365, x = 0.6931 ->
    -0.6931943633460009, x = 0.6932 -> -0.6930943639096365, x = 50 ->
    -1.9287498479639178e-22."""
    xs = np.array([1e-8, 0.6931, 0.69315, 0.6932, 50.0])
    expected = [
        -18.420680748952365,
        -0.6931943633460009,
        -0.6931443611278398,
        -0.6930943639096365,
        -1.9287498479639178e-22,
    ]
    assert log1mexp(xs) == pytest.approx(expected, rel=1e-14)
    assert log1mexp(np.array([1e-300]))[0] < -600.0


def test_linear_predictor_clamp():
    Z = np.array([[1.0], [-1.0]])
    eta, clamped = clamped_linpred(Z, np.array([1e4]))
    assert clamped == 2
    assert eta == pytest.approx([700.0, -700.0])


def test_nonfinite_state_rejected():
    ds = Dataset(left=[1.0], right=[3.0], covariates=np.zeros((1, 1)))
    st = state([1.0], [2.0], [math.nan])
    with pytest.raises(ValueError):
        loglik(st, ds)


# ---------------------------------------------------------------------------
# scoring from a workspace's support indices


def snp_intervals(rng, n, p, truncated):
    """SNP covariates, six visits on a 0.001 grid, no subject with left = 0;
    with truncation about half the subjects enter late."""
    Z = rng.binomial(2, rng.uniform(0.05, 0.20, size=p), size=(2 * n, p)).astype(float)
    T = rng.exponential(size=2 * n) * np.exp(-(Z[:, 0] - Z[:, 1]))
    V = np.round(np.cumsum(rng.uniform(0.1, 0.5, size=(2 * n, 6)), axis=1), 3)
    keep = np.flatnonzero(T > V[:, 0])[:n]
    Z, T, V = Z[keep], T[keep], V[keep]
    idx = (V < T[:, None]).sum(axis=1)
    rows = np.arange(n)
    left = V[rows, idx - 1]
    right = np.where(idx == 6, math.inf, V[rows, np.minimum(idx, 5)])
    trunc = None
    if truncated:
        entry = np.floor(rng.random(n) * left * 1000.0) / 1000.0
        trunc = np.where(rng.random(n) < 0.5, entry, 0.0)
    return Dataset(left=left, right=right, covariates=Z, truncation=trunc)


def indexed(state, ws):
    return _loglik_indexed(state, ws.Z, ws.a, ws.c, ws.d, ws.ic)


@pytest.mark.parametrize("truncated", [False, True])
def test_indexed_loglik_equals_loglik(truncated):
    rng = np.random.default_rng(31)
    ds = snp_intervals(rng, 200, 5, truncated)
    ws = EMWorkspace(ds, maximal_intersections(ds))
    assert ws.truncated == truncated
    for _ in range(3):
        st = ModelState(beta=rng.normal(scale=0.5, size=5),
                        lam=rng.uniform(0.0, 0.2, size=ws.m), support=ws.support)
        assert indexed(st, ws) == loglik(st, ds)


def test_indexed_loglik_zero_bracket_mass_is_minus_inf():
    rng = np.random.default_rng(32)
    ds = snp_intervals(rng, 100, 3, True)
    ws = EMWorkspace(ds, maximal_intersections(ds))
    lam = np.full(ws.m, 0.1)
    i = int(np.flatnonzero(ws.ic)[0])
    lam[ws.c[i]:ws.d[i]] = 0.0
    st = ModelState(beta=np.zeros(3), lam=lam, support=ws.support)
    assert loglik(st, ds) == -math.inf
    assert indexed(st, ws) == -math.inf


def test_indexed_loglik_rejects_nonfinite_state():
    rng = np.random.default_rng(33)
    ds = snp_intervals(rng, 50, 2, False)
    ws = EMWorkspace(ds, maximal_intersections(ds))
    st = ModelState(beta=np.array([0.1, math.inf]), lam=np.full(ws.m, 0.1),
                    support=ws.support)
    with pytest.raises(ValueError, match="non-finite") as want:
        loglik(st, ds)
    with pytest.raises(ValueError, match="non-finite") as got:
        indexed(st, ws)
    assert str(got.value) == str(want.value)
