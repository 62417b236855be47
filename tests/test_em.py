"""E-step, M-step, surrogate expansion, coordinate descent, EM driver."""

import functools
import math

import numpy as np
import pytest

import icsel.em
from icsel import Dataset, PenaltySpec, fit_fixed_theta, standardize
from icsel.em import (
    MAX_EM_ITERATIONS,
    EMWorkspace,
    EStepCache,
    baseline_lambda_fit,
    coordinate_descent_pass,
    estep,
    mstep_lambda,
    surrogate,
)
from icsel.errors import NumericalError
from icsel.likelihood import ModelState, loglik
from icsel.penalties import univariate_solve
from icsel.support import maximal_intersections

from oracles import (
    expected_complete_loglik,
    ew_dense,
    fd_gradient,
    fd_second_diag,
    loop_cd_pass,
    naive_cd_pass,
    reference_penalty,
    surrogate_objective,
)
from test_golden import criterion2_dataset, truncated_dataset


def workspace(left, right, Z, trunc=None):
    ds = Dataset(left=left, right=right, covariates=np.asarray(Z, dtype=float),
                 truncation=trunc)
    return EMWorkspace(ds)


def ew_of(ws, cache, lam):
    """ew_dense with g_i rebuilt from em._bracket_jumps (0 when right-censored)."""
    g = np.zeros(ws.n)
    g[ws.ic] = icsel.em._bracket_jumps(ws, lam, cache.exb[ws.ic])[1]
    return ew_dense(ws.dataset, ws.support.upper, g, lam)


def random_workspace(rng, n=8, p=3, rc_prob=0.25):
    left = rng.uniform(0.0, 2.0, size=n)
    right = left + rng.uniform(0.3, 2.0, size=n)
    right[rng.random(n) < rc_prob] = math.inf
    if not np.isfinite(right).any():
        right[0] = left[0] + 1.0
    Z = rng.normal(size=(n, p))
    return workspace(left, right, Z)


# ---------------------------------------------------------------------------
# E-step


def test_estep_single_cell_frozen_value():
    """One subject (0, 1], jump 1.0, beta = 0: B = 1 and the conditional mean
    is 1/(1 - e^{-1}) = 1.5819767068693265."""
    ws = workspace([0.0], [1.0], [[0.0]])
    lam = np.array([1.0])
    cache = estep(ws, np.zeros(1), lam)
    ew = ew_of(ws, cache, lam)
    assert ew[0, 0] == pytest.approx(1.5819767068693265, abs=1e-15)
    assert cache.expected_counts[0] == pytest.approx(1.5819767068693265, abs=1e-15)


def test_estep_zero_before_left_endpoint():
    # cells at or before L get no expectation mass
    ws = workspace([0.0, 2.0], [1.0, 3.0], [[0.0], [0.0]])
    lam = np.array([0.4, 0.6])
    cache = estep(ws, np.zeros(1), lam)
    ew = ew_of(ws, cache, lam)
    assert ew[1, 0] == 0.0
    assert ew[1, 1] > 0.0


def test_estep_right_censored_row_is_zero():
    ws = workspace([0.0, 1.5], [1.0, math.inf], [[0.0], [0.0]])
    lam = np.array([0.5])
    cache = estep(ws, np.zeros(1), lam)
    assert np.all(ew_of(ws, cache, lam)[1] == 0.0)
    assert cache.expected_counts[1] == 0.0


def test_estep_exceeds_unconditional_mean():
    """Ehat(W_ik) >= lambda_k e^{xb} on bracket cells."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        ws = random_workspace(rng)
        if ws.m == 0:
            continue
        beta = rng.normal(scale=0.3, size=ws.p)
        lam = rng.uniform(0.05, 0.5, size=ws.m)
        cache = estep(ws, beta, lam)
        ew = ew_of(ws, cache, lam)
        exb = np.exp(ws.Z @ beta)
        for i in range(ws.n):
            if not ws.ic[i]:
                continue
            for k in range(ws.c[i], ws.d[i]):
                assert ew[i, k] >= lam[k] * exb[i] - 1e-12


def test_estep_underflow_raises_with_subject_index():
    ws = workspace([0.0, 2.0], [1.0, 3.0], [[0.0], [0.0]])
    with pytest.raises(NumericalError, match="subject 0"):
        estep(ws, np.zeros(1), np.array([0.0, 0.5]))


def test_empty_truncated_bracket_rejected_at_workspace():
    """The truncated support {1, 2, 2.5, 4} keeps only cells with l > 0, so
    subject 0's (0, 0.4] holds no cell."""
    ds = Dataset(
        left=[0.0, 1.0, 2.0, 1.5, 0.5, 3.0],
        right=[0.4, 2.0, 3.0, math.inf, 2.5, 4.0],
        covariates=np.zeros((6, 1)),
        truncation=[0.0, 0.5, 1.0, 0.2, 0.1, 0.0],
    )
    supp = maximal_intersections(ds)
    assert list(supp.upper) == [1.0, 2.0, 2.5, 4.0]
    with pytest.raises(NumericalError, match=r"subject 0: interval \(0\.0, 0\.4\].*l > 0"):
        EMWorkspace(ds)


# ---------------------------------------------------------------------------
# M-step


def synthetic_cache(ws, numerators, beta):
    eta = ws.Z @ beta
    return EStepCache(
        xb=eta,
        eta=eta,
        exb=np.exp(eta),
        expected_counts=np.zeros(ws.n),
        jump_numerators=np.asarray(numerators, dtype=float),
        clamp_count=0,
    )


def test_mstep_unit_expectations():
    """Ehat = 1 for every at-risk pair and beta = 0 gives lambda_k = 1."""
    ws = workspace([0.0, 1.0, 2.0], [2.0, 3.0, math.inf], [[0.0]] * 3)
    risk_counts = ws._range_sums(ws.a, ws.d, np.ones(ws.n))
    cache = synthetic_cache(ws, risk_counts, np.zeros(1))
    lam, n_zero, _ = mstep_lambda(ws, cache, np.zeros(1))
    assert lam == pytest.approx(np.ones(ws.m))
    assert n_zero == 0


def test_mstep_direct_ratio():
    """Two at-risk subjects with expectations (0, 2): lambda = 2/2 = 1."""
    ws = workspace([0.5, 0.5], [1.0, 1.0], [[0.0], [0.0]])
    assert ws.m == 1
    cache = synthetic_cache(ws, [2.0], np.zeros(1))
    lam, _, _ = mstep_lambda(ws, cache, np.zeros(1))
    assert lam[0] == pytest.approx(1.0)


def test_mstep_linear_in_numerators():
    rng = np.random.default_rng(13)
    ws = random_workspace(rng)
    numer = rng.uniform(0.5, 2.0, size=ws.m)
    beta = rng.normal(scale=0.2, size=ws.p)
    lam1, _, _ = mstep_lambda(ws, synthetic_cache(ws, numer, beta), beta)
    lam3, _, _ = mstep_lambda(ws, synthetic_cache(ws, 3.0 * numer, beta), beta)
    assert lam3 == pytest.approx(3.0 * lam1, rel=1e-12)


def test_mstep_is_argmax_of_expected_complete_loglik():
    """Perturbing any lambda_k by 1% in either direction lowers the
    objective the M-step maximizes."""
    rng = np.random.default_rng(14)
    for _ in range(5):
        ws = random_workspace(rng, n=10, p=2)
        if ws.m == 0:
            continue
        beta = rng.normal(scale=0.3, size=ws.p)
        lam = rng.uniform(0.1, 0.8, size=ws.m)
        cache = estep(ws, beta, lam)
        lam_hat, _, _ = mstep_lambda(ws, cache, beta)
        ds, upper = ws.dataset, ws.support.upper
        best = expected_complete_loglik(ds, upper, cache, beta, lam_hat)
        for k in range(ws.m):
            for factor in (0.99, 1.01):
                trial = lam_hat.copy()
                trial[k] *= factor
                assert expected_complete_loglik(ds, upper, cache, beta, trial) < best


def test_baseline_lambda_fit_analytic_fixed_point():
    """Subjects (0,1] and (1,2]: the first cell's self-consistency equation
    1 = g/2 solves to lambda_1 = log 2."""
    ws = workspace([0.0, 1.0], [1.0, 2.0], [[0.0], [0.0]])
    lam = baseline_lambda_fit(ws)
    assert lam[0] == pytest.approx(math.log(2.0), abs=1e-10)


def test_baseline_lambda_fit_is_self_consistent():
    rng = np.random.default_rng(15)
    n = 25
    left = rng.uniform(0.0, 2.0, size=n)
    right = left + rng.uniform(0.3, 2.0, size=n)
    right[rng.random(n) < 0.2] = math.inf
    # right-censored subjects past every finite endpoint keep all risk sets
    # populated, so the fixed point is interior and the sweep can converge
    left = np.concatenate([left, rng.uniform(4.5, 5.5, size=6)])
    right = np.concatenate([right, np.full(6, math.inf)])
    ws = workspace(left, right, rng.normal(size=(n + 6, 2)))
    lam = baseline_lambda_fit(ws)
    cache = estep(ws, np.zeros(ws.p), lam)
    lam_next, _, _ = mstep_lambda(ws, cache, np.zeros(ws.p))
    assert np.linalg.norm(lam_next - lam) / (np.linalg.norm(lam) + 1.0) < 1e-10


def baseline_lambda_fit_reference(ws, max_iter, floor=1e-300):
    """The standalone baseline sweep that baseline_lambda_fit replaced, kept
    as the bitwise reference for the shared bracket kernel."""
    risk = ws._range_sums(ws.a, ws.d, np.ones(ws.n))
    zero = risk <= 0.0
    ic = ws.ic
    c_ic, d_ic = ws.c[ic], ws.d[ic]
    lam = np.full(ws.m, 1.0 / ws.n)
    for _ in range(max_iter):
        cum = np.concatenate(([0.0], np.cumsum(lam)))
        mass = cum[d_ic] - cum[c_ic]
        if np.any(mass < floor):
            i = int(np.flatnonzero(ws.ic)[np.flatnonzero(mass < floor)[0]])
            raise NumericalError(
                f"subject {i}: interval-censored bracket probability underflowed to zero"
            )
        g = 1.0 / (-np.expm1(-mass))
        numer = lam * ws._range_sums(c_ic, d_ic, g)
        new = np.zeros(ws.m)
        np.divide(numer, risk, out=new, where=~zero)
        lam = new
    return lam


def zero_risk_cell_dataset():
    """Truncated data whose support cell (1, 2] has no subject at risk: the
    right-censored subject leaves at 1 and the other enters at 2."""
    return Dataset(left=[1.0, 3.0], right=[math.inf, 4.0],
                   covariates=np.array([[0.3], [-0.2]]), truncation=[0.5, 2.0])


@pytest.mark.parametrize("make", [criterion2_dataset, truncated_dataset, zero_risk_cell_dataset])
def test_baseline_lambda_fit_matches_standalone_sweep(make):
    std, _ = standardize(make())
    ws = EMWorkspace(std)
    ref = baseline_lambda_fit_reference(ws, max_iter=200)
    assert np.array_equal(baseline_lambda_fit(ws, tol=0.0, max_iter=200), ref)


def test_baseline_lambda_fit_zeroes_a_cell_without_risk():
    std, _ = standardize(zero_risk_cell_dataset())
    ws = EMWorkspace(std)
    assert ws.m == 2 and ws._range_sums(ws.a, ws.d, np.ones(ws.n))[0] == 0.0
    lam = baseline_lambda_fit(ws)
    assert lam[0] == 0.0 and lam[1] == pytest.approx(10.78, abs=0.01)


def test_bracket_underflow_names_the_same_subject(monkeypatch):
    """A floor between one and two cells' start mass 1/n fails the first
    interval-censored subject with a one-cell bracket, which sits behind
    right-censored subjects, so the named index is a dataset index."""
    std, _ = standardize(criterion2_dataset())
    ws = EMWorkspace(std)
    floor = 1.5 / ws.n
    one_cell = np.flatnonzero(ws.ic & (ws.d - ws.c == 1))
    first = int(one_cell[0])
    assert np.count_nonzero(~ws.ic[:first]) > 0
    with pytest.raises(NumericalError) as ref:
        baseline_lambda_fit_reference(ws, max_iter=1, floor=floor)
    assert str(ref.value).startswith(f"subject {first}:")
    monkeypatch.setattr(icsel.em, "_BRACKET_FLOOR", floor)
    lam0 = np.full(ws.m, 1.0 / ws.n)
    for run in (lambda: baseline_lambda_fit(ws), lambda: estep(ws, np.zeros(ws.p), lam0)):
        with pytest.raises(NumericalError) as got:
            run()
        assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# surrogate


def test_surrogate_single_subject_degenerate():
    """One subject, one support point: Q is constant, so the gradient is 0
    and the working response equals eta."""
    ws = workspace([0.0], [1.0], [[1.0]])
    beta = np.array([0.3])
    cache = estep(ws, beta, np.array([0.7]))
    quad = surrogate(ws, cache)
    assert quad.grad[0] == pytest.approx(0.0, abs=1e-12)
    assert quad.working_response[0] == pytest.approx(quad.eta[0], abs=1e-6)


def test_surrogate_gradient_matches_finite_differences():
    """Central differences at h = 1e-5, relative error 1e-6."""
    rng = np.random.default_rng(16)
    for _ in range(10):
        ws = random_workspace(rng, n=8, p=2)
        if ws.m == 0:
            continue
        beta = rng.normal(scale=0.3, size=ws.p)
        lam = rng.uniform(0.1, 0.8, size=ws.m)
        cache = estep(ws, beta, lam)
        quad = surrogate(ws, cache)
        q = lambda e: surrogate_objective(ws.dataset, ws.support.upper, cache, e)
        fd = fd_gradient(q, cache.eta, 1e-5)
        scale = np.maximum(np.abs(quad.grad), 1.0)
        assert np.max(np.abs(fd - quad.grad) / scale) < 1e-6


def test_surrogate_weight_matches_finite_differences():
    """Diagonal of -Q'' vs second differences, relative error 1e-5."""
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(10):
        ws = random_workspace(rng, n=8, p=2)
        if ws.m == 0:
            continue
        beta = rng.normal(scale=0.3, size=ws.p)
        lam = rng.uniform(0.1, 0.8, size=ws.m)
        cache = estep(ws, beta, lam)
        quad = surrogate(ws, cache)
        q = lambda e: surrogate_objective(ws.dataset, ws.support.upper, cache, e)
        fd = -fd_second_diag(q, cache.eta, 1e-3)
        big = quad.weight > 1e-4
        scale = np.maximum(np.abs(quad.weight[big]), 1e-2)
        assert np.max(np.abs(fd[big] - quad.weight[big]) / scale) < 1e-5
        checked += 1
    assert checked >= 5


def test_surrogate_weights_nonnegative():
    rng = np.random.default_rng(18)
    for _ in range(20):
        ws = random_workspace(rng)
        if ws.m == 0:
            continue
        cache = estep(ws, rng.normal(scale=0.4, size=ws.p), rng.uniform(0.05, 1.0, size=ws.m))
        assert np.all(surrogate(ws, cache).weight >= 1e-8)


# ---------------------------------------------------------------------------
# coordinate descent


def test_cd_single_coordinate_is_soft_threshold():
    ws = workspace([0.0, 1.0, 0.5], [1.0, 2.0, 1.5], [[1.0], [-1.0], [0.5]])
    cache = estep(ws, np.zeros(1), np.full(ws.m, 0.3))
    quad = surrogate(ws, cache)
    spec = PenaltySpec(family="lasso", theta=0.05)
    got = coordinate_descent_pass(ws, quad, np.zeros(1), spec)
    y = float((quad.weight * quad.working_response) @ ws.Z[:, 0]) / ws.n
    v = float(quad.weight @ (ws.Z[:, 0] ** 2)) / ws.n
    expected = np.sign(y) * max(abs(y) - 0.05, 0.0) / v
    assert got[0] == pytest.approx(expected, rel=1e-14)


def test_cd_matches_naive_residual_recompute():
    """Running-residual bookkeeping equals from-scratch y_j to 1e-10."""
    from icsel.penalties import univariate_solve

    rng = np.random.default_rng(19)
    for _ in range(10):
        ws = random_workspace(rng, n=15, p=6)
        if ws.m == 0:
            continue
        beta0 = rng.normal(scale=0.3, size=ws.p)
        cache = estep(ws, beta0, rng.uniform(0.1, 0.6, size=ws.m))
        quad = surrogate(ws, cache)
        spec = PenaltySpec(family="mcp", theta=0.1, alpha=1.5)
        got = coordinate_descent_pass(ws, quad, beta0, spec)

        def solve(j, yj, vj):
            return univariate_solve(spec, yj, vj)

        want = naive_cd_pass(ws.Z, quad.weight, quad.working_response, beta0,
                             solve, ws.pen_mask)
        assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("family", ["lasso", "adaptive_lasso", "scad", "mcp"])
def test_cd_pass_matches_scalar_loop_bitwise(family, monkeypatch):
    """The scan returns the bits of the per-coordinate numpy-scalar loop over
    four warm-started EM iterations at each of three thetas. The data hold a
    pinned column (0) and an unpenalized coordinate (1); adaptive weights are
    zero on coordinate 1, on coordinate 2, which starts nonzero, and on
    coordinate 3, which starts at 0 and is skipped. Curvatures near 0.5 take
    SCAD and MCP into their nonconvex candidate search."""
    rng = np.random.default_rng(23)
    n, p = 30, 8
    left = rng.uniform(0.0, 2.0, size=n)
    right = left + rng.uniform(0.3, 2.0, size=n)
    right[rng.random(n) < 0.25] = math.inf
    Z = rng.normal(size=(n, p))
    Z[:, 0] = 3.0
    factors = np.ones(p)
    factors[1] = 0.0
    std, _ = standardize(Dataset(left, right, Z, penalty_factors=factors))
    ws = EMWorkspace(Dataset(left, right, 0.7 * std.covariates, penalty_factors=factors,
                             standardization=std.standardization))
    assert ws.pinned[0] and not ws.pen_mask[1] and ws.pen_mask[2:].all()
    weights = None
    if family == "adaptive_lasso":
        weights = np.array([1.0, 0.0, 0.0, 0.0, 0.7, 1.3, 0.2, 2.0])
    searches = []
    search = icsel.penalties._best_candidate

    def counted(*args):
        searches.append(search(*args))
        return searches[-1]

    monkeypatch.setattr(icsel.penalties, "_best_candidate", counted)
    for theta in (0.3, 0.05, 0.005):
        spec = PenaltySpec(family, theta, weights=weights)
        solve = functools.partial(univariate_solve, spec)
        beta = np.zeros(p)
        beta[[1, 2, 5]] = [0.4, -0.6, 0.3]
        lam = np.full(ws.m, 0.2)
        for _ in range(4):
            cache = estep(ws, beta, lam)
            quad = surrogate(ws, cache)
            base, v = ws.scores(quad)
            want = loop_cd_pass(ws.Z, quad.weight, base, v, beta, ws.pinned, ws.pen_mask,
                                weights, solve)
            got = coordinate_descent_pass(ws, quad, beta, spec)
            assert got.tobytes() == want.tobytes()
            beta = got
            lam = mstep_lambda(ws, cache, beta)[0]
        if weights is not None:
            assert beta[2] == 0.0 and beta[3] == 0.0 and beta[1] != 0.0
    # the nonconvex search ran and moved coordinates off 0
    assert any(searches) == (family in ("scad", "mcp"))


def test_cd_nan_curvature_still_reaches_solver_error():
    """Zero-weight coordinates at 0 are skipped only when their curvature is
    a number: a NaN curvature still raises univariate_solve's error."""
    ws = workspace([0.0, 1.0, 0.5], [1.0, 2.0, 1.5], [[1.0, 0.2], [-1.0, 0.4], [0.5, -0.3]])
    quad = surrogate(ws, estep(ws, np.zeros(2), np.full(ws.m, 0.3)))
    quad.weight[0] = math.nan
    spec = PenaltySpec("adaptive_lasso", 0.1, weights=np.zeros(2))
    with pytest.raises(NumericalError, match="requires v > 0"):
        coordinate_descent_pass(ws, quad, np.zeros(2), spec)


def test_cd_unpenalized_coordinate_takes_least_squares_update():
    ds = Dataset(
        left=[0.0, 1.0, 0.5, 0.2],
        right=[1.0, 2.0, 1.5, 1.8],
        covariates=np.array([[1.0, 0.5], [-1.0, 0.3], [0.5, -0.2], [0.2, 0.1]]),
        penalty_factors=[0.0, 1.0],
    )
    ws = EMWorkspace(ds)
    cache = estep(ws, np.zeros(2), np.full(ws.m, 0.3))
    quad = surrogate(ws, cache)
    spec = PenaltySpec(family="lasso", theta=1e9)
    got = coordinate_descent_pass(ws, quad, np.zeros(2), spec)
    # huge theta kills the penalized coordinate but not the unpenalized one
    assert got[1] == 0.0
    y0 = float((quad.weight * quad.working_response) @ ws.Z[:, 0]) / ws.n
    v0 = float(quad.weight @ (ws.Z[:, 0] ** 2)) / ws.n
    assert got[0] == pytest.approx(y0 / v0, rel=1e-12)


def test_cd_skips_constant_pinned_column():
    ds = Dataset(
        left=[0.0, 1.0, 0.5],
        right=[1.0, 2.0, 1.5],
        covariates=np.array([[7.0, 0.5], [7.0, -0.4], [7.0, 0.1]]),
    )
    std, _ = standardize(ds)
    ws = EMWorkspace(std)
    assert ws.pinned[0] and not ws.pinned[1]
    cache = estep(ws, np.zeros(2), np.full(ws.m, 0.3))
    quad = surrogate(ws, cache)
    got = coordinate_descent_pass(ws, quad, np.zeros(2),
                                  PenaltySpec(family="lasso", theta=0.01))
    assert got[0] == 0.0


# ---------------------------------------------------------------------------
# fixed-theta EM driver


def fit_instance(rng, n, p, beta_true, theta, family="lasso"):
    Z = rng.normal(size=(n, p))
    xb = Z @ beta_true
    T = (rng.exponential(size=n) * np.exp(-xb)) ** (1.0 / 1.5) / 1.2
    gaps = rng.uniform(0.1, np.tile((np.arange(6) + 3) / 10.0, (n, 1)))
    V = np.cumsum(gaps, axis=1)
    idx = np.array([np.searchsorted(V[i], T[i]) for i in range(n)])
    left = np.where(idx == 0, 0.0, V[np.arange(n), np.maximum(idx - 1, 0)])
    right = np.where(idx >= 6, math.inf, V[np.arange(n), np.minimum(idx, 5)])
    ds = Dataset(left=left, right=right, covariates=Z)
    std, _ = standardize(ds)
    ws = EMWorkspace(std)
    spec = PenaltySpec(family=family, theta=theta,
                       alpha=1.5 if family == "mcp" else None)
    return ws, spec


def test_fit_converges_in_one_iteration_at_fixed_point():
    rng = np.random.default_rng(20)
    ws, spec = fit_instance(rng, 40, 2, np.array([1.0, 0.0]), theta=0.08)
    state, diag, _ = fit_fixed_theta(ws, spec)
    assert diag.converged
    again, diag2, _ = fit_fixed_theta(ws, spec, init_beta=state.beta, init_lam=state.lam)
    assert diag2.iterations == 1
    assert diag2.converged


def test_fit_recovers_strong_signal_sign():
    """n = 60, p = 2, true beta = (1.5, 0): positive first coefficient in at
    least 18 of 20 seeds."""
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        ws, spec = fit_instance(rng, 60, 2, np.array([1.5, 0.0]), theta=0.05)
        state, _, _ = fit_fixed_theta(ws, spec)
        hits += state.beta[0] > 0
    assert hits >= 18


def test_fit_zero_signal_stays_empty():
    """beta = 0 data at n = 200, p = 50: a moderate fixed theta (above the
    noise scale, cold start) leaves the model empty in >= 18 of 20 seeds."""
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        ws, _ = fit_instance(rng, 200, 50, np.zeros(50), theta=1.0)
        spec = PenaltySpec(family="lasso", theta=0.25)
        state, _, _ = fit_fixed_theta(ws, spec)
        hits += int(np.count_nonzero(state.beta) == 0)
    assert hits >= 18


def test_fit_permutation_invariance():
    """Permuting subject order moves beta and lambda by less than 1e-8."""
    rng = np.random.default_rng(21)
    n, p = 40, 3
    Z = rng.normal(size=(n, p))
    left = rng.uniform(0.0, 1.5, size=n)
    right = left + rng.uniform(0.3, 1.5, size=n)
    right[rng.random(n) < 0.25] = math.inf
    ds = Dataset(left=left, right=right, covariates=Z)
    perm = rng.permutation(n)
    ds_perm = Dataset(left=left[perm], right=right[perm], covariates=Z[perm])
    spec = PenaltySpec(family="lasso", theta=0.05)
    out = []
    for d in (ds, ds_perm):
        std, _ = standardize(d)
        ws = EMWorkspace(std)
        state, _, _ = fit_fixed_theta(ws, spec)
        out.append(state)
    assert np.max(np.abs(out[0].beta - out[1].beta)) < 1e-8
    assert np.max(np.abs(out[0].lam - out[1].lam)) < 1e-8


def test_objective_mostly_monotone():
    """The penalized observed-data objective rises in >= 95% of EM steps
    over a small suite (one-pass CD does not guarantee ascent). Each step is
    a one-iteration fit warm-started at the previous iterate."""
    steps = 0
    violations = 0
    for seed in range(6):
        rng = np.random.default_rng(400 + seed)
        ws, spec = fit_instance(rng, 80, 4, np.array([1.2, -0.8, 0.0, 0.0]),
                                theta=0.04, family="mcp")
        beta = lam = prev = None
        for _ in range(MAX_EM_ITERATIONS):
            state, diag, _ = fit_fixed_theta(ws, spec, beta, lam, max_iter=1)
            beta, lam = state.beta, state.lam
            penalty = sum(reference_penalty(spec.family, spec.theta, spec.alpha, b)
                          for b in beta[ws.pen_mask])
            obj = loglik(state, ws.dataset) - ws.n * penalty
            if prev is not None:
                steps += 1
                violations += obj < prev - 1e-8 * (1.0 + abs(prev))
            prev = obj
            if diag.converged:
                break
    assert steps > 0
    assert violations <= 0.05 * steps


def test_clamp_count_counts_each_linear_predictor_once():
    """Two right-censored subjects with z = -1000 put eta below -700 near
    beta = 1, where the z = 1 subjects hold beta. Each E-step counts its
    clamps; the M-step product that the next E-step reuses is not counted a
    second time."""
    ws = workspace([0.5, 1.0, 0.2, 1.5, 2.0], [1.5, 2.5, math.inf, math.inf, 3.0],
                   [[1.0], [1.0], [-1000.0], [-1000.0], [0.0]])
    spec = PenaltySpec(family="lasso", theta=0.0)
    start = np.array([1.0])
    state, diag, xb = fit_fixed_theta(ws, spec, init_beta=start, max_iter=1)
    assert np.array_equal(xb, ws.Z @ state.beta)
    assert np.count_nonzero(np.abs(xb) > 700.0) == 2
    assert diag.clamp_count == 2
    _, diag, _ = fit_fixed_theta(ws, spec, init_beta=start, max_iter=2, tol=0.0)
    assert diag.iterations == 2
    assert diag.clamp_count == 4


def test_truncated_zero_risk_cell_sets_lambda_zero():
    """Under truncation a support cell can lose its whole risk set; its jump
    is forced to 0 and counted, not raised."""
    ds = Dataset(
        left=[2.0, 5.0],
        right=[3.0, 6.0],
        covariates=np.array([[0.2], [-0.1]]),
        truncation=[1.0, 4.5],
    )
    ws = EMWorkspace(ds)
    # cell (4.5, 6]-side risk set excludes subject 0 entirely past its window
    cache = estep(ws, np.zeros(1), np.full(ws.m, 0.4))
    lam, n_zero, _ = mstep_lambda(ws, cache, np.zeros(1))
    assert np.all(np.isfinite(lam))
