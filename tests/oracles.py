"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: pair enumeration, dense grids, finite
differences and Monte Carlo. The production code must agree with these, not
the other way around, so nothing below imports from the package's numeric
internals beyond plain data containers.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# support sets


def brute_force_support(left, right):
    """All (l, u] with l a left endpoint, u a finite right endpoint, l < u,
    and no endpoint of either kind strictly inside (l, u)."""
    left = [float(v) for v in left]
    right = [float(v) for v in right]
    lefts = sorted(set(left))
    rights = sorted({r for r in right if math.isfinite(r)})
    blockers = sorted(set(lefts) | set(rights))
    out = []
    for l in lefts:
        for u in rights:
            if not l < u:
                continue
            if any(l < b < u for b in blockers):
                continue
            out.append((l, u))
    return sorted(set(out))


def brute_force_support_truncated(left, right, trunc):
    """Truncated variant: truncation times join the right-endpoint pool and
    intervals starting at 0 are dropped."""
    left = [float(v) for v in left]
    right = [float(v) for v in right]
    trunc = [float(v) for v in trunc]
    lefts = sorted(set(left))
    rights = sorted({r for r in right if math.isfinite(r)} | set(trunc))
    blockers = sorted(set(lefts) | set(rights))
    out = []
    for l in lefts:
        if not l > 0:
            continue
        for u in rights:
            if not l < u:
                continue
            if any(l < b < u for b in blockers):
                continue
            out.append((l, u))
    return sorted(set(out))


# ---------------------------------------------------------------------------
# penalties


def reference_penalty(family, theta, alpha, b, weight=None):
    a = abs(float(b))
    if family == "lasso":
        return theta * a
    if family == "adaptive_lasso":
        if a == 0.0:
            return 0.0
        if weight == 0.0:
            return math.inf
        return theta * a / weight
    if family == "scad":
        if a <= theta:
            return theta * a
        if a <= alpha * theta:
            return -(a * a - 2.0 * alpha * theta * a + theta * theta) / (
                2.0 * (alpha - 1.0)
            )
        return (alpha + 1.0) * theta * theta / 2.0
    if family == "mcp":
        if a <= alpha * theta:
            return theta * a - a * a / (2.0 * alpha)
        return alpha * theta * theta / 2.0
    raise ValueError(family)


def _penalty_array(family, theta, alpha, grid, weight=None):
    a = np.abs(grid)
    if family == "lasso":
        return theta * a
    if family == "adaptive_lasso":
        if weight == 0.0:
            return np.where(a == 0.0, 0.0, math.inf)
        return theta * a / weight
    if family == "scad":
        inner = theta * a
        middle = -(a * a - 2.0 * alpha * theta * a + theta * theta) / (2.0 * (alpha - 1.0))
        outer = (alpha + 1.0) * theta * theta / 2.0
        return np.where(a <= theta, inner, np.where(a <= alpha * theta, middle, outer))
    if family == "mcp":
        inner = theta * a - a * a / (2.0 * alpha)
        outer = alpha * theta * theta / 2.0
        return np.where(a <= alpha * theta, inner, outer)
    raise ValueError(family)


def grid_minimize(family, theta, alpha, y, v, weight=None, num=100_001, span=10.0):
    """Dense-grid minimizer of 0.5 v (b - y/v)^2 + penalty(|b|).

    The grid is symmetric about 0 over [-span|y|/v, span|y|/v], so b = 0 is
    always a grid point (num is odd).
    """
    assert num % 2 == 1
    half = span * abs(y) / v
    grid = np.linspace(-half, half, num)
    obj = 0.5 * v * (grid - y / v) ** 2 + _penalty_array(family, theta, alpha, grid, weight)
    idx = int(np.argmin(obj))
    return float(grid[idx]), float(obj[idx])


def objective_value(family, theta, alpha, b, y, v, weight=None):
    return 0.5 * v * (b - y / v) ** 2 + reference_penalty(family, theta, alpha, b, weight)


# ---------------------------------------------------------------------------
# likelihood


def cumhaz(support_upper, lam, t):
    return sum(l for u, l in zip(support_upper, lam) if u <= t)


def reference_loglik(dataset, support_upper, lam, beta):
    """Survival-difference form: log of exp(-Lam(L)e) - exp(-Lam(R)e), with
    the right-censored term exp(-Lam(L)e) and the truncated version divided
    by exp(-Lam(V0)e). Deliberately avoids log1mexp."""
    total = 0.0
    Z = np.asarray(dataset.covariates, dtype=float)
    for i in range(dataset.n):
        xb = float(Z[i] @ beta)
        e = math.exp(xb)
        low = cumhaz(support_upper, lam, float(dataset.left[i])) * e
        s_low = math.exp(-low)
        if math.isfinite(dataset.right[i]):
            high = cumhaz(support_upper, lam, float(dataset.right[i])) * e
            prob = s_low - math.exp(-high)
        else:
            prob = s_low
        v0 = float(dataset.truncation[i])
        if v0 > 0:
            prob /= math.exp(-cumhaz(support_upper, lam, v0) * e)
        if prob <= 0.0:
            return -math.inf
        total += math.log(prob)
    return total


# ---------------------------------------------------------------------------
# EM reference quantities, with risk and bracket cells taken from the data


def em_cells(dataset, upper):
    """Dense (n, m) indicators of each subject's risk and bracket cells.

    Risk cells are {k : V0_i < u_k <= R*_i}, with R*_i = R_i when finite and
    L_i when right-censored; bracket cells are {k : L_i < u_k <= R_i} for
    interval-censored subjects and empty for right-censored ones.
    """
    u = np.asarray(upper, dtype=float)[None, :]
    left = np.asarray(dataset.left, dtype=float)[:, None]
    right = np.asarray(dataset.right, dtype=float)[:, None]
    trunc = np.asarray(dataset.truncation, dtype=float)[:, None]
    finite = np.isfinite(right)
    rstar = np.where(finite, right, left)
    risk = (trunc < u) & (u <= rstar)
    bracket = finite & (left < u) & (u <= right)
    return risk, bracket


def ew_dense(dataset, upper, g, lam):
    """Ehat(W_ik) = lambda_k g_i on bracket cells, 0 elsewhere."""
    _, bracket = em_cells(dataset, upper)
    lam = np.asarray(lam, dtype=float)
    return np.where(bracket, lam[None, :] * np.asarray(g)[:, None], 0.0)


def risk_sums(dataset, upper, eta):
    """S_k = sum of e^{eta_i} over the subjects with k in their risk set."""
    risk, _ = em_cells(dataset, upper)
    return np.exp(np.asarray(eta, dtype=float)) @ risk.astype(float)


def surrogate_objective(dataset, upper, cache, eta):
    """Q(eta) = sum_i E_i eta_i - sum_k N_k log S_k(eta), E-step frozen."""
    S = risk_sums(dataset, upper, eta)
    nk = cache.jump_numerators
    active = nk > 0
    return float(cache.expected_counts @ eta - nk[active] @ np.log(S[active]))


def expected_complete_loglik(dataset, upper, cache, beta, lam):
    """sum over risk cells of Ehat(W_ik) log(lambda_k e^{eta_i}) - lambda_k e^{eta_i}
    with the E-step frozen (constants dropped); -inf when a cell with
    expected events has no jump."""
    eta = np.asarray(dataset.covariates, dtype=float) @ np.asarray(beta, dtype=float)
    S = risk_sums(dataset, upper, eta)
    lam = np.asarray(lam, dtype=float)
    nk = cache.jump_numerators
    pos = lam > 0.0
    if np.any(nk[~pos] > 0):
        return -math.inf
    return float(cache.expected_counts @ eta + nk[pos] @ np.log(lam[pos]) - lam @ S)


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(f, x, h):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (f(up) - f(dn)) / (2.0 * h)
    return g


def fd_second_diag(f, x, h):
    x = np.asarray(x, dtype=float)
    d = np.zeros_like(x)
    f0 = f(x)
    for j in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[j] += h
        dn[j] -= h
        d[j] = (f(up) - 2.0 * f0 + f(dn)) / (h * h)
    return d


# ---------------------------------------------------------------------------
# Monte Carlo truncated-Poisson means


def mc_truncated_poisson(lam_cells, exb, n_draws, rng):
    """Per-cell means of independent Poissons conditioned on a positive total.

    Returns (means, standard errors, kept draw count).
    """
    lam_cells = np.asarray(lam_cells, dtype=float)
    draws = rng.poisson(lam_cells * exb, size=(n_draws, lam_cells.size))
    keep = draws.sum(axis=1) >= 1
    kept = draws[keep]
    means = kept.mean(axis=0)
    ses = kept.std(axis=0, ddof=1) / math.sqrt(kept.shape[0])
    return means, ses, int(kept.shape[0])


# ---------------------------------------------------------------------------
# coordinate descent with from-scratch residuals


def naive_cd_pass(Z, weight, working_response, beta_init, solve_fn, penalized,
                  curvature_skip=1e-10):
    """One cycle recomputing each coordinate's score from the full residual.

    solve_fn(j, y_j, v_j) must return the updated coefficient; penalized is a
    boolean mask (unpenalized coordinates are the caller's concern inside
    solve_fn).
    """
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    beta = np.asarray(beta_init, dtype=float).copy()
    for j in range(Z.shape[1]):
        v_j = float(weight @ (Z[:, j] ** 2)) / n
        if v_j < curvature_skip:
            continue
        partial = working_response - Z @ beta + Z[:, j] * beta[j]
        y_j = float((weight * partial) @ Z[:, j]) / n
        beta[j] = solve_fn(j, y_j, v_j)
    return beta
