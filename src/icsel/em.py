"""Penalized EM engine built on the Poisson data-augmentation trick.

Latent counts W_ik ~ Poisson(lambda_k e^{beta'Z_i}) over the support points at
risk for subject i reproduce the interval-censored likelihood once the
interval-censored subjects condition on a positive bracket sum. One EM
iteration is:

  1. E-step: truncated-Poisson means for the bracket cells, zero elsewhere.
  2. Profile out lambda, Taylor-expand the resulting function of eta = Z beta
     to second order with a diagonal curvature, yielding a weighted
     least-squares working response.
  3. One coordinate-descent cycle over beta with the penalty.
  4. Closed-form lambda update using the new beta.

Per-subject support ranges are kept as index intervals into the sorted support
points, so every E/M/surrogate quantity is a difference of prefix sums and one
iteration costs O(n + m) plus the coordinate pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DegenerateSupportError, NumericalError
from .likelihood import ModelState, clamped_linpred
from .penalties import PenaltySpec, univariate_solve
from .support import SupportSet

WEIGHT_FLOOR = 1e-8
CURVATURE_SKIP = 1e-10
_BRACKET_FLOOR = 1e-300

MAX_EM_ITERATIONS = 101
EM_RELDIST_TOL = 0.01


class EMWorkspace:
    """Precomputed index ranges tying a dataset to its support set.

    For subject i with R_i* = L_i when right-censored and R_i otherwise:
      a[i] = first support index with u_k > V_i0   (risk-set start)
      c[i] = first support index with u_k > L_i    (bracket start)
      d[i] = first support index with u_k > R_i*   (risk-set / bracket end)
    Risk cells are [a, d), bracket cells [c, d); right-censored subjects have
    c == d. Since V_i0 <= L_i, brackets always sit inside risk sets. An
    interval-censored subject with c == d has an empty bracket and is
    rejected here. `c_ic` and `d_ic` hold c and d of the interval-censored
    subjects `ic_subjects`. `null_fit` holds the family-independent null
    fit, filled by the first path run on the workspace.
    """

    def __init__(self, dataset: Dataset, support: SupportSet):
        if support.m == 0:
            raise DegenerateSupportError(
                "no maximal intersection with a finite right endpoint exists"
            )
        self.dataset = dataset
        self.support = support
        self.Z = dataset.covariates
        self.n, self.p = self.Z.shape
        self.m = support.m
        us = support.upper
        rstar = np.where(np.isfinite(dataset.right), dataset.right, dataset.left)
        self.a = np.searchsorted(us, dataset.truncation, side="right")
        self.c = np.searchsorted(us, dataset.left, side="right")
        self.d = np.searchsorted(us, rstar, side="right")
        self.ic = np.isfinite(dataset.right)
        empty = self.ic & (self.c == self.d)
        if np.any(empty):
            i = int(np.flatnonzero(empty)[0])
            raise NumericalError(
                f"subject {i}: interval ({dataset.left[i]}, {dataset.right[i]}] holds no "
                "support cell; the truncated support keeps only cells with l > 0"
            )
        self.ic_subjects = np.flatnonzero(self.ic)
        self.c_ic, self.d_ic = self.c[self.ic], self.d[self.ic]
        self.truncated = bool(np.any(dataset.truncation > 0))
        if not self.truncated:
            self.a = np.zeros(self.n, dtype=self.a.dtype)
        record = dataset.standardization
        if record is not None:
            self.pinned = record.constant.copy()
        else:
            self.pinned = np.zeros(self.p, dtype=bool)
        self.pen_mask = (dataset.penalty_factors != 0) & ~self.pinned
        self._zsq = None
        self.null_fit = None

    @property
    def zsq(self) -> np.ndarray:
        if self._zsq is None:
            self._zsq = self.Z * self.Z
        return self._zsq

    def col_curvature(self, w: np.ndarray) -> np.ndarray:
        """v_j = (1/n) sum_i w_i Z_ij^2 for every column at once."""
        return (w @ self.zsq) / self.n

    def _range_sums(self, start, stop, values) -> np.ndarray:
        """sum over subjects of values[i] spread across index range [start, stop)."""
        lo = np.bincount(start, weights=values, minlength=self.m + 1)
        hi = np.bincount(stop, weights=values, minlength=self.m + 1)
        return np.cumsum(lo - hi)[: self.m]

    def risk_sums(self, exb: np.ndarray) -> np.ndarray:
        """S_k = sum_i I(k in risk_i) e^{eta_i}."""
        return self._range_sums(self.a, self.d, exb)


@dataclass
class EStepCache:
    """Truncated-Poisson conditional means in compressed form.

    g[i] = e^{eta_i} / (1 - exp(-B_i)) for interval-censored subjects (0 for
    right-censored), so Ehat(W_ik) = lambda_k * g[i] on bracket cells and 0 on
    the remaining risk cells. expected_counts[i] is subject i's row sum and
    jump_numerators[k] = sum_i Ehat(W_ik) is column k's total.
    """

    eta: np.ndarray
    exb: np.ndarray
    g: np.ndarray
    expected_counts: np.ndarray
    jump_numerators: np.ndarray
    clamp_count: int


@dataclass
class SurrogateQuad:
    """Diagonal quadratic expansion of the profiled surrogate at eta."""

    eta: np.ndarray
    weight: np.ndarray
    working_response: np.ndarray
    grad: np.ndarray


@dataclass
class FitDiagnostics:
    iterations: int = 0
    converged: bool = False
    final_reldist: float = math.inf
    clamp_count: int = 0
    zero_risk_sets: int = 0


def _bracket_jumps(ws: EMWorkspace, lam: np.ndarray, exb_ic: np.ndarray | None = None):
    """(bracket masses M_i, g_i, jump numerators N_k) over interval-censored subjects.

    With B_i = M_i e^{eta_i} and exb_ic = e^{eta_i} (None means beta = 0), g_i
    = e^{eta_i} / (1 - exp(-B_i)) and N_k is lambda_k times the sum of g_i over
    the brackets holding cell k. Raises NumericalError naming the first subject
    whose B_i underflows, where the truncated Poisson expectation is undefined.
    """
    cum = np.concatenate(([0.0], np.cumsum(lam)))
    mass = cum[ws.d_ic] - cum[ws.c_ic]
    B = mass if exb_ic is None else mass * exb_ic
    bad = B < _BRACKET_FLOOR
    if np.any(bad):
        i = int(ws.ic_subjects[np.flatnonzero(bad)[0]])
        raise NumericalError(
            f"subject {i}: interval-censored bracket probability underflowed to zero"
        )
    g = (1.0 if exb_ic is None else exb_ic) / (-np.expm1(-B))
    return mass, g, lam * ws._range_sums(ws.c_ic, ws.d_ic, g)


def estep(ws: EMWorkspace, beta: np.ndarray, lam: np.ndarray) -> EStepCache:
    """Conditional expectations of the latent Poisson counts (see _bracket_jumps)."""
    eta, n_clamped = clamped_linpred(ws.Z, beta)
    exb = np.exp(eta)
    mass, g_ic, numer = _bracket_jumps(ws, lam, exb[ws.ic])
    g = np.zeros(ws.n)
    g[ws.ic] = g_ic
    expected = np.zeros(ws.n)
    expected[ws.ic] = mass * g_ic
    return EStepCache(
        eta=eta,
        exb=exb,
        g=g,
        expected_counts=expected,
        jump_numerators=numer,
        clamp_count=n_clamped,
    )


def mstep_lambda(
    ws: EMWorkspace, cache: EStepCache, beta: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Closed-form jump update lambda_k = N_k / S_k(beta).

    Returns (lambda, zero-risk-set count, clamp count). A zero risk sum is
    impossible without truncation (the subject whose finite R defines u_k is
    at risk) and raises; with truncation it forces N_k = 0 and lambda_k = 0.
    """
    eta, n_clamped = clamped_linpred(ws.Z, beta)
    S = ws.risk_sums(np.exp(eta))
    zero = S <= 0.0
    n_zero = int(np.count_nonzero(zero))
    if n_zero and not ws.truncated:
        raise NumericalError("zero risk sum on an untruncated support set")
    lam = np.zeros(ws.m)
    np.divide(cache.jump_numerators, S, out=lam, where=~zero)
    return lam, n_zero, n_clamped


def baseline_lambda_fit(
    ws: EMWorkspace, tol: float = 1e-13, max_iter: int = 5000
) -> np.ndarray:
    """Baseline-only jump sizes at beta = 0.

    Iterates the self-consistency update lambda_k = N_k / S_k from the 1/n
    start and returns the iterate after at most max_iter sweeps, or earlier
    once the relative step falls below tol. With beta pinned at zero the risk
    sums are constant subject counts, so each sweep is O(n + m).
    """
    risk = ws._range_sums(ws.a, ws.d, np.ones(ws.n))
    at_risk = risk > 0.0
    if not (ws.truncated or np.all(at_risk)):
        raise NumericalError("zero risk sum on an untruncated support set")
    lam = np.full(ws.m, 1.0 / ws.n)
    for _ in range(max_iter):
        new = np.zeros(ws.m)
        np.divide(_bracket_jumps(ws, lam)[2], risk, out=new, where=at_risk)
        reldist = float(np.linalg.norm(new - lam) / (np.linalg.norm(lam) + 1.0))
        lam = new
        if reldist < tol:
            break
    return lam


def surrogate(ws: EMWorkspace, cache: EStepCache) -> SurrogateQuad:
    """Diagonal second-order expansion of the profiled surrogate.

    Q(eta) = sum_i E_i eta_i - sum_k N_k log S_k(eta) with the E-step
    expectations frozen. The gradient and the diagonal of -Q'' are range sums
    of N_k/S_k and N_k/S_k^2 over each subject's risk cells; weights are
    floored at 1e-8 before forming the working response.
    """
    S = ws.risk_sums(cache.exb)
    pos = S > 0.0
    h1 = np.zeros(ws.m)
    h2 = np.zeros(ws.m)
    np.divide(cache.jump_numerators, S, out=h1, where=pos)
    np.divide(h1, S, out=h2, where=pos)
    p1 = np.concatenate(([0.0], np.cumsum(h1)))
    p2 = np.concatenate(([0.0], np.cumsum(h2)))
    r1 = p1[ws.d] - p1[ws.a]
    r2 = p2[ws.d] - p2[ws.a]
    grad = cache.expected_counts - cache.exb * r1
    weight = cache.exb * r1 - cache.exb * cache.exb * r2
    weight = np.maximum(weight, WEIGHT_FLOOR)
    working = cache.eta + grad / weight
    return SurrogateQuad(eta=cache.eta, weight=weight, working_response=working, grad=grad)


def coordinate_descent_pass(
    ws: EMWorkspace, quad: SurrogateQuad, beta: np.ndarray, spec: PenaltySpec
) -> np.ndarray:
    """One in-order cycle of penalized weighted-least-squares updates.

    y_j is assembled from a single upfront mat-vec plus one correction mat-vec
    per coordinate that actually moved, so a pass costs O(np) once rather than
    per coordinate. Unpenalized coordinates take the theta = 0 update; pinned
    (constant) columns and columns with curvature below 1e-10 are skipped.
    """
    Z, n = ws.Z, ws.n
    w = quad.weight
    new = np.asarray(beta, dtype=float).copy()
    r = quad.working_response - Z @ new
    base = (w * r) @ Z / n
    v = ws.col_curvature(w)
    corr = np.zeros(ws.p)
    weights = spec.weights
    penalized = ws.pen_mask
    pinned = ws.pinned
    for j in range(ws.p):
        if pinned[j] or v[j] < CURVATURE_SKIP:
            continue
        yj = base[j] - corr[j] + v[j] * new[j]
        if penalized[j]:
            wj = None if weights is None else float(weights[j])
            bj = univariate_solve(spec, yj, float(v[j]), weight=wj)
        else:
            bj = yj / v[j]
        delta = bj - new[j]
        if delta != 0.0:
            corr += (w * Z[:, j]) @ Z * (delta / n)
            new[j] = bj
    return new


def fit_fixed_theta(
    ws: EMWorkspace,
    spec: PenaltySpec,
    init_beta: np.ndarray | None = None,
    init_lam: np.ndarray | None = None,
    max_iter: int = MAX_EM_ITERATIONS,
    tol: float = EM_RELDIST_TOL,
) -> tuple[ModelState, FitDiagnostics]:
    """Run the EM to convergence at one fixed theta.

    Stops when ||new - old||_2 / (||old||_2 + 1) over the stacked (beta,
    lambda) falls below tol, or after max_iter iterations. The objective is
    not evaluated; the caller scores the final state. One CD pass on a
    diagonal surrogate does not guarantee monotone ascent.
    """
    beta = np.zeros(ws.p) if init_beta is None else np.asarray(init_beta, dtype=float).copy()
    lam = (
        np.full(ws.m, 1.0 / ws.n)
        if init_lam is None
        else np.asarray(init_lam, dtype=float).copy()
    )
    diag = FitDiagnostics()
    for iteration in range(1, max_iter + 1):
        cache = estep(ws, beta, lam)
        diag.clamp_count += cache.clamp_count
        quad = surrogate(ws, cache)
        beta_new = coordinate_descent_pass(ws, quad, beta, spec)
        lam_new, n_zero, n_clamped = mstep_lambda(ws, cache, beta_new)
        diag.zero_risk_sets += n_zero
        diag.clamp_count += n_clamped
        num = math.sqrt(
            float(np.sum((beta_new - beta) ** 2)) + float(np.sum((lam_new - lam) ** 2))
        )
        den = math.sqrt(float(np.sum(beta**2)) + float(np.sum(lam**2))) + 1.0
        reldist = num / den
        beta, lam = beta_new, lam_new
        diag.iterations = iteration
        diag.final_reldist = reldist
        if reldist < tol:
            diag.converged = True
            break
    state = ModelState(beta=beta, lam=lam, support=ws.support)
    return state, diag
