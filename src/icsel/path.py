"""Solution paths over a geometric theta grid with GIC model selection.

The grid runs from theta_max (the null model is exactly sparse there) down to
epsilon * theta_max over 101 points, warm-starting each fit at the previous
solution. Models are scored with

    GIC(theta) = -2 l_n + log(log n) * log(p) * ||beta_hat||_0

using the unscaled observed-data log likelihood, and the minimizer is
selected; ties break toward the larger theta and non-converged grid points
are excluded from selection (they still seed the next warm start).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .em import EMWorkspace, FitDiagnostics, baseline_lambda_fit, estep, fit_fixed_theta, surrogate
from .errors import NumericalError, ValidationError
from .likelihood import ModelState, _loglik_indexed
from .penalties import PenaltySpec, theta_max

GRID_SIZE = 101
EPSILON = {"lasso": 0.05, "scad": 0.05, "mcp": 0.05, "adaptive_lasso": 1e-4}


def theta_grid(theta_max_value: float, family: str) -> np.ndarray:
    """101-point geometric grid theta_r = theta_max * eps^{(r-1)/100}."""
    if not theta_max_value > 0:
        raise NumericalError("theta_max must be positive")
    eps = EPSILON[family]
    exponents = np.arange(GRID_SIZE) / (GRID_SIZE - 1)
    grid = theta_max_value * eps**exponents
    grid[0] = theta_max_value
    grid[-1] = eps * theta_max_value
    return grid


def check_gic_defined(n: int, p: int) -> None:
    """Raise ValidationError unless GIC is defined: n > e and p >= 2."""
    if n <= math.e:
        raise ValidationError("gic needs n > e so that log(log n) is positive")
    if p < 2:
        raise ValidationError("gic needs p >= 2")


def gic(loglik_value: float, df: int, n: int, p: int) -> float:
    """-2 l_n + log(log n) log(p) df with the unscaled log likelihood."""
    check_gic_defined(n, p)
    return -2.0 * loglik_value + math.log(math.log(n)) * math.log(p) * df


@dataclass
class GridFit:
    """One grid point of a path: the fit at theta, its EM diagnostics, the
    observed-data log likelihood and df, the count of nonzero penalized
    coefficients."""

    theta: float
    state: ModelState
    diag: FitDiagnostics
    loglik: float
    df: int


@dataclass
class PathResult:
    """One GridFit per theta, with the columns, GIC scores and selected index
    built from them; n and p are the dataset's, for GIC.

    A degenerate adaptive-lasso stage (empty pilot model) is a one-record
    path with `degenerate` set; the usual 101-point invariants do not apply
    there.
    """

    family: str
    alpha: float | None
    theta_max: float
    fits: list[GridFit]
    n: InitVar[int]
    p: InitVar[int]
    warnings: list[str] = field(default_factory=list)
    weights: np.ndarray | None = None
    degenerate: bool = False
    thetas: np.ndarray = field(init=False)
    states: list[ModelState] = field(init=False)
    loglik: np.ndarray = field(init=False)
    df: np.ndarray = field(init=False)
    gic: np.ndarray = field(init=False)
    iterations: np.ndarray = field(init=False)
    converged: np.ndarray = field(init=False)
    selected: int = field(init=False)

    def __post_init__(self, n: int, p: int):
        fits = self.fits
        self.thetas = np.array([f.theta for f in fits])
        self.states = [f.state for f in fits]
        self.loglik = np.array([f.loglik for f in fits])
        self.df = np.array([f.df for f in fits])
        self.gic = np.array([gic(f.loglik, f.df, n, p) for f in fits])
        self.iterations = np.array([f.diag.iterations for f in fits])
        self.converged = np.array([f.diag.converged for f in fits])
        self.selected, warnings = select_index(self.gic, self.converged)
        self.warnings = self.warnings + warnings

    @property
    def selected_state(self) -> ModelState:
        return self.states[self.selected]


# theta far above any working score: penalized coordinates threshold to zero
# while unpenalized ones still take their least-squares updates
_RESTRICTED_THETA = 1e300


def null_linearization(
    ws: EMWorkspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(y, v, lam0, beta0, xb0): scores and curvatures at the null model
    (lam0, beta0), whose linear predictor is xb0 = Z @ beta0.

    Without unpenalized covariates the null model is beta = 0 with the
    baseline-only jump fit: the iterate after at most 5000 self-consistency
    sweeps from the 1/n start. Anchoring theta_max at that baseline makes the
    theta_1 coordinate pass see the same y values bitwise, so every penalized
    coordinate thresholds to exactly zero there. With unpenalized covariates
    the null model instead fits those coordinates freely while the penalized
    ones stay pinned at zero, and the scores are taken at that restricted
    solution.

    The null fit does not depend on the family, so it is computed on the
    first call for a workspace and kept, read-only, as `ws.null_fit`; later
    calls return the same arrays.
    """
    if ws.null_fit is not None:
        return ws.null_fit
    free_unpenalized = ~ws.pen_mask & ~ws.pinned
    if np.any(free_unpenalized):
        spec = PenaltySpec(family="lasso", theta=_RESTRICTED_THETA)
        state, _, xb0 = fit_fixed_theta(ws, spec)
        beta0, lam0 = state.beta, state.lam
    else:
        beta0, xb0 = np.zeros(ws.p), None
        lam0 = baseline_lambda_fit(ws)
    cache = estep(ws, beta0, lam0, xb0)
    y, v = ws.scores(surrogate(ws, cache))
    ws.null_fit = (y, v, lam0, beta0, cache.xb)
    for arr in ws.null_fit:
        arr.setflags(write=False)
    return ws.null_fit


def select_index(
    gic_values: np.ndarray, converged: np.ndarray
) -> tuple[int, list[str]]:
    """Index of the smallest GIC among converged fits; ties pick the first
    (larger theta). Falls back to all fits with a warning if nothing converged."""
    warnings = []
    masked = np.where(converged, gic_values, np.inf)
    if not np.any(np.isfinite(masked)):
        warnings.append("no converged grid point; selecting among all fits")
        masked = gic_values
    idx = int(np.argmin(masked))
    return idx, warnings


def run_path(
    ws: EMWorkspace,
    family: str,
    alpha: float | None = None,
    weights: np.ndarray | None = None,
) -> PathResult:
    """Warm-started 101-point path for one penalty family.

    The theta_1 fit must return an all-zero penalized coefficient vector by
    construction of theta_max; that is checked on every run. A dataset on
    which GIC is undefined is rejected before any fit.
    """
    check_gic_defined(ws.n, ws.p)
    # family, alpha and weights; every grid point's spec sets its own theta
    base = PenaltySpec(family=family, theta=0.0, alpha=alpha, weights=weights)
    y0, v0, lam0, beta0, xb = null_linearization(ws)
    tmax = theta_max(base, y0, v0, penalized=ws.pen_mask)
    grid = theta_grid(tmax, family)
    fits: list[GridFit] = []
    restricted_first = bool(np.any(beta0 != 0.0))
    beta, lam = beta0, lam0
    for r, theta in enumerate(grid):
        if r == 0 and restricted_first:
            # theta_max anchors at the restricted null, so the theta_1 fit
            # keeps penalized coordinates pinned while unpenalized ones refit
            spec = PenaltySpec(family="lasso", theta=_RESTRICTED_THETA)
        else:
            spec = replace(base, theta=float(theta))
        state, diag, xb = fit_fixed_theta(ws, spec, beta, lam, xb)
        beta, lam = state.beta, state.lam
        nnz = int(np.count_nonzero(state.beta[ws.pen_mask]))
        if r == 0 and nnz != 0:
            raise NumericalError(
                f"theta_max fit returned {nnz} nonzero penalized coefficients"
            )
        # rejects a non-finite state too
        ll = _loglik_indexed(state, xb, ws.a, ws.c, ws.d, ws.ic)
        fits.append(GridFit(float(theta), state, diag, ll, nnz))
    return PathResult(family, base.alpha, float(tmax), fits, ws.n, ws.p, weights=base.weights)


def fit_families(ws: EMWorkspace, families, alpha: float | None = None) -> dict[str, PathResult]:
    """The path of each family on one workspace, keyed by family name.

    The lasso path is fitted once and is the adaptive-lasso pilot: the
    adaptive weights are |beta_j| of its selected fit. An empty pilot zeroes
    every weight, so the adaptive stage degenerates to the theta_1 lasso state
    (zero coefficients, baseline-only jumps), returned with a warning. alpha
    applies to scad and mcp.
    """
    done = {}
    if "lasso" in families or "adaptive_lasso" in families:
        done["lasso"] = run_path(ws, "lasso")
    for family in families:
        if family == "adaptive_lasso":
            done[family] = _adaptive_lasso_path(ws, done["lasso"])
        elif family not in done:
            done[family] = run_path(ws, family, alpha=alpha)
    return {family: done[family] for family in families}


def _adaptive_lasso_path(ws: EMWorkspace, lasso: PathResult) -> PathResult:
    w = np.abs(lasso.selected_state.beta)
    if np.any(w[ws.pen_mask] > 0):
        return run_path(ws, "adaptive_lasso", weights=w)
    first = lasso.fits[0]
    record = GridFit(math.nan, first.state, FitDiagnostics(converged=True), first.loglik, 0)
    return PathResult(
        "adaptive_lasso", None, math.nan, [record], ws.n, ws.p, weights=w, degenerate=True,
        warnings=["lasso stage selected the empty model; adaptive stage degenerate"],
    )
