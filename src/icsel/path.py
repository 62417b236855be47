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
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .em import EMWorkspace, baseline_lambda_fit, estep, fit_fixed_theta, surrogate
from .errors import NumericalError
from .likelihood import ModelState, _loglik_indexed
from .penalties import DEFAULT_ALPHA, PenaltySpec, theta_max
from .support import SupportSet

GRID_SIZE = 101
EPSILON = {"lasso": 0.05, "scad": 0.05, "mcp": 0.05, "adaptive_lasso": 1e-4}


def theta_grid(theta_max_value: float, family: str) -> np.ndarray:
    """101-point geometric grid theta_r = theta_max * eps^{(r-1)/100}."""
    if not theta_max_value > 0:
        raise ValueError("theta_max must be positive")
    eps = EPSILON[family]
    exponents = np.arange(GRID_SIZE) / (GRID_SIZE - 1)
    grid = theta_max_value * eps**exponents
    grid[0] = theta_max_value
    grid[-1] = eps * theta_max_value
    return grid


def check_gic_defined(n: int, p: int) -> None:
    """Raise ValueError unless GIC is defined: n > e and p >= 2."""
    if n <= math.e:
        raise ValueError("gic needs n > e so that log(log n) is positive")
    if p < 2:
        raise ValueError("gic needs p >= 2")


def gic(loglik_value: float, df: int, n: int, p: int) -> float:
    """-2 l_n + log(log n) log(p) df with the unscaled log likelihood."""
    check_gic_defined(n, p)
    return -2.0 * loglik_value + math.log(math.log(n)) * math.log(p) * df


@dataclass
class PathResult:
    """Per-theta fits, scores and diagnostics, plus the selected index.

    A degenerate adaptive-lasso stage (empty pilot model) is represented by a
    single-state result with `degenerate` set; the usual 101-point invariants
    do not apply there.
    """

    family: str
    alpha: float | None
    theta_max: float
    thetas: np.ndarray
    states: list[ModelState]
    loglik: np.ndarray
    df: np.ndarray
    gic: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    selected: int
    warnings: list[str] = field(default_factory=list)
    weights: np.ndarray | None = None
    stage1: "PathResult | None" = None
    degenerate: bool = False

    @property
    def selected_state(self) -> ModelState:
        return self.states[self.selected]


# theta far above any working score: penalized coordinates threshold to zero
# while unpenalized ones still take their least-squares updates
_RESTRICTED_THETA = 1e300


def null_linearization(
    ws: EMWorkspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate scores y and curvatures v at the null model.

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
        state, _ = fit_fixed_theta(ws, spec)
        beta0, lam0 = state.beta, state.lam
    else:
        beta0 = np.zeros(ws.p)
        lam0 = baseline_lambda_fit(ws)
    cache = estep(ws, beta0, lam0)
    quad = surrogate(ws, cache)
    resid = quad.working_response - ws.Z @ beta0
    y = (quad.weight * resid) @ ws.Z / ws.n
    v = ws.col_curvature(quad.weight)
    ws.null_fit = (y, v, lam0, beta0)
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
    dataset: Dataset,
    support: SupportSet,
    family: str,
    alpha: float | None = None,
    weights: np.ndarray | None = None,
    workspace: EMWorkspace | None = None,
) -> PathResult:
    """Warm-started 101-point path for one penalty family.

    The theta_1 fit must return an all-zero penalized coefficient vector by
    construction of theta_max; that is checked on every run. A dataset on
    which GIC is undefined is rejected before any fit.
    """
    ws = workspace if workspace is not None else EMWorkspace(dataset, support)
    check_gic_defined(ws.n, ws.p)
    if alpha is None:
        alpha = DEFAULT_ALPHA.get(family)
    y0, v0, lam0, beta0 = null_linearization(ws)
    tmax = theta_max(family, y0, v0, weights=weights, alpha=alpha, penalized=ws.pen_mask)
    grid = theta_grid(tmax, family)
    states: list[ModelState] = []
    lls = np.empty(GRID_SIZE)
    dfs = np.empty(GRID_SIZE, dtype=int)
    iters = np.empty(GRID_SIZE, dtype=int)
    conv = np.empty(GRID_SIZE, dtype=bool)
    restricted_first = bool(np.any(beta0 != 0.0))
    beta = beta0
    lam = lam0
    for r, theta in enumerate(grid):
        if r == 0 and restricted_first:
            # theta_max anchors at the restricted null, so the theta_1 fit
            # keeps penalized coordinates pinned while unpenalized ones refit
            spec = PenaltySpec(family="lasso", theta=_RESTRICTED_THETA)
        else:
            spec = PenaltySpec(family=family, theta=float(theta), alpha=alpha, weights=weights)
        state, diag = fit_fixed_theta(ws, spec, beta, lam)
        beta, lam = state.beta, state.lam
        nnz = int(np.count_nonzero(state.beta[ws.pen_mask]))
        if r == 0 and nnz != 0:
            raise NumericalError(
                f"theta_max fit returned {nnz} nonzero penalized coefficients"
            )
        states.append(state)
        # rejects a non-finite state too
        lls[r] = _loglik_indexed(state, ws.Z, ws.a, ws.c, ws.d, ws.ic)
        dfs[r] = nnz
        iters[r] = diag.iterations
        conv[r] = diag.converged
    gics = np.array(
        [gic(lls[r], int(dfs[r]), ws.n, ws.p) for r in range(GRID_SIZE)]
    )
    selected, warnings = select_index(gics, conv)
    return PathResult(
        family=family,
        alpha=alpha,
        theta_max=float(tmax),
        thetas=grid,
        states=states,
        loglik=lls,
        df=dfs,
        gic=gics,
        iterations=iters,
        converged=conv,
        selected=selected,
        warnings=warnings,
        weights=None if weights is None else np.asarray(weights, dtype=float),
    )


def adaptive_lasso_pipeline(
    dataset: Dataset,
    support: SupportSet,
    workspace: EMWorkspace | None = None,
    lasso_path: PathResult | None = None,
) -> PathResult:
    """Lasso path, then an adaptive-lasso path weighted by its selected fit.

    When the lasso stage selects the empty model every adaptive weight is
    zero, so the adaptive stage degenerates to the empty model; the theta_1
    lasso state (zero coefficients with the baseline-only jump fit) is
    returned with a warning.
    """
    ws = workspace if workspace is not None else EMWorkspace(dataset, support)
    stage1 = lasso_path if lasso_path is not None else run_path(
        dataset, support, "lasso", workspace=ws
    )
    pilot = stage1.selected_state.beta
    w = np.abs(pilot)
    if not np.any(w[ws.pen_mask] > 0):
        empty = stage1.states[0]
        return PathResult(
            family="adaptive_lasso",
            alpha=None,
            theta_max=math.nan,
            thetas=np.array([math.nan]),
            states=[empty],
            loglik=np.array([stage1.loglik[0]]),
            df=np.array([0]),
            gic=np.array([stage1.gic[0]]),
            iterations=np.array([0]),
            converged=np.array([True]),
            selected=0,
            warnings=["lasso stage selected the empty model; adaptive stage degenerate"],
            weights=w,
            stage1=stage1,
            degenerate=True,
        )
    result = run_path(dataset, support, "adaptive_lasso", weights=w, workspace=ws)
    result.stage1 = stage1
    return result
