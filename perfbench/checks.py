"""Correctness checks on the program's outputs.

Every check compares against a computation made here, apart from the
program, or against a property the method guarantees; none compares against
stored output. Each function returns a list of problems, empty when all hold.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

GRID_SIZE = 101
EPSILON = {"lasso": 0.05, "scad": 0.05, "mcp": 0.05}
LOGLIK_RTOL = 1e-9
FLOAT_RTOL = 1e-12
DETERMINISTIC_CAMPAIGN_FILES = ("summary.csv", "replicates.csv", "censoring.csv", "manifest.json")


def read_input(path):
    """(left, right, trunc, Z) from a dataset CSV with a left,right[,trunc] header."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    has_trunc = header[2] == "trunc"
    first = 3 if has_trunc else 2
    trunc = table[:, 2] if has_trunc else np.zeros(table.shape[0])
    return table[:, 0], table[:, 1], trunc, table[:, first:]


def brute_force_support(left, right, trunc, truncated: bool):
    """Maximal intersections straight from their definition, over all pairs.

    A pair (l, u] qualifies when l is a left endpoint, u a finite right
    endpoint (or, under truncation, an entry time), l < u, and no endpoint of
    any kind lies strictly inside (l, u). Under truncation entry times are
    endpoints too and only l > 0 is kept.
    """
    finite_r = right[np.isfinite(right)]
    lefts = np.unique(left)
    rights = np.unique(np.concatenate([finite_r, trunc]) if truncated else finite_r)
    endpoints = np.unique(np.concatenate([left, finite_r] + ([trunc] if truncated else [])))
    if truncated:
        lefts = lefts[lefts > 0]
    # endpoints strictly inside (l, u) = #{e < u} - #{e <= l}
    below_u = np.searchsorted(endpoints, rights, side="left")
    upto_l = np.searchsorted(endpoints, lefts, side="right")
    lows, ups = [], []
    for start in range(0, lefts.size, 512):
        lo = lefts[start : start + 512, None]
        inside = below_u[None, :] - upto_l[start : start + 512, None]
        ok = (rights[None, :] > lo) & (inside == 0)
        rows, cols = np.nonzero(ok)
        lows.append(lefts[start + rows])
        ups.append(rights[cols])
    lows = np.concatenate(lows) if lows else np.empty(0)
    ups = np.concatenate(ups) if ups else np.empty(0)
    order = np.argsort(ups, kind="stable")
    return lows[order], ups[order]


def observed_loglik(left, right, trunc, Z, beta, upper, lam) -> float:
    """Interval-mass form: sum_i [-(Lambda(L) - Lambda(V)) e^eta + I(R<inf) log(1 - e^-B)]."""
    cum = np.concatenate(([0.0], np.cumsum(lam)))

    def Lambda(t):
        return cum[np.searchsorted(upper, t, side="right")]

    exb = np.exp(Z @ beta)
    ic = np.isfinite(right)
    A = (Lambda(left) - Lambda(trunc)) * exb
    B = (Lambda(right[ic]) - Lambda(left[ic])) * exb[ic]
    if np.any(B <= 0):
        return -math.inf
    return float(-A.sum() + np.log(-np.expm1(-B)).sum())


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_path(rows, model: dict, family: str, n: int, p: int) -> list[str]:
    """Tuning-path invariants of path.csv and its agreement with model.json."""
    problems = []
    if len(rows) != GRID_SIZE:
        return [f"path.csv has {len(rows)} rows, want {GRID_SIZE}"]
    theta = np.array([float(r["theta"]) for r in rows])
    df = np.array([int(r["df"]) for r in rows])
    ll = np.array([float(r["loglik"]) for r in rows])
    gic = np.array([float(r["gic"]) for r in rows])
    conv = np.array([r["converged"] == "1" for r in rows])
    selected = [i for i, r in enumerate(rows) if r["selected"] == "1"]
    if [int(r["index"]) for r in rows] != list(range(1, GRID_SIZE + 1)):
        problems.append("path.csv index column is not 1..101")
    ratio = EPSILON[family] ** (1.0 / (GRID_SIZE - 1))
    if not np.allclose(theta[1:] / theta[:-1], ratio, rtol=1e-9, atol=0):
        problems.append("theta grid is not geometric with ratio eps^(1/100)")
    if not _close(theta[0], model["theta_max"], FLOAT_RTOL):
        problems.append("theta grid does not start at theta_max")
    if df[0] != 0:
        problems.append(f"df at theta_1 is {df[0]}, want 0")
    want = -2.0 * ll + math.log(math.log(n)) * math.log(p) * df
    if not all(_close(g, w, FLOAT_RTOL) for g, w in zip(gic, want)):
        problems.append("gic != -2 loglik + log(log n) log(p) df")
    pool = np.where(conv, gic, np.inf) if conv.any() else gic
    first_min = int(np.flatnonzero(pool == pool.min())[0])
    if selected != [first_min]:
        problems.append(f"selected rows {selected}, want the first GIC minimum {first_min}")
    elif model["selected_index"] != first_min + 1:
        problems.append("model.json selected_index disagrees with path.csv")
    elif (model["df"], model["loglik"], model["gic"]) != (int(df[first_min]), ll[first_min], gic[first_min]):
        problems.append("model.json df/loglik/gic disagree with the selected path row")
    return problems


def check_fit(data, model_json, path_csv, family: str, truncated: bool):
    """All fit checks on the outputs for input ``data`` (as read_input returns it).

    Returns (problems, selected covariate indices, 0-based).
    """
    left, right, trunc, Z = data
    model = json.loads(Path(model_json).read_text())
    problems = []
    lower, upper = brute_force_support(left, right, trunc, truncated and bool(np.any(trunc > 0)))
    base = model["baseline"]
    if not (np.array_equal(lower, base["lower"]) and np.array_equal(upper, base["upper"])):
        problems.append(
            f"support cells differ from brute force ({len(base['upper'])} vs {upper.size})"
        )
    else:
        ll = observed_loglik(
            left, right, trunc, Z,
            np.array(model["beta_original_scale"]), upper,
            np.array(base["lambda_original_scale"]),
        )
        if not _close(ll, model["loglik"], LOGLIK_RTOL):
            problems.append(f"loglik {model['loglik']!r} != recomputed {ll!r}")
    n, p = Z.shape
    problems += check_path(read_rows(path_csv), model, family, n, p)
    beta = np.array(model["beta_original_scale"])
    return problems, np.flatnonzero(beta)


def selection_errors(selected, num_true: int = 6) -> tuple[int, int]:
    """(false positives, false negatives) with signals on the leading covariates."""
    hits = int(np.count_nonzero(selected < num_true))
    return int(selected.size - hits), num_true - hits


def check_campaign(outdir, families, lasso_margin: float) -> list[str]:
    """summary.csv agrees with replicates.csv; lasso's L2 error trails the rest."""
    outdir = Path(outdir)
    problems = []
    reps = read_rows(outdir / "replicates.csv")
    summary = {r["family"]: r for r in read_rows(outdir / "summary.csv")}
    if sorted(summary) != sorted(families):
        return [f"summary.csv families {sorted(summary)}, want {sorted(families)}"]
    for fam in families:
        rows = [r for r in reps if r["family"] == fam]
        for col, key in (("l1_error", "l1"), ("l2_error", "l2"), ("fp", "fp"), ("fn", "fn")):
            vals = np.array([float(r[col]) for r in rows])
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(vals.size))
            if not (_close(float(summary[fam][f"{key}_mean"]), mean, FLOAT_RTOL)
                    and _close(float(summary[fam][f"{key}_se"]), se, FLOAT_RTOL)):
                problems.append(f"summary.csv {fam} {key} mean/se disagree with replicates.csv")
    lasso = float(summary["lasso"]["l2_mean"])
    for fam in families:
        if fam != "lasso" and not lasso >= lasso_margin * float(summary[fam]["l2_mean"]):
            problems.append(
                f"lasso L2 {lasso:.3f} does not trail {fam} "
                f"{float(summary[fam]['l2_mean']):.3f} by {lasso_margin}x"
            )
    return problems


def campaign_files(outdir) -> dict[str, bytes]:
    """The campaign files that must not depend on timing or worker count."""
    outdir = Path(outdir)
    names = list(DETERMINISTIC_CAMPAIGN_FILES) + sorted(
        f.name for f in outdir.glob("estimates_*.csv")
    )
    return {name: (outdir / name).read_bytes() for name in names}
