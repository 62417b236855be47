"""Command-line front end and all file serialization.

Commands: fit, path, simulate, metrics, impute. Dataset files are headered
CSV with columns left,right[,trunc] followed by covariate columns; `right`
accepts the literal `inf` for right-censored subjects. Floats are written
with 17 significant digits so outputs are reproducible bit for bit.

Exit codes: 0 ok, 2 parse error, 3 validation error, 4 degenerate support,
5 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .data import Dataset, StandardizationRecord, standardize, validate
from .em import EMWorkspace
from .errors import (
    DegenerateSupportError,
    NumericalError,
    ParseError,
    ValidationError,
)
from .metrics import aggregate, hazard_sup_distance, score
from .path import PathResult, adaptive_lasso_pipeline, run_path
from .penalties import DEFAULT_ALPHA, FAMILIES
from .simulate import (
    PRESETS,
    ScenarioConfig,
    impute_genotypes,
    make_replicate,
    midpoint_impute,
    replicate_seeds,
    scenario_from_preset,
)
from .support import maximal_intersections

_MISSING = ("", "na", "nan")


def _fmt(x) -> str:
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# serialization


def write_table(path, header: list[str] | None, rows) -> None:
    """Headered CSV; str cells are written verbatim, numbers through _fmt.

    Integers below 2**53 come out with the same digits as str(int), so index,
    count and 0/1 flag columns may travel in float arrays.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else _fmt(c) for c in row] for row in rows)


def _csv_rows(path: Path):
    """Yield (1-based line number, cells) for every non-blank line of a CSV file."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        for row in reader:
            if len(row) > 1 or (row and row[0].strip()):
                yield reader.line_num, row


def _floats(path: Path, lineno: int, row: list[str]) -> list[float]:
    """One row as floats; missing cells (empty, na, nan) become NaN."""
    try:
        return [float(c) for c in row]
    except ValueError:
        pass
    try:
        return [math.nan if c.strip().lower() in _MISSING else float(c) for c in row]
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc


def _read_numeric(path: Path, rows, width: int, allow_missing: bool = False) -> np.ndarray:
    """The (line number, cells) rows as an (n, width) float array.

    Malformed cells are reported before missing ones; missing cells are a
    parse error unless allow_missing, when they stay NaN.
    """
    linenos, values = [], []
    for lineno, row in rows:
        if len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        linenos.append(lineno)
        values.append(_floats(path, lineno, row))
    if not values:
        raise ParseError(f"{path}: no data rows")
    table = np.array(values)
    if not allow_missing:
        missing = np.isnan(table).any(axis=1)
        if missing.any():
            raise ParseError(f"{path}:{linenos[int(np.argmax(missing))]}: missing value")
    return table


def read_dataset_csv(path) -> tuple[Dataset, list[str]]:
    """Parse a dataset CSV; raises ParseError with a 1-based line number."""
    path = Path(path)
    rows = _csv_rows(path)
    lineno, header = next(rows, (None, None))
    if header is None:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if len(header) < 3 or header[0] != "left" or header[1] != "right":
        raise ParseError(
            f"{path}:{lineno}: header must start with left,right and have at least one covariate"
        )
    has_trunc = header[2] == "trunc"
    first_cov = 3 if has_trunc else 2
    names = header[first_cov:]
    if not names:
        raise ParseError(f"{path}:{lineno}: no covariate columns found")
    table = _read_numeric(path, rows, len(header))
    dataset = Dataset(
        left=table[:, 0],
        right=table[:, 1],
        covariates=table[:, first_cov:],
        truncation=table[:, 2] if has_trunc else None,
    )
    return dataset, names


def read_matrix_csv(path, allow_nan: bool = False) -> tuple[np.ndarray, list[str] | None]:
    """Numeric matrix CSV; a first row with a non-numeric cell is a header."""
    path = Path(path)
    rows = _csv_rows(path)
    lineno, first = next(rows, (None, None))
    if first is None:
        raise ParseError(f"{path}: empty file")
    try:
        _floats(path, lineno, first)
    except ParseError:
        header = [c.strip() for c in first]
    else:
        header, rows = None, itertools.chain([(lineno, first)], rows)
    return _read_numeric(path, rows, len(first), allow_missing=allow_nan), header


def write_dataset_csv(path, dataset: Dataset, names: list[str] | None = None) -> None:
    names = names or [f"z{j + 1}" for j in range(dataset.p)]
    has_trunc = bool(np.any(dataset.truncation > 0))
    head = ["left", "right"] + (["trunc"] if has_trunc else []) + list(names)
    cols = [dataset.left, dataset.right] + ([dataset.truncation] if has_trunc else [])
    write_table(path, head, np.column_stack(cols + [dataset.covariates]))


def write_midpoint_csv(path, dataset: Dataset, names: list[str] | None = None) -> None:
    """Midpoint-imputed (time, event) export for right-censored-data fitters."""
    names = names or [f"z{j + 1}" for j in range(dataset.p)]
    time, event = midpoint_impute(dataset)
    write_table(path, ["time", "event"] + list(names),
                np.column_stack([time, event, dataset.covariates]))


def write_matrix_csv(path, matrix: np.ndarray, header: list[str] | None = None) -> None:
    write_table(path, header, np.atleast_2d(np.asarray(matrix, dtype=float)))


def write_path_csv(path, result: PathResult) -> None:
    r = np.arange(len(result.thetas))
    write_table(
        path,
        ["index", "theta", "df", "loglik", "gic", "iterations", "converged", "selected"],
        np.column_stack([r + 1, result.thetas, result.df, result.loglik, result.gic,
                         result.iterations, result.converged, r == result.selected]),
    )


def _json_default(obj):
    """json.dump hook: arrays become lists, numpy scalars Python scalars."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def model_json(
    result: PathResult,
    record: StandardizationRecord | None,
    names: list[str],
) -> dict:
    state = result.selected_state
    beta_std = state.beta
    if record is not None:
        beta_orig, lam_orig = record.to_original_scale(beta_std, state.lam)
        std_block = {
            "center": record.center,
            "scale": record.scale,
            "constant": record.constant,
        }
    else:
        beta_orig, lam_orig = beta_std, state.lam
        std_block = None
    nonzero = {names[j]: float(beta_orig[j]) for j in np.flatnonzero(beta_orig)}
    sel = result.selected
    doc = {
        "family": result.family,
        "alpha": result.alpha,
        "theta_max": result.theta_max,
        "selected_index": sel + 1,
        "selected_theta": float(result.thetas[sel]),
        "df": int(result.df[sel]),
        "loglik": float(result.loglik[sel]),
        "gic": float(result.gic[sel]),
        "converged": bool(result.converged[sel]),
        "iterations": int(result.iterations[sel]),
        "selected_covariates": nonzero,
        "beta_original_scale": beta_orig,
        "beta_standardized": beta_std,
        "baseline": {
            "lower": state.support.lower,
            "upper": state.support.upper,
            "lambda_standardized": state.lam,
            "lambda_original_scale": lam_orig,
        },
        "standardization": std_block,
        "warnings": list(result.warnings),
        "degenerate": result.degenerate,
    }
    return doc


def write_model_json(path, result, record, names) -> None:
    with open(path, "w") as fh:
        json.dump(model_json(result, record, names), fh, indent=1, default=_json_default)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands; each reads the argparse namespace of its subcommand


def _penalty_factors_for(args: argparse.Namespace, names: list[str], p: int) -> np.ndarray:
    factors = np.ones(p)
    if args.penalty_factors:
        mat, _ = read_matrix_csv(args.penalty_factors)
        flat = mat.ravel()
        if flat.size != p:
            raise ValidationError(
                f"penalty factor file has {flat.size} entries for {p} covariates"
            )
        factors = flat
    for raw in args.unpenalized.split(","):
        name = raw.strip()
        if not name:
            continue
        if name not in names:
            raise ValidationError(f"--unpenalized column {name!r} not in the input header")
        factors[names.index(name)] = 0.0
    return factors


def _prepare_dataset(args: argparse.Namespace):
    dataset, names = read_dataset_csv(args.input)
    factors = _penalty_factors_for(args, names, dataset.p)
    dataset = dataset.replace(penalty_factors=factors)
    violations = validate(dataset)
    if violations:
        raise ValidationError("; ".join(violations))
    if not args.truncation and np.any(dataset.truncation > 0):
        raise ValidationError(
            "input has positive trunc values; rerun with --truncation to honor them"
        )
    record = None
    if args.standardize:
        dataset, record = standardize(dataset)
    return dataset, names, record, maximal_intersections(dataset)


def cmd_fit(args: argparse.Namespace) -> int:
    """fit and path; path has no model file (output_model is None)."""
    if args.alpha is not None and args.family not in DEFAULT_ALPHA:
        raise ValidationError("--alpha applies only to scad and mcp")
    dataset, names, record, support = _prepare_dataset(args)
    if args.family == "adaptive_lasso":
        result = adaptive_lasso_pipeline(dataset, support)
    else:
        result = run_path(dataset, support, args.family, alpha=args.alpha)
    if args.output_model is not None:
        write_model_json(args.output_model, result, record, names)
    write_path_csv(args.output_path_csv, result)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    est, _ = read_matrix_csv(args.estimates)
    truth, _ = read_matrix_csv(args.truth)
    truth = truth.ravel()
    if est.shape[1] != truth.size:
        raise ValidationError(
            f"estimates have {est.shape[1]} columns but truth has {truth.size}"
        )
    reports = [score(row, truth, tol=args.tol) for row in est]
    agg = aggregate(reports)
    keys = ("l1_error", "l2_error", "fp", "fn")
    rows = [[i + 1] + [getattr(rep, k) for k in keys] for i, rep in enumerate(reports)]
    rows.append(["mean"] + [agg.means[k] for k in keys])
    rows.append(["se"] + [agg.ses[k] for k in keys])
    write_table(args.output, ["row", *keys], rows)
    return 0


def cmd_impute(args: argparse.Namespace) -> int:
    if args.mode == "genotype":
        if args.seed is None:
            raise ValidationError("impute: missing or invalid --seed")
        mat, header = read_matrix_csv(args.input, allow_nan=True)
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        filled = impute_genotypes(mat, rng)
        write_matrix_csv(args.output, filled, header=header)
    else:
        dataset, names = read_dataset_csv(args.input)
        violations = validate(dataset)
        if violations:
            raise ValidationError("; ".join(violations))
        write_midpoint_csv(args.output, dataset, names)
    return 0


# ---------------------------------------------------------------------------
# simulation campaigns


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    overrides = {
        key: getattr(args, key)
        for key in ("n", "p", "rho", "beta", "replicates")
        if getattr(args, key) is not None
    }
    overrides["seed"] = args.seed
    if args.preset:
        return scenario_from_preset(args.preset, **overrides)
    for req in ("n", "p", "rho"):
        if req not in overrides:
            raise ValidationError(f"simulate without --preset needs --{req}")
    overrides.setdefault("beta", "b6")
    overrides.setdefault("replicates", 1)
    return ScenarioConfig(**overrides)


def _replicate_worker(rep_index, seed_seq, *, scenario, families, do_standardize,
                      output_dir, emit_data, emit_midpoint):
    dataset_raw, beta_true, _ = make_replicate(scenario, seed_seq)
    names = [f"z{j + 1}" for j in range(dataset_raw.p)]
    tag = f"rep{rep_index:04d}"
    if emit_data:
        write_dataset_csv(output_dir / f"data_{tag}.csv", dataset_raw, names)
    if emit_midpoint:
        write_midpoint_csv(output_dir / f"midpoint_{tag}.csv", dataset_raw, names)
    out = {
        "replicate": rep_index,
        "rc_rate": float(np.mean(~np.isfinite(dataset_raw.right))),
        "lc_rate": float(np.mean(dataset_raw.left == 0)),
        "families": {},
    }
    if not families:
        return out
    record = None
    dataset = dataset_raw
    if do_standardize:
        dataset, record = standardize(dataset_raw)
    support = maximal_intersections(dataset)
    ws = EMWorkspace(dataset, support)
    lasso_res = None
    if "lasso" in families or "adaptive_lasso" in families:
        lasso_res = run_path(dataset, support, "lasso", workspace=ws)
    for fam in families:
        if fam == "lasso":
            res = lasso_res
        elif fam == "adaptive_lasso":
            res = adaptive_lasso_pipeline(dataset, support, workspace=ws, lasso_path=lasso_res)
        else:
            res = run_path(dataset, support, fam, workspace=ws)
        state = res.selected_state
        if record is not None:
            beta_raw, lam_raw = record.to_original_scale(state.beta, state.lam)
        else:
            beta_raw, lam_raw = state.beta, state.lam
        out["families"][fam] = {
            "report": score(beta_raw, beta_true),
            "hazard_sup": hazard_sup_distance(
                support, lam_raw, scenario.weibull_eta, scenario.weibull_kappa
            ),
            "selected_theta": float(res.thetas[res.selected]),
            "selected_index": res.selected + 1,
            "df": int(res.df[res.selected]),
            "converged_points": int(np.count_nonzero(res.converged)),
        }
    return out


def run_campaign(
    scenario: ScenarioConfig,
    families: list[str],
    output_dir,
    threads: int = 1,
    do_standardize: bool = True,
    emit_data: bool = False,
    emit_midpoint: bool = False,
) -> None:
    """Generate, fit and score every replicate and write the campaign file set.

    Replicates are independent: each gets its own spawned seed substream, so
    results do not depend on the worker count.
    """
    for fam in families:
        if fam not in FAMILIES:
            raise ValidationError(f"unknown family {fam!r}")
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    work = functools.partial(
        _replicate_worker, scenario=scenario, families=list(families),
        do_standardize=do_standardize, output_dir=output_dir,
        emit_data=emit_data, emit_midpoint=emit_midpoint,
    )
    seeds = replicate_seeds(scenario)
    if threads > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, range(len(seeds)), seeds))
    else:
        results = list(map(work, range(len(seeds)), seeds))
    aggregates = {fam: aggregate([res["families"][fam]["report"] for res in results])
                  for fam in families}
    _write_campaign_files(output_dir, scenario, families, results, aggregates)


def _write_campaign_files(output_dir, scenario, families, results, aggregates):
    keys = ("l1_error", "l2_error", "fp", "fn")
    write_table(
        output_dir / "summary.csv",
        ["family", "l1_mean", "l1_se", "l2_mean", "l2_se",
         "fp_mean", "fp_se", "fn_mean", "fn_se", "hazard_sup_mean"],
        [[fam]
         + [v for k in keys for v in (aggregates[fam].means[k], aggregates[fam].ses[k])]
         + [np.mean([res["families"][fam]["hazard_sup"] for res in results])]
         for fam in families],
    )
    fields = ("hazard_sup", "selected_theta", "selected_index", "df", "converged_points")
    rows = []
    for res in results:
        for fam in families:
            info = res["families"][fam]
            rows.append([res["replicate"] + 1, fam] + [getattr(info["report"], k) for k in keys]
                        + [info[k] for k in fields] + [res["rc_rate"]])
    write_table(
        output_dir / "replicates.csv",
        ["replicate", "family", "l1_error", "l2_error", "fp", "fn", *fields, "rc_rate"],
        rows,
    )
    write_table(
        output_dir / "censoring.csv",
        ["replicate", "right_censored_rate", "left_censored_rate"],
        [[res["replicate"] + 1, res["rc_rate"], res["lc_rate"]] for res in results],
    )
    true_idx = np.flatnonzero(scenario.beta_true())
    coef_names = [f"z{j + 1}" for j in true_idx]
    for fam in families:
        mat = np.stack(
            [res["families"][fam]["report"].beta_hat_on_true_support for res in results]
        )
        write_matrix_csv(output_dir / f"estimates_{fam}.csv", mat, header=coef_names)
    with open(output_dir / "manifest.json", "w") as fh:
        json.dump({"scenario": dataclasses.asdict(scenario), "families": list(families)},
                  fh, indent=1)
        fh.write("\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    run_campaign(
        _scenario_from_args(args),
        [f.replace("-", "_") for f in args.fit.split(",") if f.strip()],
        output_dir=args.output_dir,
        threads=args.threads,
        do_standardize=args.standardize,
        emit_data=args.emit_data,
        emit_midpoint=args.emit_midpoint,
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_fit_args(sub):
    sub.add_argument("--input", required=True, help="dataset CSV")
    sub.add_argument("--family", required=True,
                     type=lambda s: s.replace("-", "_"), choices=FAMILIES)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--no-standardize", dest="standardize", action="store_false")
    sub.add_argument("--truncation", action="store_true",
                     help="honor the trunc column (left truncation)")
    sub.add_argument("--unpenalized", default="",
                     help="comma-separated covariate names left unpenalized")
    sub.add_argument("--penalty-factors", default=None,
                     help="one-line CSV of per-covariate penalty factors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icsel",
        description="Penalized variable selection for interval-censored "
                    "proportional-hazards models",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit one penalty family, emit model + path")
    _add_fit_args(fit)
    fit.add_argument("--output-model", default="model.json")
    fit.add_argument("--output-path", dest="output_path_csv", default="path.csv")

    pathcmd = subs.add_parser("path", help="fit and emit the theta path table only")
    _add_fit_args(pathcmd)
    pathcmd.add_argument("--output-path", dest="output_path_csv", default="path.csv")
    pathcmd.set_defaults(output_model=None)

    sim = subs.add_parser("simulate", help="run a simulation campaign")
    sim.add_argument("--preset", choices=sorted(PRESETS), default=None)
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--p", type=int, default=None)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--beta", choices=("b6", "b12"), default=None)
    sim.add_argument("--replicates", type=int, default=None)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--fit", default="",
                     help="comma-separated families to fit on each replicate")
    sim.add_argument("--output-dir", required=True)
    sim.add_argument("--emit-data", action="store_true")
    sim.add_argument("--midpoint", dest="emit_midpoint", action="store_true",
                     help="write midpoint-imputed exports per replicate")
    sim.add_argument("--no-standardize", dest="standardize", action="store_false")
    sim.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="worker processes across replicates (default: CPU count)")

    met = subs.add_parser("metrics", help="score an estimates matrix against a truth row")
    met.add_argument("--estimates", required=True)
    met.add_argument("--truth", required=True)
    met.add_argument("--tol", type=float, default=0.0)
    met.add_argument("--output", default="report.csv")

    imp = subs.add_parser("impute", help="genotype or midpoint imputation utility")
    imp.add_argument("--mode", choices=("genotype", "midpoint"), required=True)
    imp.add_argument("--input", required=True)
    imp.add_argument("--output", default="imputed.csv")
    imp.add_argument("--seed", type=int, default=None)

    return parser


_COMMANDS = {
    "fit": cmd_fit,
    "path": cmd_fit,
    "simulate": cmd_simulate,
    "metrics": cmd_metrics,
    "impute": cmd_impute,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except DegenerateSupportError as exc:
        print(f"degenerate support: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
