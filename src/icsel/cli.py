"""Command-line front end and all file serialization.

Commands: fit, path, simulate, metrics, impute. Dataset files are headered
CSV with columns left,right[,trunc] followed by covariate columns; `right`
accepts the literal `inf` for right-censored subjects. Floats are written
with 17 significant digits so outputs are reproducible bit for bit.

Exit code 0 means success; each error class in `icsel.errors` carries its own.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .data import Dataset, standardize, validate
from .em import EMWorkspace
from .errors import IcselError, ParseError, ValidationError
from .metrics import METRIC_FIELDS, aggregate, hazard_sup_distance, score
from .path import PathResult, fit_families
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

_MISSING = ("", "na", "nan")


def _covariate_names(indices) -> list[str]:
    """Default names of the covariates at 0-based indices: z1, z2, ..."""
    return [f"z{j + 1}" for j in indices]


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


def _first_row(path: Path):
    """(line number, cells) of the first non-blank line; (None, None) if there is none."""
    rows = _csv_rows(path)
    try:
        return next(rows, (None, None))
    finally:
        rows.close()


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


def _loadtxt_table(path: Path, skip: int, width: int, allow_missing: bool) -> np.ndarray | None:
    """The rows after the first `skip` lines by one np.loadtxt call, or None.

    loadtxt converts each cell with the same PyOS_string_to_double as float(),
    so a table it returns has the bits the row reader would give. None means
    the file is left to the row reader: loadtxt rejected it, or its table is
    empty, of the wrong width or holds a NaN that is not allowed.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on an empty body
            table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip)
    except ValueError:
        return None
    if len(table) and table.shape[1] == width and (allow_missing or not np.isnan(table).any()):
        return table
    return None


def _read_numeric(path: Path, skip: int, width: int, allow_missing: bool = False) -> np.ndarray:
    """The rows after the first `skip` lines as an (n, width) float array.

    A well-formed file is read by _loadtxt_table. Any other is read again row
    by row, only to name the offending line: malformed cells are reported
    before missing ones, and missing cells are a parse error unless
    allow_missing, when they stay NaN.
    """
    table = _loadtxt_table(path, skip, width, allow_missing)
    if table is not None:
        return table
    linenos, values = [], []
    for lineno, row in _csv_rows(path):
        if lineno <= skip:
            continue
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
    lineno, header = _first_row(path)
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
    table = _read_numeric(path, lineno, len(header))
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
    lineno, first = _first_row(path)
    if first is None:
        raise ParseError(f"{path}: empty file")
    try:
        _floats(path, lineno, first)
    except ParseError:
        header, skip = [c.strip() for c in first], lineno
    else:
        header, skip = None, 0
    return _read_numeric(path, skip, len(first), allow_missing=allow_nan), header


def write_dataset_csv(path, dataset: Dataset, names: list[str] | None = None) -> None:
    names = names or _covariate_names(range(dataset.p))
    has_trunc = dataset.truncated
    head = ["left", "right"] + (["trunc"] if has_trunc else []) + list(names)
    cols = [dataset.left, dataset.right] + ([dataset.truncation] if has_trunc else [])
    write_table(path, head, np.column_stack(cols + [dataset.covariates]))


def write_midpoint_csv(path, dataset: Dataset, names: list[str] | None = None) -> None:
    """Midpoint-imputed (time, event) export for right-censored-data fitters."""
    names = names or _covariate_names(range(dataset.p))
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


def _original_scale(dataset: Dataset, result: PathResult) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, jump sizes) of the selected fit on the dataset's original scale."""
    state, record = result.selected_state, dataset.standardization
    if record is None:
        return state.beta, state.lam
    return record.to_original_scale(state.beta, state.lam)


def model_json(result: PathResult, dataset: Dataset, names: list[str]) -> dict:
    state = result.selected_state
    beta_orig, lam_orig = _original_scale(dataset, result)
    record = dataset.standardization
    nonzero = {names[j]: float(beta_orig[j]) for j in np.flatnonzero(beta_orig)}
    sel = result.selected
    return {
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
        "beta_standardized": state.beta,
        "baseline": {
            "lower": state.support.lower,
            "upper": state.support.upper,
            "lambda_standardized": state.lam,
            "lambda_original_scale": lam_orig,
        },
        "standardization": None if record is None else dataclasses.asdict(record),
        "warnings": list(result.warnings),
        "degenerate": result.degenerate,
    }


def write_model_json(path, result, dataset, names) -> None:
    with open(path, "w") as fh:
        json.dump(model_json(result, dataset, names), fh, indent=1, default=_json_default)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands; each reads the argparse namespace of its subcommand


def _penalty_factors_for(args: argparse.Namespace, names: list[str], p: int) -> np.ndarray:
    factors = np.ones(p)
    if args.penalty_factors:
        mat, _ = read_matrix_csv(args.penalty_factors)
        flat = mat.ravel()
        if flat.size != p:
            raise ValidationError(f"penalty factor file has {flat.size} entries for {p} covariates")
        factors = flat
    for name in filter(None, map(str.strip, args.unpenalized.split(","))):
        if name not in names:
            raise ValidationError(f"--unpenalized column {name!r} not in the input header")
        factors[names.index(name)] = 0.0
    return factors


def _validated(dataset: Dataset) -> Dataset:
    """The dataset itself, or a ValidationError listing its violations."""
    violations = validate(dataset)
    if violations:
        raise ValidationError("; ".join(violations))
    return dataset


def _prepare_dataset(args: argparse.Namespace):
    dataset, names = read_dataset_csv(args.input)
    factors = _penalty_factors_for(args, names, dataset.p)
    dataset = _validated(dataset.replace(penalty_factors=factors))
    if not args.truncation and dataset.truncated:
        raise ValidationError("input has positive trunc values; "
                              "rerun with --truncation to honor them")
    if args.standardize:
        dataset, _ = standardize(dataset)
    return EMWorkspace(dataset), names


def cmd_fit(args: argparse.Namespace) -> int:
    """fit and path; path has no model file (output_model is None)."""
    if args.alpha is not None and args.family not in DEFAULT_ALPHA:
        raise ValidationError("--alpha applies only to scad and mcp")
    ws, names = _prepare_dataset(args)
    result = fit_families(ws, [args.family], alpha=args.alpha)[args.family]
    if args.output_model is not None:
        write_model_json(args.output_model, result, ws.dataset, names)
    write_path_csv(args.output_path_csv, result)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    est, _ = read_matrix_csv(args.estimates)
    truth, _ = read_matrix_csv(args.truth)
    truth = truth.ravel()
    if est.shape[1] != truth.size:
        raise ValidationError(f"estimates have {est.shape[1]} columns but truth has {truth.size}")
    reports = [score(row, truth, tol=args.tol) for row in est]
    agg = aggregate(reports)
    rows = [[i + 1] + [getattr(rep, k) for k in METRIC_FIELDS] for i, rep in enumerate(reports)]
    rows.append(["mean"] + [agg.means[k] for k in METRIC_FIELDS])
    rows.append(["se"] + [agg.ses[k] for k in METRIC_FIELDS])
    write_table(args.output, ["row", *METRIC_FIELDS], rows)
    return 0


def cmd_impute(args: argparse.Namespace) -> int:
    if args.mode == "genotype":
        if args.seed is None:
            raise ValidationError("impute: missing or invalid --seed")
        mat, header = read_matrix_csv(args.input, allow_nan=True)
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        write_matrix_csv(args.output, impute_genotypes(mat, rng), header=header)
    else:
        dataset, names = read_dataset_csv(args.input)
        write_midpoint_csv(args.output, _validated(dataset), names)
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


_REPLICATE_HEADER = ["replicate", "family", *METRIC_FIELDS, "hazard_sup", "selected_theta",
                     "selected_index", "df", "converged_points", "rc_rate"]


def _replicate_worker(rep_index, seed_seq, *, args, scenario, families):
    """Make, write and fit one replicate.

    Returns its censoring.csv row and, per family in order, the fit's
    FitReport and replicates.csv row.
    """
    dataset, beta_true, _ = make_replicate(scenario, seed_seq)
    tag = f"rep{rep_index:04d}"
    if args.emit_data:
        write_dataset_csv(Path(args.output_dir) / f"data_{tag}.csv", dataset)
    if args.emit_midpoint:
        write_midpoint_csv(Path(args.output_dir) / f"midpoint_{tag}.csv", dataset)
    rc_rate = float(np.mean(~np.isfinite(dataset.right)))
    censoring = [rep_index + 1, rc_rate, float(np.mean(dataset.left == 0))]
    if not families:
        return censoring, []
    if args.standardize:
        dataset, _ = standardize(dataset)
    ws = EMWorkspace(dataset)
    fits = []
    for fam, res in fit_families(ws, families).items():
        beta_raw, lam_raw = _original_scale(dataset, res)
        report = score(beta_raw, beta_true)
        hazard_sup = hazard_sup_distance(ws.support, lam_raw, scenario.weibull_eta,
                                         scenario.weibull_kappa)
        sel = res.selected
        row = [rep_index + 1, fam, *(getattr(report, k) for k in METRIC_FIELDS), hazard_sup,
               res.thetas[sel], sel + 1, res.df[sel], np.count_nonzero(res.converged), rc_rate]
        fits.append((report, row))
    return censoring, fits


def _write_campaign_files(output_dir, scenario, families, results):
    """Write summary, replicates, censoring, estimates and manifest files from
    the replicate workers' results."""
    per_family = list(zip(*(fits for _, fits in results)))
    hazard_col = _REPLICATE_HEADER.index("hazard_sup")
    summary = []
    for fam, fits in zip(families, per_family):
        agg = aggregate([report for report, _ in fits])
        summary.append([fam] + [v for k in METRIC_FIELDS for v in (agg.means[k], agg.ses[k])]
                       + [np.mean([row[hazard_col] for _, row in fits])])
    summary_header = [f"{k.removesuffix('_error')}_{s}" for k in METRIC_FIELDS
                      for s in ("mean", "se")]
    write_table(output_dir / "summary.csv", ["family", *summary_header, "hazard_sup_mean"],
                summary)
    write_table(output_dir / "replicates.csv", _REPLICATE_HEADER,
                [row for _, fits in results for _, row in fits])
    write_table(output_dir / "censoring.csv",
                ["replicate", "right_censored_rate", "left_censored_rate"],
                [censoring for censoring, _ in results])
    coef_names = _covariate_names(np.flatnonzero(scenario.beta_true()))
    for fam, fits in zip(families, per_family):
        mat = np.stack([report.beta_hat_on_true_support for report, _ in fits])
        write_matrix_csv(output_dir / f"estimates_{fam}.csv", mat, header=coef_names)
    with open(output_dir / "manifest.json", "w") as fh:
        json.dump({"scenario": dataclasses.asdict(scenario), "families": families},
                  fh, indent=1)
        fh.write("\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    """Generate, fit and score every replicate and write the campaign file set.

    Replicates are independent: each gets its own spawned seed substream, so
    results do not depend on the worker count.
    """
    scenario = _scenario_from_args(args)
    families = [f.replace("-", "_") for f in args.fit.split(",") if f.strip()]
    for fam in families:
        if fam not in FAMILIES:
            raise ValidationError(f"unknown family {fam!r}")
    Path(args.output_dir).mkdir(parents=True, exist_ok=True)
    work = functools.partial(_replicate_worker, args=args, scenario=scenario, families=families)
    seeds = replicate_seeds(scenario)
    if args.threads > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(work, range(len(seeds)), seeds))
    else:
        results = list(map(work, range(len(seeds)), seeds))
    _write_campaign_files(Path(args.output_dir), scenario, families, results)
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
    except IcselError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
