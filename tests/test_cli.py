"""Command-line interface: parsing, exit codes, artifacts, campaigns."""

import csv
import importlib.util
import inspect
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import icsel
import icsel.path
from icsel import Dataset, cli
from icsel.cli import (
    main,
    read_dataset_csv,
    read_matrix_csv,
    write_dataset_csv,
)
from icsel.simulate import ScenarioConfig, make_replicate, replicate_seeds


def signal_dataset(seed=0, n=120, p=15):
    cfg = ScenarioConfig(n=n, p=p, rho=0.0, beta="b6", replicates=1, seed=seed)
    ds, beta_true, _ = make_replicate(cfg, replicate_seeds(cfg)[0])
    return ds, beta_true


def write_signal_csv(path, seed=0, n=120, p=15, trunc=None):
    ds, beta_true = signal_dataset(seed, n, p)
    if trunc is not None:
        ds = Dataset(left=ds.left, right=ds.right, covariates=ds.covariates,
                     truncation=trunc)
    write_dataset_csv(str(path), ds)
    return beta_true


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_public_names_resolve_once():
    assert len(icsel.__all__) == len(set(icsel.__all__))
    for name in icsel.__all__:
        assert getattr(icsel, name) is not None


# ---------------------------------------------------------------------------
# dataset I/O


def test_dataset_roundtrip_identical(tmp_path):
    rng = np.random.default_rng(3)
    n = 25
    left = rng.uniform(0, 2, n)
    right = left + rng.uniform(0.2, 1.5, n)
    right[rng.random(n) < 0.3] = math.inf
    trunc = np.where(rng.random(n) < 0.4, left * 0.5, 0.0)
    ds = Dataset(left=left, right=right, covariates=rng.normal(size=(n, 4)),
                 truncation=trunc)
    f = tmp_path / "ds.csv"
    write_dataset_csv(str(f), ds, names=["a", "b", "c", "d"])
    back, names = read_dataset_csv(str(f))
    assert names == ["a", "b", "c", "d"]
    assert np.array_equal(back.left, ds.left)
    assert np.array_equal(back.right, ds.right)
    assert np.array_equal(back.truncation, ds.truncation)
    assert np.array_equal(back.covariates, ds.covariates)


def test_dataset_roundtrip_drops_all_zero_trunc(tmp_path):
    ds = Dataset(left=[0.0, 1.0], right=[1.0, 2.0], covariates=np.zeros((2, 1)))
    f = tmp_path / "ds.csv"
    write_dataset_csv(str(f), ds)
    header = read_rows(f)[0]
    assert "trunc" not in header


def test_parse_error_reports_line_number(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("left,right,z1\n0,1,0.5\n0,oops,1.0\n")
    rc = main(["fit", "--input", str(f), "--family", "lasso",
               "--output-model", str(tmp_path / "m.json"),
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 2


def test_parse_error_message_names_line(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("left,right,z1\n0,1,0.5\n0,oops,1.0\n")
    rc = main(["path", "--input", str(f), "--family", "lasso",
               "--output-path", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad.csv:3:" in err


def test_parse_error_line_counts_blank_lines(tmp_path, capsys):
    # the bad cell sits on line 5 of both files, after two blank lines
    data = tmp_path / "data.csv"
    data.write_text("left,right,z1\n\n0,1,0.5\n\n0.5,2,x\n")
    rc = main(["path", "--input", str(data), "--family", "lasso",
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "data.csv:5: could not convert string to float: 'x'" in capsys.readouterr().err
    geno = tmp_path / "geno.csv"
    geno.write_text("s1,s2\n\n0,2\n\n1,x\n")
    rc = main(["impute", "--mode", "genotype", "--input", str(geno),
               "--output", str(tmp_path / "fill.csv"), "--seed", "9"])
    assert rc == 2
    assert "geno.csv:5: could not convert string to float: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "na", ""])
def test_missing_dataset_cell_is_parse_error(tmp_path, capsys, cell):
    f = tmp_path / "data.csv"
    f.write_text(f"left,right,z1,z2\n0.5,1.0,0.5,1\n0.5,2.0,{cell},0\n1.0,3.0,0.0,1\n")
    rc = main(["path", "--input", str(f), "--family", "lasso",
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "data.csv:3: missing value" in capsys.readouterr().err


def test_missing_required_column_is_parse_error(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("left,z1\n0,0.5\n")
    rc = main(["fit", "--input", str(f), "--family", "lasso",
               "--output-model", str(tmp_path / "m.json"),
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 2


def test_validation_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("left,right,z1,z2\n2.0,1.0,0.5,1\n0.5,2.0,1.0,0\n1.0,3.0,0.0,1\n")
    rc = main(["fit", "--input", str(f), "--family", "lasso",
               "--output-model", str(tmp_path / "m.json"),
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "left >= right" in capsys.readouterr().err
    # --alpha shapes only scad and mcp; elsewhere it is rejected, not ignored
    good = tmp_path / "good.csv"
    good.write_text("left,right,z1,z2\n0.5,1.0,0.5,1\n0.5,2.0,1.0,0\n1.0,3.0,0.0,1\n")
    for family, alpha in (("lasso", "3"), ("adaptive-lasso", "0.5")):
        rc = main(["fit", "--input", str(good), "--family", family, "--alpha", alpha,
                   "--output-model", str(tmp_path / "m.json"),
                   "--output-path", str(tmp_path / "p.csv")])
        assert rc == 3
        assert "--alpha applies only to scad and mcp" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_one_covariate_rejected_before_fitting(tmp_path, capsys, monkeypatch):
    """GIC needs p >= 2, so a one-covariate path fails before its baseline fit."""
    calls = []
    fit = icsel.path.baseline_lambda_fit

    def counted(ws):
        calls.append(ws)
        return fit(ws)

    monkeypatch.setattr(icsel.path, "baseline_lambda_fit", counted)
    f = tmp_path / "one.csv"
    f.write_text("left,right,z1\n0.5,1.0,0.5\n0.5,2.0,1.0\n1.0,3.0,0.0\n0.2,inf,2.0\n")
    rc = main(["fit", "--input", str(f), "--family", "lasso",
               "--output-model", str(tmp_path / "m.json"),
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 3
    assert capsys.readouterr().err == "validation error: gic needs p >= 2\n"
    assert calls == []


def test_degenerate_support_exit_code(tmp_path):
    f = tmp_path / "rc.csv"
    f.write_text("left,right,z1,z2\n"
                 "1.0,inf,0.5,1\n2.0,inf,1.0,0\n1.5,inf,0.0,1\n")
    rc = main(["fit", "--input", str(f), "--family", "lasso",
               "--output-model", str(tmp_path / "m.json"),
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 4


def test_numerical_error_exit_code(tmp_path, capsys):
    # the truncated support keeps only cells with l > 0, so subject 0's
    # (0, 2] holds no support cell and is rejected before fitting
    f = tmp_path / "orphan.csv"
    f.write_text("left,right,trunc,z1,z2\n"
                 "0.0,2.0,0.0,1.0,0.0\n"
                 "3.0,5.0,3.0,0.0,1.0\n"
                 "4.0,6.0,3.5,1.0,1.0\n")
    rc = main(["fit", "--input", str(f), "--family", "lasso", "--truncation",
               "--no-standardize",
               "--output-model", str(tmp_path / "m.json"),
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 5
    assert capsys.readouterr().err != ""


def test_positive_trunc_without_flag_is_validation_error(tmp_path, capsys):
    f = tmp_path / "tr.csv"
    f.write_text("left,right,trunc,z1,z2\n"
                 "1.0,2.0,0.5,0.3,1.0\n1.5,3.0,0.0,1.0,0.0\n0.5,1.8,0.0,0.0,1.0\n")
    rc = main(["fit", "--input", str(f), "--family", "lasso",
               "--output-model", str(tmp_path / "m.json"),
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "--truncation" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit command artifacts


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fit")
    data = tmp / "data.csv"
    beta_true = write_signal_csv(data, seed=0)
    model = tmp / "model.json"
    path_csv = tmp / "path.csv"
    rc = main(["fit", "--input", str(data), "--family", "mcp",
               "--output-model", str(model), "--output-path", str(path_csv)])
    assert rc == 0
    return tmp, data, model, path_csv, beta_true


def test_fit_model_json_contents(fit_run):
    _, _, model, _, beta_true = fit_run
    doc = json.loads(model.read_text())
    assert doc["family"] == "mcp"
    assert doc["theta_max"] > 0
    assert 1 <= doc["selected_index"] <= 101
    assert len(doc["beta_original_scale"]) == 15
    assert doc["df"] == len(doc["selected_covariates"])
    assert set(doc["selected_covariates"]) <= {f"z{j}" for j in range(1, 16)}
    base = doc["baseline"]
    assert len(base["lower"]) == len(base["upper"]) == len(base["lambda_original_scale"])
    assert doc["standardization"] is not None
    assert isinstance(doc["converged"], bool)
    assert isinstance(doc["degenerate"], bool)
    assert all(isinstance(c, bool) for c in doc["standardization"]["constant"])
    # strong planted signal at this scale: most of z1..z6 recovered
    hits = sum(1 for k in (f"z{j}" for j in range(1, 7)) if k in doc["selected_covariates"])
    assert hits >= 4


def test_fit_path_csv_contents(fit_run):
    _, _, _, path_csv, _ = fit_run
    rows = read_rows(path_csv)
    assert rows[0] == ["index", "theta", "df", "loglik", "gic", "iterations",
                      "converged", "selected"]
    assert len(rows) == 102
    assert rows[1][2] == "0"
    thetas = [float(r[1]) for r in rows[1:]]
    assert all(a > b for a, b in zip(thetas, thetas[1:]))
    assert sum(int(r[7]) for r in rows[1:]) == 1


def test_fit_floats_roundtrip_17_digits(fit_run):
    _, _, model, path_csv, _ = fit_run
    doc = json.loads(model.read_text())
    rows = read_rows(path_csv)
    sel = doc["selected_index"]
    assert float(rows[sel][4]) == doc["gic"]


def test_path_command_writes_table_only(tmp_path):
    data = tmp_path / "data.csv"
    write_signal_csv(data, seed=1)
    out = tmp_path / "path.csv"
    rc = main(["path", "--input", str(data), "--family", "lasso",
               "--output-path", str(out)])
    assert rc == 0
    assert out.exists()
    assert len(read_rows(out)) == 102


def test_fit_truncation_all_zeros_matches_untruncated(tmp_path):
    plain = tmp_path / "plain.csv"
    write_signal_csv(plain, seed=2)
    ds, _ = signal_dataset(seed=2)
    trunc_file = tmp_path / "trunc.csv"
    with open(plain) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    out_rows = [header[:2] + ["trunc"] + header[2:]]
    for r in rows[1:]:
        out_rows.append(r[:2] + ["0"] + r[2:])
    with open(trunc_file, "w", newline="") as fh:
        csv.writer(fh).writerows(out_rows)

    arts = {}
    for tag, (f, flags) in {
        "plain": (plain, []),
        "trunc": (trunc_file, ["--truncation"]),
    }.items():
        model = tmp_path / f"model_{tag}.json"
        pcsv = tmp_path / f"path_{tag}.csv"
        rc = main(["fit", "--input", str(f), "--family", "scad", *flags,
                   "--output-model", str(model), "--output-path", str(pcsv)])
        assert rc == 0
        arts[tag] = (model.read_text(), pcsv.read_text())
    assert arts["plain"] == arts["trunc"]


def test_fit_family_dash_alias(tmp_path):
    data = tmp_path / "data.csv"
    write_signal_csv(data, seed=3)
    model = tmp_path / "model.json"
    rc = main(["fit", "--input", str(data), "--family", "adaptive-lasso",
               "--output-model", str(model),
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 0
    assert json.loads(model.read_text())["family"] == "adaptive_lasso"


def test_fit_unpenalized_covariate_kept(tmp_path):
    data = tmp_path / "data.csv"
    write_signal_csv(data, seed=4)
    model = tmp_path / "model.json"
    rc = main(["fit", "--input", str(data), "--family", "mcp",
               "--unpenalized", "z1",
               "--output-model", str(model),
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 0
    doc = json.loads(model.read_text())
    # the unpenalized coordinate is always in the active model and is shown
    # with its coefficient, but it never counts toward df
    assert doc["beta_original_scale"][0] != 0.0
    assert doc["selected_covariates"]["z1"] == doc["beta_original_scale"][0]
    assert doc["df"] <= len(doc["selected_covariates"]) - 1


def test_penalty_factor_file_matches_unpenalized_flag(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_signal_csv(data, seed=4, n=80, p=6)
    factors = tmp_path / "factors.csv"
    factors.write_text("0,1,1,1,1,1\n")
    runs = {"file": ["--penalty-factors", str(factors)], "flag": ["--unpenalized", "z1"]}
    for tag, flags in runs.items():
        rc = main(["path", "--input", str(data), "--family", "lasso", *flags,
                   "--output-path", str(tmp_path / f"path_{tag}.csv")])
        assert rc == 0
    assert (tmp_path / "path_file.csv").read_bytes() == (tmp_path / "path_flag.csv").read_bytes()
    # the fitter reads only zero versus nonzero, so other weights are rejected
    factors.write_text("0,1,2,1,1,1\n")
    rc = main(["path", "--input", str(data), "--family", "lasso",
               "--penalty-factors", str(factors), "--output-path", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "penalty factors must be 0 (unpenalized) or 1 (penalized)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# metrics and impute commands


def test_metrics_command_report(tmp_path):
    est = tmp_path / "est.csv"
    est.write_text("b1,b2,b3\n1.0,0.0,0.5\n0.8,0.1,0.0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("b1,b2,b3\n1.0,0.0,0.0\n")
    out = tmp_path / "report.csv"
    rc = main(["metrics", "--estimates", str(est), "--truth", str(truth),
               "--output", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["row", "l1_error", "l2_error", "fp", "fn"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "mean", "se"]
    assert float(rows[1][1]) == pytest.approx(0.5)
    assert float(rows[2][1]) == pytest.approx(0.3)
    assert float(rows[3][1]) == pytest.approx(0.4)


def test_metrics_column_mismatch_is_validation_error(tmp_path):
    est = tmp_path / "est.csv"
    est.write_text("b1,b2\n1.0,0.0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("b1,b2,b3\n1.0,0.0,0.0\n")
    rc = main(["metrics", "--estimates", str(est), "--truth", str(truth),
               "--output", str(tmp_path / "r.csv")])
    assert rc == 3


def test_impute_genotype_mode_deterministic(tmp_path):
    src = tmp_path / "geno.csv"
    src.write_text("s1,s2\n0,2\n1,\n,0\n2,1\n")
    out1 = tmp_path / "fill1.csv"
    out2 = tmp_path / "fill2.csv"
    for out in (out1, out2):
        rc = main(["impute", "--mode", "genotype", "--input", str(src),
                   "--output", str(out), "--seed", "9"])
        assert rc == 0
    assert out1.read_text() == out2.read_text()
    rc = main(["impute", "--mode", "genotype", "--input", str(src),
               "--output", str(tmp_path / "fill3.csv")])
    assert rc == 3
    mat, header = read_matrix_csv(str(out1))
    assert header == ["s1", "s2"]
    assert not np.isnan(mat).any()
    assert mat[0, 0] == 0.0 and mat[3, 1] == 1.0


def test_impute_midpoint_mode(tmp_path):
    src = tmp_path / "data.csv"
    src.write_text("left,right,z1\n1.0,3.0,0.5\n2.2,inf,1.0\n0.0,0.15,0.0\n")
    out = tmp_path / "mid.csv"
    rc = main(["impute", "--mode", "midpoint", "--input", str(src),
               "--output", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["time", "event", "z1"]
    assert [r[:2] for r in rows[1:]] == [["2", "1"], ["2.2000000000000002", "0"],
                                         ["0.074999999999999997", "1"]]


# ---------------------------------------------------------------------------
# simulation campaigns


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("campaign")
    out = tmp / "run1"
    rc = main(["simulate", "--preset", "t1-small", "--n", "120", "--p", "40",
               "--replicates", "3", "--seed", "11", "--fit", "mcp,lasso",
               "--threads", "2", "--emit-data", "--midpoint", "--output-dir", str(out)])
    assert rc == 0
    return out


def test_campaign_summary_has_method_rows(campaign):
    rows = read_rows(campaign / "summary.csv")
    assert rows[0][0] == "family"
    methods = [r[0] for r in rows[1:]]
    assert methods == ["mcp", "lasso"]
    header = rows[0]
    for col in ("l1_mean", "l2_mean", "fp_mean", "fn_mean"):
        assert col in header


def test_campaign_censoring_rates_in_band(campaign):
    rows = read_rows(campaign / "censoring.csv")
    assert rows[0] == ["replicate", "right_censored_rate", "left_censored_rate"]
    rates = [float(r[1]) for r in rows[1:]]
    assert len(rates) == 3
    assert 0.11 <= float(np.mean(rates)) <= 0.40


def test_campaign_estimates_matrix_shape(campaign):
    rows = read_rows(campaign / "estimates_mcp.csv")
    assert rows[0] == [f"z{j}" for j in range(1, 7)]
    assert len(rows) == 4
    assert all(len(r) == 6 for r in rows[1:])


def test_campaign_emits_data_and_midpoint_files(campaign):
    for r in range(3):
        assert (campaign / f"data_rep{r:04d}.csv").exists()
        assert (campaign / f"midpoint_rep{r:04d}.csv").exists()
    back, names = read_dataset_csv(str(campaign / "data_rep0000.csv"))
    assert back.n == 120 and back.p == 40


def test_campaign_manifest_records_scenario(campaign):
    doc = json.loads((campaign / "manifest.json").read_text())
    scen = doc["scenario"]
    assert scen["n"] == 120 and scen["p"] == 40
    assert scen["replicates"] == 3 and scen["seed"] == 11
    assert doc["families"] == ["mcp", "lasso"]


def test_campaign_rerun_is_byte_identical(campaign, tmp_path):
    # the fixture ran on two workers, this rerun on one
    out2 = tmp_path / "run2"
    rc = main(["simulate", "--preset", "t1-small", "--n", "120", "--p", "40",
               "--replicates", "3", "--seed", "11", "--fit", "mcp,lasso",
               "--threads", "1", "--emit-data", "--midpoint", "--output-dir", str(out2)])
    assert rc == 0
    for name in ("summary.csv", "replicates.csv", "censoring.csv",
                 "estimates_mcp.csv", "estimates_lasso.csv",
                 "data_rep0000.csv", "midpoint_rep0002.csv", "manifest.json"):
        assert (campaign / name).read_bytes() == (out2 / name).read_bytes(), name


def test_full_scale_single_replicate_mcp_recovery(tmp_path):
    """One replicate at n = 500, p = 3000 fit end to end through the CLI:
    the selected MCP model matches the six planted SNPs with FP + FN <= 2."""
    from icsel.simulate import scenario_from_preset

    cfg = scenario_from_preset("t1", replicates=1, seed=2024)
    ds, beta_true, _ = make_replicate(cfg, replicate_seeds(cfg)[0])
    data = tmp_path / "data.csv"
    write_dataset_csv(str(data), ds)
    model = tmp_path / "model.json"
    rc = main(["fit", "--input", str(data), "--family", "mcp",
               "--output-model", str(model),
               "--output-path", str(tmp_path / "p.csv")])
    assert rc == 0
    doc = json.loads(model.read_text())
    sel = set(doc["selected_covariates"])
    true = {f"z{j}" for j in range(1, 7)}
    assert len(sel - true) + len(true - sel) <= 2


def test_campaign_different_seed_differs(campaign, tmp_path):
    out2 = tmp_path / "run3"
    rc = main(["simulate", "--preset", "t1-small", "--n", "120", "--p", "40",
               "--replicates", "3", "--seed", "12", "--fit", "mcp",
               "--output-dir", str(out2)])
    assert rc == 0
    assert (campaign / "summary.csv").read_text() != (out2 / "summary.csv").read_text()


def test_perfbench_traced_cli_functions_exist():
    """Every icsel.cli function the benchmark traces by name is still defined."""
    spans_py = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_py)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = [attr for _, module, attr in spans.SPANS if module == "icsel.cli"]
    assert traced
    for attr in traced:
        assert inspect.isfunction(getattr(cli, attr, None)), attr
