"""Golden regression fixture: path selections pinned before kernel changes.

Three datasets are fitted with all four families by `fit_families` on one
EMWorkspace, the way the campaign worker does it (the lasso path reused as the
adaptive-lasso pilot). For every family the fixture pins the selected index and the df column
exactly, the GIC column to 1e-8 relative and the selected beta to 1e-6.

Regenerate (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from icsel import Dataset, standardize
from icsel.em import EMWorkspace
from icsel.path import fit_families
from icsel.simulate import make_replicate, replicate_seeds, scenario_from_preset

FIXTURE = Path(__file__).with_name("golden.json")
FAMILIES = ("lasso", "adaptive_lasso", "scad", "mcp")


def criterion2_dataset() -> Dataset:
    """The criterion-2 path-invariant dataset: n=150, p=25, rng 107."""
    rng = np.random.default_rng(107)
    n, p = 150, 25
    beta_true = np.zeros(p)
    beta_true[[2, 9, 17]] = [1.3, -1.4, 1.1]
    Z = rng.normal(size=(n, p))
    T = (rng.exponential(size=n) * np.exp(-(Z @ beta_true))) ** (1.0 / 1.5) / 1.2
    V = np.cumsum(rng.uniform(0.1, np.tile((np.arange(6) + 3) / 10.0, (n, 1))), axis=1)
    idx = np.array([np.searchsorted(V[i], T[i]) for i in range(n)])
    lo = np.where(idx == 0, 0.0, V[np.arange(n), np.maximum(idx - 1, 0)])
    hi = np.where(idx >= 6, math.inf, V[np.arange(n), np.minimum(idx, 5)])
    return Dataset(left=lo, right=hi, covariates=Z)


def t1_small_dataset() -> Dataset:
    """Replicate 0 of the t1-small preset at seed 2024 (n=400, p=800)."""
    scenario = scenario_from_preset("t1-small", seed=2024, replicates=1)
    dataset, _, _ = make_replicate(scenario, replicate_seeds(scenario)[0])
    return dataset


def truncated_dataset() -> Dataset:
    """n=2000, p=100 SNP data with delayed entry for half the subjects.

    Visits lie on a 0.001 grid and every subject is event-free at the first
    visit, so no subject has left = 0.
    """
    rng = np.random.default_rng(2025)
    n, p = 2000, 100
    beta_true = np.zeros(p)
    beta_true[:6] = [-1.40, -0.83, -1.64, 0.69, 1.39, 1.65]
    Z = rng.binomial(2, rng.uniform(0.05, 0.20, size=p), size=(2 * n, p)).astype(float)
    T = (rng.exponential(size=2 * n) * np.exp(-(Z @ beta_true))) ** (1.0 / 1.5) / 1.2
    upper = (2.0 + np.arange(1, 7)) / 10.0
    V = np.round(np.cumsum(rng.uniform(0.1, upper, size=(2 * n, 6)), axis=1), 3)
    keep = np.flatnonzero(T > V[:, 0])[:n]
    Z, T, V = Z[keep], T[keep], V[keep]
    idx = (V < T[:, None]).sum(axis=1)
    rows = np.arange(n)
    left = V[rows, idx - 1]
    right = np.where(idx == 6, math.inf, V[rows, np.minimum(idx, 5)])
    entry = np.floor(rng.random(n) * left * 1000.0) / 1000.0
    trunc = np.where(rng.random(n) < 0.5, entry, 0.0)
    return Dataset(left=left, right=right, covariates=Z, truncation=trunc)


DATASETS = {
    "criterion2": criterion2_dataset,
    "t1_small": t1_small_dataset,
    "truncated": truncated_dataset,
}


def summarize_paths(dataset: Dataset) -> dict:
    std, _ = standardize(dataset)
    out = {}
    for family, res in fit_families(EMWorkspace(std), FAMILIES).items():
        beta = res.selected_state.beta
        nz = np.flatnonzero(beta)
        out[family] = {
            "selected": int(res.selected),
            "df": [int(v) for v in res.df],
            "gic": [float(v) for v in res.gic],
            "beta_index": [int(j) for j in nz],
            "beta_value": [float(beta[j]) for j in nz],
        }
    return out


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_golden_paths(golden, name):
    dataset = DATASETS[name]()
    got = summarize_paths(dataset)
    for family in FAMILIES:
        want, have = golden[name][family], got[family]
        assert have["selected"] == want["selected"], family
        assert have["df"] == want["df"], family
        np.testing.assert_allclose(have["gic"], want["gic"], rtol=1e-8, atol=0, err_msg=family)
        p = dataset.p
        b_want = np.zeros(p)
        b_want[want["beta_index"]] = want["beta_value"]
        b_have = np.zeros(p)
        b_have[have["beta_index"]] = have["beta_value"]
        np.testing.assert_allclose(b_have, b_want, rtol=0, atol=1e-6, err_msg=family)


if __name__ == "__main__":
    table = {name: summarize_paths(make()) for name, make in DATASETS.items()}
    with open(FIXTURE, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
