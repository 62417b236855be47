"""Scenario presets, SNP generation, event times, inspections, censoring."""

import math

import numpy as np
import pytest
from scipy import stats

from icsel.simulate import (
    BETA6,
    BETA12,
    PRESETS,
    ScenarioConfig,
    censor_all,
    censoring_stats,
    event_time_from_exponential,
    gen_event_times,
    gen_inspections,
    gen_latent,
    gen_snps,
    hwe_cutoffs,
    impute_genotypes,
    make_replicate,
    midpoint_impute,
    replicate_seeds,
    scenario_from_preset,
)
from icsel import Dataset


# ---------------------------------------------------------------------------
# presets


def test_signal_vectors_frozen():
    assert BETA6.tolist() == [-1.40, -0.83, -1.64, 0.69, 1.39, 1.65]
    assert BETA12.tolist() == [-1.40, -0.83, -1.64, 0.69, 1.39, 1.65,
                               -0.52, 0.86, -1.23, 1.18, -1.97, -1.68]


def test_preset_table():
    assert set(PRESETS) >= {"t1", "t2", "t3", "t4"}
    assert PRESETS["t1"] == dict(n=500, p=3000, rho=0.0, beta="b6", replicates=200)
    assert PRESETS["t2"]["rho"] == 0.8 and PRESETS["t2"]["beta"] == "b6"
    assert PRESETS["t3"]["rho"] == 0.0 and PRESETS["t3"]["beta"] == "b12"
    assert PRESETS["t4"]["rho"] == 0.8 and PRESETS["t4"]["beta"] == "b12"
    for name in ("t1", "t2", "t3", "t4"):
        small = PRESETS[name + "-small"]
        assert (small["n"], small["p"], small["replicates"]) == (400, 800, 30)
        assert small["rho"] == PRESETS[name]["rho"]
        assert small["beta"] == PRESETS[name]["beta"]


def test_scenario_defaults_and_overrides():
    cfg = scenario_from_preset("t1", replicates=7, seed=42)
    assert (cfg.weibull_eta, cfg.weibull_kappa) == (1.2, 1.5)
    assert (cfg.maf_low, cfg.maf_high) == (0.05, 0.20)
    assert cfg.num_inspections == 6
    assert cfg.replicates == 7 and cfg.seed == 42
    with pytest.raises(ValueError):
        scenario_from_preset("t9")


def test_beta_true_padding():
    cfg = ScenarioConfig(n=10, p=20, rho=0.0, beta="b6")
    full = cfg.beta_true()
    assert full.shape == (20,)
    assert np.array_equal(full[:6], BETA6)
    assert np.all(full[6:] == 0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n=10, p=4, rho=0.0, beta="b6").beta_true()


# ---------------------------------------------------------------------------
# SNP generation


def test_hwe_cutoffs_frozen():
    """q = 0.2: Phi^{-1}(0.64) = 0.3584587932511938 and
    Phi^{-1}(0.96) = 1.7506860712521692."""
    c1, c2 = hwe_cutoffs(0.2)
    assert c1 == pytest.approx(0.3584587932511938, rel=1e-14)
    assert c2 == pytest.approx(1.7506860712521692, rel=1e-14)


def test_genotype_frequencies_match_hwe():
    """q = 0.2 targets (0.64, 0.32, 0.04); empirical within 0.01 at n = 1e5."""
    rng = np.random.default_rng(0)
    X, maf = gen_snps(100000, 2, 0.0, rng, 0.2, 0.2)
    assert np.all(maf == 0.2)
    for j in range(2):
        freq = np.bincount(X[:, j].astype(int), minlength=3) / 100000
        assert freq == pytest.approx([0.64, 0.32, 0.04], abs=0.01)


def test_genotype_values_are_counts():
    rng = np.random.default_rng(1)
    X, maf = gen_snps(500, 10, 0.8, rng, 0.05, 0.20)
    assert set(np.unique(X)) <= {0.0, 1.0, 2.0}
    assert np.all((maf >= 0.05) & (maf <= 0.20))


def test_latent_independent_when_rho_zero():
    rng = np.random.default_rng(2)
    X = gen_latent(4000, 5, 0.0, rng)
    corr = np.corrcoef(X, rowvar=False)
    off = corr[~np.eye(5, dtype=bool)]
    assert np.max(np.abs(off)) < 4.0 / math.sqrt(4000)


def test_latent_ar1_correlation_decay():
    rng = np.random.default_rng(3)
    X = gen_latent(20000, 6, 0.8, rng)
    corr = np.corrcoef(X, rowvar=False)
    for lag in (1, 2, 3):
        emp = np.mean([corr[j, j + lag] for j in range(6 - lag)])
        assert emp == pytest.approx(0.8**lag, abs=0.03)


def test_latent_rejects_bad_rho():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        gen_latent(10, 3, 1.0, rng)
    with pytest.raises(ValueError):
        gen_latent(10, 3, -0.1, rng)


# ---------------------------------------------------------------------------
# event times


def test_event_time_unit_draw():
    """E = 1, xb = 0: T = 1^{1/kappa}/eta = 1/1.2 = 0.8333333333333334."""
    T = event_time_from_exponential(np.array([1.0]), np.array([0.0]), 1.2, 1.5)
    assert T[0] == pytest.approx(0.8333333333333334, rel=1e-15)


def test_event_time_monotone_in_linear_predictor():
    E = np.ones(5)
    xb = np.linspace(-2, 2, 5)
    T = event_time_from_exponential(E, xb, 1.2, 1.5)
    assert np.all(np.diff(T) < 0)


def test_event_time_probability_integral_transform():
    """(eta T)^kappa with xb = 0 is Exponential(1): KS p-value > 0.01 at 1e5."""
    rng = np.random.default_rng(5)
    Z = np.zeros((100000, 1))
    T = gen_event_times(Z, np.zeros(1), 1.2, 1.5, rng)
    U = (1.2 * T) ** 1.5
    p = stats.kstest(U, "expon").pvalue
    assert p > 0.01


# ---------------------------------------------------------------------------
# inspections and censoring


def test_inspection_envelopes_and_gaps():
    rng = np.random.default_rng(6)
    V = gen_inspections(rng, n=100000)
    assert V.shape == (100000, 6)
    gaps = np.diff(np.concatenate([np.zeros((100000, 1)), V], axis=1), axis=1)
    upper = (2.0 + np.arange(1, 7)) / 10.0
    assert np.all(gaps > 0.1)
    assert np.all(gaps < upper)
    assert np.all(V[:, 5] > 0.6)
    assert np.all(V[:, 5] < 3.3)


V_ONE = np.array([[0.15, 0.4, 0.7, 1.1, 1.6, 2.2]])


def test_censor_below_first_inspection():
    L, R = censor_all(np.array([0.05]), V_ONE)
    assert (L[0], R[0]) == (0.0, 0.15)


def test_censor_above_last_inspection():
    L, R = censor_all(np.array([2.5]), V_ONE)
    assert L[0] == 2.2 and math.isinf(R[0])


def test_censor_tie_lands_left_of_inspection():
    L, R = censor_all(np.array([0.4]), V_ONE)
    assert (L[0], R[0]) == (0.15, 0.4)


def test_censor_always_brackets():
    rng = np.random.default_rng(7)
    V = gen_inspections(rng, n=300)
    T = rng.uniform(0.0, 3.5, size=300)
    T[:50] = V[np.arange(50), rng.integers(0, V.shape[1], size=50)]  # ties
    L, R = censor_all(T, V)
    assert np.all(L < T + 1e-15)
    assert np.all(T <= R)
    ic = np.isfinite(R)
    assert np.all(L[ic] < R[ic])
    # per-subject reference: the first inspection at or after T closes the interval
    for i in range(300):
        idx = int(np.searchsorted(V[i], T[i], side="left"))
        assert L[i] == (0.0 if idx == 0 else V[i, idx - 1])
        assert R[i] == (V[i, idx] if idx < V.shape[1] else math.inf)


def test_mean_censoring_rate_in_reported_band():
    """beta6 at n = 500: mean right-censoring over 50 replicates within
    [0.15, 0.40]."""
    cfg = scenario_from_preset("t1", replicates=50, seed=123, p=10)
    rates = censoring_stats(cfg)
    assert rates.shape == (50,)
    assert 0.15 <= float(rates.mean()) <= 0.40


# ---------------------------------------------------------------------------
# imputation helpers


def test_midpoint_impute_examples():
    ds = Dataset(left=[1.0, 2.2, 0.0], right=[3.0, math.inf, 0.15],
                 covariates=np.zeros((3, 1)))
    time, event = midpoint_impute(ds)
    assert time.tolist() == [2.0, 2.2, 0.075]
    assert event.tolist() == [1, 0, 1]


def test_impute_genotypes_fills_missing_only():
    rng = np.random.default_rng(8)
    X = np.array([[0.0, 2.0], [1.0, np.nan], [np.nan, 0.0], [2.0, 1.0]])
    out = impute_genotypes(X, rng)
    assert not np.isnan(out).any()
    assert out[0, 0] == 0.0 and out[3, 1] == 1.0
    assert out[2, 0] in (0.0, 1.0, 2.0)


def test_impute_genotypes_binomial_rate():
    rng = np.random.default_rng(9)
    col = np.full(30000, np.nan)
    col[:10000] = rng.binomial(2, 0.15, size=10000).astype(float)
    X = impute_genotypes(col[:, None], rng)
    maf_hat = col[:10000].mean() / 2.0
    filled = X[10000:, 0]
    assert filled.mean() / 2.0 == pytest.approx(maf_hat, abs=0.01)


# ---------------------------------------------------------------------------
# replicate plumbing


def test_make_replicate_deterministic():
    cfg = ScenarioConfig(n=60, p=25, rho=0.8, beta="b6", replicates=3, seed=77)
    seqs = replicate_seeds(cfg)
    assert len(seqs) == 3
    a, beta_a, maf_a = make_replicate(cfg, np.random.SeedSequence(77).spawn(3)[0])
    b, beta_b, maf_b = make_replicate(cfg, replicate_seeds(cfg)[0])
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.right, b.right)
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(maf_a, maf_b)
    assert np.array_equal(beta_a, cfg.beta_true())


def test_make_replicate_substreams_differ():
    cfg = ScenarioConfig(n=60, p=25, rho=0.0, beta="b6", replicates=2, seed=77)
    seqs = replicate_seeds(cfg)
    a, _, _ = make_replicate(cfg, seqs[0])
    b, _, _ = make_replicate(cfg, seqs[1])
    assert not np.array_equal(a.covariates, b.covariates)


def test_make_replicate_dataset_shape():
    cfg = ScenarioConfig(n=40, p=12, rho=0.0, beta="b6", replicates=1, seed=5)
    ds, beta_true, maf = make_replicate(cfg, replicate_seeds(cfg)[0])
    assert ds.n == 40 and ds.p == 12
    assert beta_true.shape == (12,) and maf.shape == (12,)
    assert np.all(ds.left < np.where(np.isfinite(ds.right), ds.right, np.inf))
