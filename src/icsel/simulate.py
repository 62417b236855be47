"""SNP-style simulation harness: genotypes, event times, inspection schedules.

Genotype columns are minor-allele counts trichotomized from a latent Gaussian
with AR(1) cross-column correlation rho^{|i-j|}, cut so the marginal genotype
frequencies satisfy Hardy-Weinberg equilibrium at a MAF drawn uniformly from
(0.05, 0.20). Event times follow a Weibull-baseline proportional-hazards model
Lambda(t | Z) = (eta t)^kappa e^{beta'Z}; each subject is inspected six times
with gaps U(0.1, (2+t)/10), and the event time is recorded only through the
bracketing inspection interval.

All randomness flows from one integer seed: a SeedSequence is spawned into one
child substream per replicate, so replicates are reproducible regardless of
worker scheduling. Within a replicate the draw order is fixed: MAF, latent
normals (column by column), event exponentials, inspection gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .data import Dataset

BETA6 = np.array([-1.40, -0.83, -1.64, 0.69, 1.39, 1.65])
BETA12 = np.concatenate([BETA6, [-0.52, 0.86, -1.23, 1.18, -1.97, -1.68]])
BETA6.setflags(write=False)
BETA12.setflags(write=False)

_BETA_BY_NAME = {"b6": BETA6, "b12": BETA12}


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario; `beta` names a preset vector ('b6' or 'b12')."""

    n: int
    p: int
    rho: float
    beta: str = "b6"
    replicates: int = 200
    seed: int = 0
    weibull_eta: float = 1.2
    weibull_kappa: float = 1.5
    maf_low: float = 0.05
    maf_high: float = 0.20
    num_inspections: int = 6

    def beta_true(self) -> np.ndarray:
        """True coefficient vector: the preset at the leading coordinates."""
        head = _BETA_BY_NAME[self.beta]
        if self.p < head.size:
            raise ValueError("p is smaller than the preset signal length")
        out = np.zeros(self.p)
        out[: head.size] = head
        return out


# Four table scenarios: (signal vector) x (LD strength), defaults n=500 p=3000.
# The -small variants match the reduced acceptance scale.
PRESETS: dict[str, dict] = {
    "t1": dict(n=500, p=3000, rho=0.0, beta="b6", replicates=200),
    "t2": dict(n=500, p=3000, rho=0.8, beta="b6", replicates=200),
    "t3": dict(n=500, p=3000, rho=0.0, beta="b12", replicates=200),
    "t4": dict(n=500, p=3000, rho=0.8, beta="b12", replicates=200),
    "t1-small": dict(n=400, p=800, rho=0.0, beta="b6", replicates=30),
    "t2-small": dict(n=400, p=800, rho=0.8, beta="b6", replicates=30),
    "t3-small": dict(n=400, p=800, rho=0.0, beta="b12", replicates=30),
    "t4-small": dict(n=400, p=800, rho=0.8, beta="b12", replicates=30),
}


def scenario_from_preset(name: str, **overrides) -> ScenarioConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    params = dict(PRESETS[name])
    params.update(overrides)
    return ScenarioConfig(**params)


def hwe_cutoffs(maf):
    """Latent cutoffs Phi^{-1}((1-q)^2) and Phi^{-1}(1-q^2) for MAF q."""
    q = np.asarray(maf, dtype=float)
    return ndtri((1.0 - q) ** 2), ndtri(1.0 - q * q)


def gen_latent(n: int, p: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Latent Gaussians with cov rho^{|i-j|} via the sequential AR(1) recursion."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    eps = rng.standard_normal((n, p))
    if rho == 0.0:
        return eps
    X = np.empty((n, p))
    X[:, 0] = eps[:, 0]
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + scale * eps[:, j]
    return X


def gen_snps(
    n: int,
    p: int,
    rho: float,
    rng: np.random.Generator,
    maf_low: float = 0.05,
    maf_high: float = 0.20,
) -> tuple[np.ndarray, np.ndarray]:
    """Minor-allele count matrix (entries 0/1/2) and the per-column MAF."""
    maf = rng.uniform(maf_low, maf_high, size=p)
    X = gen_latent(n, p, rho, rng)
    c1, c2 = hwe_cutoffs(maf)
    counts = (X > c1).astype(float) + (X > c2)
    return counts, maf


def event_time_from_exponential(E, xb, eta: float, kappa: float):
    """Invert Lambda(t | Z) = (eta t)^kappa e^{xb} at a unit exponential draw."""
    return (np.asarray(E) * np.exp(-np.asarray(xb))) ** (1.0 / kappa) / eta


def gen_event_times(
    Z: np.ndarray, beta: np.ndarray, eta: float, kappa: float, rng: np.random.Generator
) -> np.ndarray:
    xb = Z @ beta
    E = rng.exponential(size=Z.shape[0])
    return event_time_from_exponential(E, xb, eta, kappa)


def gen_inspections(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Inspection times V_t = V_{t-1} + U(0.1, (2+t)/10), V_0 = 0, t = 1..6."""
    upper = (2.0 + np.arange(1, 7)) / 10.0
    size = (1, 6) if n is None else (n, 6)
    gaps = rng.uniform(0.1, upper, size=size)
    times = np.cumsum(gaps, axis=1)
    return times[0] if n is None else times


def censor_all(T: np.ndarray, inspections: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bracket each event time by its subject's inspection schedule.

    Below the first inspection L = 0; above the last R = inf. Ties T == V_t
    land in the interval with R = V_t, so T <= R always.
    """
    n = inspections.shape[0]
    # inspections before T; bounds[i, idx] and bounds[i, idx + 1] bracket T
    idx = (inspections < T[:, None]).sum(1)
    bounds = np.column_stack([np.zeros(n), inspections, np.full(n, math.inf)])
    rows = np.arange(n)
    return bounds[rows, idx], bounds[rows, idx + 1]


def make_replicate(
    config: ScenarioConfig, seed_seq: np.random.SeedSequence
) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Generate one replicate: (dataset, true beta, MAF vector)."""
    rng = np.random.default_rng(seed_seq)
    Z, maf = gen_snps(
        config.n, config.p, config.rho, rng, config.maf_low, config.maf_high
    )
    beta_true = config.beta_true()
    T = gen_event_times(Z, beta_true, config.weibull_eta, config.weibull_kappa, rng)
    V = gen_inspections(rng, n=config.n)
    L, R = censor_all(T, V)
    dataset = Dataset(left=L, right=R, covariates=Z)
    return dataset, beta_true, maf


def replicate_seeds(config: ScenarioConfig) -> list[np.random.SeedSequence]:
    """One spawned child substream per replicate."""
    return np.random.SeedSequence(config.seed).spawn(config.replicates)


def midpoint_impute(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Collapse intervals to (time, event) pairs for right-censored-data fitters.

    Interval-censored subjects get the interval midpoint with an event flag;
    right-censored subjects keep their last inspection time L, censored.
    """
    ic = np.isfinite(dataset.right)
    time = np.where(ic, 0.5 * (dataset.left + dataset.right), dataset.left)
    event = ic.astype(int)
    return time, event


def impute_genotypes(X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill missing (NaN) genotype counts with Binomial(2, MAF-hat) draws.

    MAF-hat is the observed mean count / 2 per column; observed entries are
    untouched. Columns with no observed entries fall back to MAF-hat = 0.
    """
    X = np.array(X, dtype=float, copy=True)
    for j in range(X.shape[1]):
        col = X[:, j]
        missing = np.isnan(col)
        if not missing.any():
            continue
        observed = col[~missing]
        maf_hat = float(observed.mean() / 2.0) if observed.size else 0.0
        maf_hat = min(max(maf_hat, 0.0), 1.0)
        col[missing] = rng.binomial(2, maf_hat, size=int(missing.sum()))
    return X


def censoring_stats(config: ScenarioConfig) -> np.ndarray:
    """Right-censoring fraction per replicate (generation only, no fitting)."""
    rates = np.empty(config.replicates)
    for r, seq in enumerate(replicate_seeds(config)):
        dataset, _, _ = make_replicate(config, seq)
        rates[r] = float(np.mean(~np.isfinite(dataset.right)))
    return rates
