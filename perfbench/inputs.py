"""Seeded input generation for the benchmark workloads.

The generator is written here, apart from ``icsel.simulate``, so a change to
the program's simulator cannot change what the fit workloads are measured on.
Genotypes are Binomial(2, q) minor-allele counts (Hardy-Weinberg equilibrium,
independent loci) with q ~ U(0.05, 0.20); event times follow the Weibull
proportional-hazards model Lambda(t | Z) = (eta t)^kappa exp(beta'Z); each
subject is inspected six times with gaps U(0.1, (2 + t)/10) and the event is
known only up to the bracketing inspection interval.
"""

from __future__ import annotations

import numpy as np

# the paper's six nonzero effects, placed on the leading covariates z1..z6
BETA6 = (-1.40, -0.83, -1.64, 0.69, 1.39, 1.65)
WEIBULL_ETA = 1.2
WEIBULL_KAPPA = 1.5
NUM_INSPECTIONS = 6

# input k of a run with seed s is drawn from default_rng([key, s, k])
FIT_SHAPES = {
    "fit-wide": dict(key=1, n=300, p=600, truncation=False),
    # inspection times on a 0.001 grid, no subject with an event before its
    # first visit, and about half the subjects entering late
    "fit-tall": dict(key=2, n=20000, p=100, truncation=True),
}
TALL_GRID = 1e-3
TALL_LATE_ENTRY_SHARE = 0.5


def true_beta(p: int) -> np.ndarray:
    beta = np.zeros(p)
    beta[: len(BETA6)] = BETA6
    return beta


def snp_dataset(
    n: int,
    p: int,
    rng: np.random.Generator,
    grid: float | None = None,
    event_free_at_first_visit: bool = False,
):
    """(left, right, Z) for one interval-censored SNP replicate.

    With ``grid`` set, inspection times are rounded to multiples of it, as
    visit dates recorded to a fixed resolution are; the 0.1 minimum gap keeps
    every interval nonempty after rounding. With ``event_free_at_first_visit``
    only subjects whose event comes after their first inspection are enrolled,
    so no subject has left = 0.
    """
    maf = rng.uniform(0.05, 0.20, size=p)
    upper = (2.0 + np.arange(1, NUM_INSPECTIONS + 1)) / 10.0
    parts = []
    kept = 0
    while kept < n:
        Z = rng.binomial(2, maf, size=(n, p)).astype(float)
        xb = Z @ true_beta(p)
        T = (rng.exponential(size=n) * np.exp(-xb)) ** (1.0 / WEIBULL_KAPPA) / WEIBULL_ETA
        V = np.cumsum(rng.uniform(0.1, upper, size=(n, NUM_INSPECTIONS)), axis=1)
        if grid is not None:
            V = np.round(V / grid) * grid
        keep = T > V[:, 0] if event_free_at_first_visit else slice(None)
        parts.append((Z[keep], T[keep], V[keep]))
        kept += parts[-1][1].size
    Z, T, V = (np.concatenate(a)[:n] for a in zip(*parts))
    idx = (V < T[:, None]).sum(axis=1)  # inspections strictly before T
    rows = np.arange(n)
    left = np.where(idx == 0, 0.0, V[rows, np.maximum(idx - 1, 0)])
    right = np.where(idx == NUM_INSPECTIONS, np.inf, V[rows, np.minimum(idx, NUM_INSPECTIONS - 1)])
    return left, right, Z


def delayed_entry(left: np.ndarray, rng: np.random.Generator, share: float, grid: float):
    """Entry times for a random ``share`` of subjects, uniform on [0, left) rounded down to the grid."""
    pick = rng.random(left.size) < share
    trunc = np.floor(rng.random(left.size) * left / grid) * grid
    return np.where(pick, trunc, 0.0)


def write_csv(path, left, right, Z, trunc=None) -> None:
    """Dataset CSV in the program's input format; genotypes as integers."""
    p = Z.shape[1]
    cols = [left, right] + ([trunc] if trunc is not None else [])
    head = ["left", "right"] + (["trunc"] if trunc is not None else [])
    head += [f"z{j + 1}" for j in range(p)]
    table = np.column_stack(cols + [Z])
    fmt = ["%.17g"] * len(cols) + ["%d"] * p
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(head), comments="")


def write_fit_input(path, workload: str, seed: int, k: int) -> None:
    """Input k of a ``workload`` run with this seed, as the program reads it."""
    shape = FIT_SHAPES[workload]
    rng = np.random.default_rng([shape["key"], seed, k])
    if shape["truncation"]:
        left, right, Z = snp_dataset(
            shape["n"], shape["p"], rng, grid=TALL_GRID, event_free_at_first_visit=True
        )
        write_csv(path, left, right, Z, delayed_entry(left, rng, TALL_LATE_ENTRY_SHARE, TALL_GRID))
    else:
        write_csv(path, *snp_dataset(shape["n"], shape["p"], rng))


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 5 or sys.argv[1] not in FIT_SHAPES:
        sys.exit(f"usage: python3 inputs.py {{{','.join(FIT_SHAPES)}}} SEED INDEX OUT.csv")
    write_fit_input(sys.argv[4], sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
