"""Maximal intersections: adjacency construction vs brute-force enumeration."""

import math

import numpy as np

from icsel import Dataset, maximal_intersections

from oracles import brute_force_support, brute_force_support_truncated


def make(left, right, trunc=None):
    n = len(left)
    return Dataset(
        left=left,
        right=right,
        covariates=np.zeros((n, 1)),
        truncation=trunc,
    )


def test_worked_example():
    """{(0,2], (1,3], (2,inf)} -> {(1,2], (2,3]}."""
    supp = maximal_intersections(make([0.0, 1.0, 2.0], [2.0, 3.0, math.inf]))
    assert supp.intervals == [(1.0, 2.0), (2.0, 3.0)]


def test_all_right_censored_is_empty():
    supp = maximal_intersections(make([1.0, 2.0], [math.inf, math.inf]))
    assert supp.m == 0


def test_single_interval():
    supp = maximal_intersections(make([1.0], [3.0]))
    assert supp.intervals == [(1.0, 3.0)]


def test_disjoint_intervals_pass_through():
    supp = maximal_intersections(make([0.0, 5.0], [1.0, 6.0]))
    assert supp.intervals == [(0.0, 1.0), (5.0, 6.0)]


def test_truncated_worked_example():
    """V0 = 1 with interval (2, 4] keeps the single cell (2, 4]."""
    supp = maximal_intersections(make([2.0], [4.0], trunc=[1.0]))
    assert supp.intervals == [(2.0, 4.0)]


def test_truncation_time_splits_cells():
    # V0 = 3 inside (2, 4] becomes a right-candidate and splits the cell
    supp = maximal_intersections(
        make([2.0, 3.5], [4.0, 5.0], trunc=[0.0, 3.0])
    )
    assert (2.0, 3.0) in supp.intervals


def test_truncated_drops_zero_left_cells():
    # (0, 1] would be a cell without truncation; the l > 0 rule drops it
    supp = maximal_intersections(
        make([0.0, 2.0], [1.0, 3.0], trunc=[0.0, 1.5])
    )
    assert all(l > 0 for l, _ in supp.intervals)


def random_dataset(rng, truncated=False):
    n = int(rng.integers(1, 31))
    # small integer grid forces plenty of ties
    left = rng.integers(0, 8, size=n).astype(float)
    gaps = rng.integers(1, 5, size=n).astype(float)
    right = left + gaps
    right[rng.random(n) < 0.3] = math.inf
    trunc = None
    if truncated:
        trunc = np.maximum(left - rng.integers(0, 3, size=n), 0.0).astype(float)
    return left, right, trunc


def test_matches_brute_force_on_random_datasets():
    rng = np.random.default_rng(42)
    for _ in range(150):
        left, right, _ = random_dataset(rng)
        supp = maximal_intersections(make(list(left), list(right)))
        assert supp.intervals == brute_force_support(left, right)


def test_truncated_matches_brute_force_on_random_datasets():
    rng = np.random.default_rng(43)
    for _ in range(150):
        left, right, trunc = random_dataset(rng, truncated=True)
        supp = maximal_intersections(make(list(left), list(right), list(trunc)))
        assert supp.intervals == brute_force_support_truncated(left, right, trunc)


def test_cells_are_disjoint_and_sorted():
    rng = np.random.default_rng(44)
    for _ in range(50):
        left, right, _ = random_dataset(rng)
        supp = maximal_intersections(make(list(left), list(right)))
        for k in range(supp.m):
            assert supp.lower[k] < supp.upper[k]
            if k:
                assert supp.lower[k] >= supp.upper[k - 1]
