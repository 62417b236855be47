"""Maximal intersections: the intervals carrying the baseline hazard's mass.

For interval-censored data the nonparametric cumulative-hazard estimate can
only place mass on the disjoint intervals (l, u] with l a left endpoint,
u a finite right endpoint, and no observed endpoint strictly inside (l, u)
(the classical Turnbull construction). Under left truncation the entry times
join the right-endpoint candidates and the interior-exclusion set, and only
intervals with l > 0 are retained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset


@dataclass(frozen=True)
class SupportSet:
    """Ordered disjoint intervals (lower[k], upper[k]], upper strictly increasing."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    @property
    def m(self) -> int:
        return self.lower.shape[0]

    @property
    def intervals(self) -> list[tuple[float, float]]:
        return [(float(l), float(u)) for l, u in zip(self.lower, self.upper)]


def _adjacent_pairs(left_candidates, right_candidates, min_left=None):
    """Sweep the pooled distinct endpoints; emit adjacent (leftable, rightable) pairs.

    All candidate values double as interior blockers here, so a candidate pair
    (l, u] has an endpoint-free open interior exactly when l and u are adjacent
    in the pooled sorted distinct values.
    """
    left_candidates = np.unique(np.asarray(left_candidates, dtype=float))
    right_candidates = np.unique(np.asarray(right_candidates, dtype=float))
    pooled = np.unique(np.concatenate([left_candidates, right_candidates]))
    is_left = np.isin(pooled, left_candidates)
    is_right = np.isin(pooled, right_candidates)
    lo, hi = pooled[:-1], pooled[1:]
    pair = is_left[:-1] & is_right[1:]
    if min_left is not None:
        pair &= lo > min_left
    return SupportSet(lower=lo[pair], upper=hi[pair])


def maximal_intersections(dataset: Dataset) -> SupportSet:
    """Maximal intersections of a dataset's observation intervals.

    Candidates are l in {L_i}, u in {R_i : R_i < inf}; the open interior must
    contain no L or finite R. When any truncation time is positive the entry
    times V_i0 join both sets and only intervals with l > 0 are kept; that
    rule drops intervals the untruncated one would keep when some L_i = 0, a
    discrepancy inherited as written. An empty result is legal (for example
    when every subject is right-censored) and blocks any downstream fit.
    """
    right_candidates = dataset.right[np.isfinite(dataset.right)]
    truncated = dataset.truncated
    if truncated:
        right_candidates = np.concatenate([right_candidates, dataset.truncation])
    if right_candidates.size == 0:
        return SupportSet(lower=np.array([]), upper=np.array([]))
    return _adjacent_pairs(dataset.left, right_candidates, min_left=0.0 if truncated else None)
