"""Dataset container, validation messages, and standardization."""

import math

import numpy as np
import pytest

from icsel import Dataset, standardize, validate
from icsel.errors import ValidationError


def small_dataset():
    return Dataset(
        left=[0.0, 1.0, 2.0],
        right=[2.0, 3.0, math.inf],
        covariates=np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]),
    )


def test_dataset_shapes_and_defaults():
    ds = small_dataset()
    assert ds.n == 3
    assert ds.p == 2
    assert np.all(ds.truncation == 0.0)
    assert np.all(ds.penalty_factors == 1.0)


def test_dataset_arrays_are_readonly():
    ds = small_dataset()
    with pytest.raises(ValueError):
        ds.left[0] = 5.0


def test_validate_clean():
    assert validate(small_dataset()) == []


def test_validate_left_ge_right():
    ds = Dataset(left=[2.0], right=[1.0], covariates=np.zeros((1, 1)))
    msgs = validate(ds)
    assert len(msgs) == 1
    assert "subject 0" in msgs[0] and "left >= right" in msgs[0]


def test_validate_exact_event_time_rejected():
    # left == right would encode an exactly observed event, out of scope
    ds = Dataset(left=[1.0], right=[1.0], covariates=np.zeros((1, 1)))
    msgs = validate(ds)
    assert any("left equals right" in m for m in msgs)


def test_validate_truncation_past_left():
    ds = Dataset(left=[1.0], right=[2.0], covariates=np.zeros((1, 1)), truncation=[1.5])
    msgs = validate(ds)
    assert any("truncation exceeds left endpoint" in m for m in msgs)


def test_validate_negative_and_nonfinite():
    ds = Dataset(
        left=[-1.0, 0.0],
        right=[1.0, math.nan],
        covariates=np.array([[0.0], [math.inf]]),
    )
    msgs = validate(ds)
    assert len(msgs) >= 3


def validate_per_subject(dataset):
    """Reference: the per-subject loop that whole-array validate replaced."""
    violations = []
    L, R, V = dataset.left, dataset.right, dataset.truncation
    for i in range(dataset.n):
        if not np.isfinite(L[i]) or L[i] < 0:
            violations.append(f"subject {i}: left endpoint must be finite and nonnegative")
        if np.isnan(R[i]):
            violations.append(f"subject {i}: right endpoint is NaN")
        elif R[i] == L[i]:
            violations.append(f"subject {i}: left equals right (exact event times unsupported)")
        elif R[i] < L[i]:
            violations.append(f"subject {i}: left >= right")
        if not np.isfinite(V[i]) or V[i] < 0:
            violations.append(f"subject {i}: truncation time must be finite and nonnegative")
        elif V[i] > L[i]:
            violations.append(f"subject {i}: truncation exceeds left endpoint")
        if not np.all(np.isfinite(dataset.covariates[i])):
            violations.append(f"subject {i}: covariates contain non-finite values")
    if not np.all(np.isin(dataset.penalty_factors, (0.0, 1.0))):
        violations.append("penalty factors must be 0 (unpenalized) or 1 (penalized)")
    return violations


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_matches_per_subject_loop():
    ds = Dataset(
        left=[math.nan, 1.0, -1.0, 2.0, 0.0, 3.0],
        right=[1.0, 1.0, math.inf, 1.0, math.nan, 4.0],
        covariates=np.array([[0.0], [math.nan], [1.0], [-math.inf], [0.0], [1.0]]),
        truncation=[0.0, 2.0, -0.5, math.inf, 0.0, 1.0],
        penalty_factors=[0.5],
    )
    msgs = validate(ds)
    assert len(msgs) == 11
    assert msgs == validate_per_subject(ds)
    cells = np.array([0.0, 1.0, -1.0, 2.0, 0.5, math.inf, -math.inf, math.nan])
    rng = np.random.default_rng(11)
    for _ in range(500):
        n, p = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        ds = Dataset(
            left=rng.choice(cells, n),
            right=rng.choice(cells, n),
            covariates=rng.choice(cells, (n, p)),
            truncation=rng.choice(cells, n),
        )
        assert validate(ds) == validate_per_subject(ds)


def test_standardize_moments():
    """Columns get mean 0 and sum(z^2)/n = 1 within 1e-10."""
    rng = np.random.default_rng(0)
    ds = Dataset(
        left=np.arange(20.0),
        right=np.arange(20.0) + 1.0,
        covariates=rng.normal(2.0, 3.0, size=(20, 4)),
    )
    std, record = standardize(ds)
    means = std.covariates.mean(axis=0)
    second = (std.covariates**2).sum(axis=0) / std.n
    assert np.all(np.abs(means) < 1e-10)
    assert np.all(np.abs(second - 1.0) < 1e-10)
    assert not record.constant.any()


def test_standardize_frozen_example():
    """Column (0, 1, 2): center 1, population scale sqrt(2/3), standardized
    values (-1.224744871391589, 0, 1.224744871391589)."""
    ds = Dataset(
        left=[0.0, 1.0, 2.0],
        right=[1.0, 2.0, 3.0],
        covariates=np.array([[0.0], [1.0], [2.0]]),
    )
    std, record = standardize(ds)
    assert record.center[0] == pytest.approx(1.0)
    assert record.scale[0] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
    assert std.covariates[:, 0] == pytest.approx(
        [-1.224744871391589, 0.0, 1.224744871391589], rel=1e-14
    )


def test_standardize_constant_column_untouched():
    ds = Dataset(
        left=[0.0, 1.0, 2.0],
        right=[1.0, 2.0, 3.0],
        covariates=np.array([[5.0, 0.0], [5.0, 1.0], [5.0, 2.0]]),
    )
    std, record = standardize(ds)
    assert record.constant[0] and not record.constant[1]
    assert np.all(std.covariates[:, 0] == 5.0)
    assert record.center[0] == 0.0 and record.scale[0] == 1.0


def test_standardize_needs_two_subjects():
    ds = Dataset(left=[0.0], right=[1.0], covariates=np.zeros((1, 1)))
    with pytest.raises(ValidationError):
        standardize(ds)


def test_destandardize_round_trip():
    rng = np.random.default_rng(1)
    ds = Dataset(
        left=np.arange(10.0),
        right=np.arange(10.0) + 0.5,
        covariates=rng.normal(size=(10, 3)),
    )
    _, record = standardize(ds)
    beta = rng.normal(size=3)
    beta_original, _ = record.to_original_scale(beta, np.ones(2))
    assert beta_original * record.scale == pytest.approx(beta, rel=1e-14)


def test_baseline_factor_identity_when_centered():
    """Already-centered unit-scale columns leave the baseline untouched."""
    z = np.array([[-1.0], [0.0], [1.0]]) * math.sqrt(1.5)
    ds = Dataset(left=[0.0, 1.0, 2.0], right=[1.0, 2.0, 3.0], covariates=z)
    _, record = standardize(ds)
    _, lam = record.to_original_scale(np.array([2.0]), np.array([0.3, 0.7]))
    assert lam == pytest.approx([0.3, 0.7], rel=1e-12)
