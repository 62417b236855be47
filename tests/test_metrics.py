"""Scoring against ground truth and replicate aggregation."""

import math

import numpy as np
import pytest

from icsel.metrics import FitReport, aggregate, hazard_sup_distance, score
from icsel.simulate import BETA6
from icsel.support import SupportSet


def test_score_perfect_recovery():
    beta = np.array([1.0, -0.5, 0.0, 2.0])
    rep = score(beta, beta)
    assert (rep.l1_error, rep.l2_error, rep.fp, rep.fn) == (0.0, 0.0, 0, 0)


def test_score_swapped_support():
    """beta = (1, 0), beta_hat = (0, 1): L1 = 2, L2 = sqrt(2), FP = FN = 1."""
    rep = score(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert rep.l1_error == pytest.approx(2.0, rel=1e-15)
    assert rep.l2_error == pytest.approx(1.4142135623730951, rel=1e-15)
    assert rep.fp == 1 and rep.fn == 1


def test_score_empty_fit_against_six_signals():
    """All-zero estimate against the padded six-signal vector: L1 equals the
    sum of magnitudes 7.60, FN = 6, FP = 0."""
    beta_true = np.zeros(50)
    beta_true[:6] = BETA6
    rep = score(np.zeros(50), beta_true)
    assert rep.l1_error == pytest.approx(7.60, abs=1e-12)
    assert rep.fn == 6 and rep.fp == 0


def test_score_count_identity():
    """fp + (#true nonzeros - fn) = nnz of the estimate."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.integers(3, 30)
        beta_true = np.where(rng.random(p) < 0.4, rng.normal(size=p), 0.0)
        beta_hat = np.where(rng.random(p) < 0.5, rng.normal(size=p), 0.0)
        rep = score(beta_hat, beta_true)
        true_nnz = int(np.count_nonzero(beta_true))
        assert rep.fp + (true_nnz - rep.fn) == np.count_nonzero(beta_hat)


def test_score_permutation_equivariant():
    rng = np.random.default_rng(1)
    p = 12
    beta_true = np.where(rng.random(p) < 0.4, rng.normal(size=p), 0.0)
    beta_hat = np.where(rng.random(p) < 0.5, rng.normal(size=p), 0.0)
    perm = rng.permutation(p)
    a = score(beta_hat, beta_true)
    b = score(beta_hat[perm], beta_true[perm])
    assert a.l1_error == pytest.approx(b.l1_error, rel=1e-15)
    assert a.l2_error == pytest.approx(b.l2_error, rel=1e-15)
    assert (a.fp, a.fn) == (b.fp, b.fn)


def test_score_tolerance_knob():
    beta_true = np.array([1.0, 0.0])
    beta_hat = np.array([1.0, 1e-6])
    assert score(beta_hat, beta_true).fp == 1
    assert score(beta_hat, beta_true, tol=1e-4).fp == 0


def test_score_shape_mismatch_raises():
    with pytest.raises(ValueError):
        score(np.zeros(3), np.zeros(4))


def test_score_reports_estimates_on_true_support():
    beta_true = np.array([2.0, 0.0, -1.0])
    beta_hat = np.array([1.9, 0.3, 0.0])
    rep = score(beta_hat, beta_true)
    assert rep.beta_hat_on_true_support.tolist() == [1.9, 0.0]


# ---------------------------------------------------------------------------
# aggregation


def report(l2):
    return FitReport(l1_error=2 * l2, l2_error=l2, fp=1, fn=0,
                     beta_hat_on_true_support=np.array([l2, -l2]))


def test_aggregate_single_report_flags_undefined_se():
    agg = aggregate([report(0.3)])
    assert agg.means["l2_error"] == pytest.approx(0.3)
    assert math.isnan(agg.ses["l2_error"])


def test_aggregate_two_reports():
    """L2 values 0.3 and 0.5: mean 0.4, standard error 0.1."""
    agg = aggregate([report(0.3), report(0.5)])
    assert agg.means["l2_error"] == pytest.approx(0.4, rel=1e-14)
    assert agg.ses["l2_error"] == pytest.approx(0.1, rel=1e-12)


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate([])


# ---------------------------------------------------------------------------
# baseline-hazard recovery


def test_hazard_sup_distance_hand_example():
    """Support (0,1], (1,2] with jumps summing to Lambda(1) = 1, Lambda(2) = 3
    against (1.2 t)^1.5: sup over jump points of |step - curve|."""
    supp = SupportSet(lower=np.array([0.0, 1.0]), upper=np.array([1.0, 2.0]))
    lam = np.array([1.0, 2.0])
    truth = lambda t: (1.2 * t) ** 1.5
    # candidates: just below/at each jump point against the step level there
    expected = max(
        abs(1.0 - truth(1.0)),
        abs(1.0 - truth(2.0)),
        abs(3.0 - truth(2.0)),
        abs(0.0 - truth(1.0)),
    )
    got = hazard_sup_distance(supp, lam, 1.2, 1.5)
    assert got == pytest.approx(expected, rel=1e-12)


def test_hazard_sup_distance_perfect_step():
    """A step curve sampled from the truth itself has distance equal to the
    largest within-piece increment of the smooth curve."""
    eta, kappa = 1.2, 1.5
    us = np.linspace(0.1, 2.0, 80)
    lows = np.concatenate([[0.0], us[:-1]])
    supp = SupportSet(lower=lows, upper=us)
    cum = (eta * us) ** kappa
    lam = np.diff(np.concatenate([[0.0], cum]))
    got = hazard_sup_distance(supp, lam, eta, kappa)
    gaps = np.diff(np.concatenate([[0.0], cum]))
    assert got <= gaps.max() + 1e-12


def test_hazard_sup_distance_empty_support():
    supp = SupportSet(lower=np.zeros(0), upper=np.zeros(0))
    assert math.isnan(hazard_sup_distance(supp, np.zeros(0), 1.2, 1.5))
