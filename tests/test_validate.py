from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from nlsid.validate import (domain_coverage, fit_metric, residual_tests,
                            validation_report)


def test_fit_metric_perfect():
    y = np.array([1.0, 2.0, 3.0])
    assert fit_metric(y, y) == pytest.approx(100.0)


def test_fit_metric_mean_predictor():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert fit_metric(y, np.full(4, y.mean())) == pytest.approx(0.0)


def test_fit_metric_formula_case():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    yhat = np.array([1.0, 2.0, 3.0, 5.0])
    assert fit_metric(y, yhat) == pytest.approx(100.0 * (1.0 - 1.0 / np.sqrt(5.0)))


def test_fit_metric_constant_reference_rejected():
    with pytest.raises(ValueError, match="constant"):
        fit_metric(np.ones(10), np.zeros(10))


def test_fit_metric_shift_invariance():
    rng = np.random.default_rng(0)
    y = rng.normal(size=50)
    yhat = y + rng.normal(0, 0.1, 50)
    assert fit_metric(y + 3.7, yhat + 3.7) == pytest.approx(fit_metric(y, yhat))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_fit_metric_never_exceeds_100(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=32)
    yhat = rng.normal(size=32)
    if np.ptp(y) == 0:
        return
    assert fit_metric(y, yhat) <= 100.0


def test_residual_tests_white_noise_calibration():
    passes = 0
    for seed in range(100):
        e = np.random.default_rng(seed).normal(size=4096)
        u = np.random.default_rng(10_000 + seed).normal(size=4096)
        rep = residual_tests(e, u, max_lag=40)
        passes += rep.whiteness_pass
    assert passes >= 90


def test_residual_tests_false_positive_rate():
    # each test calibrated to a false-alarm rate of at most 10% on white noise
    fa_white = 0
    fa_cross = 0
    for seed in range(100):
        e = np.random.default_rng(seed).normal(size=4096)
        u = np.random.default_rng(50_000 + seed).normal(size=4096)
        rep = residual_tests(e, u, max_lag=40)
        fa_white += not rep.whiteness_pass
        fa_cross += not rep.crosscorr_pass
    assert fa_white <= 10
    assert fa_cross <= 10


def test_residual_tests_ar1_fails_whiteness():
    rng = np.random.default_rng(1)
    e = sp_signal.lfilter([1.0], [1.0, -0.9], rng.normal(size=4096))
    rep = residual_tests(e, rng.normal(size=4096), max_lag=40)
    assert not rep.whiteness_pass


def test_residual_tests_input_correlation_detected():
    # leftover linear dynamics: residual correlates with the input over many lags
    rng = np.random.default_rng(2)
    u = rng.normal(size=4096)
    e = sp_signal.lfilter([0.0, 0.3, 0.3, 0.3, 0.3], [1.0], u) + 0.1 * rng.normal(size=4096)
    rep = residual_tests(e, u, max_lag=20)
    assert not rep.crosscorr_pass


def test_residual_tests_independent_input_passes_crosscorr():
    rng = np.random.default_rng(3)
    rep = residual_tests(rng.normal(size=4096), rng.normal(size=4096), max_lag=20)
    assert rep.crosscorr_pass


def test_residual_tests_zero_variance_note():
    rep = residual_tests(np.zeros(1024), np.random.default_rng(4).normal(size=1024), 10)
    assert rep.whiteness_pass and rep.crosscorr_pass
    assert "zero-variance" in rep.note


def test_residual_tests_length_guard():
    with pytest.raises(ValueError, match="max_lag"):
        residual_tests(np.zeros(100), np.zeros(100), max_lag=20)


def test_domain_coverage_self():
    rng = np.random.default_rng(5)
    train = rng.normal(size=(500, 2))
    cov = domain_coverage(train, train)
    # the radius is the training distances' RADIUS_QUANTILE (0.99) quantile
    assert cov.fraction_inside == pytest.approx(0.99)
    assert not cov.extrapolation_flag


def test_domain_coverage_scaled_cloud_flagged():
    rng = np.random.default_rng(6)
    train = rng.normal(size=(500, 3))
    cov = domain_coverage(train, 3.0 * rng.normal(size=(200, 3)))
    assert cov.extrapolation_flag


def test_domain_coverage_affine_invariance():
    rng = np.random.default_rng(7)
    train = rng.normal(size=(300, 3))
    test = rng.normal(size=(100, 3)) * 1.5
    t_mat = np.array([[2.0, 0.3, 0.0], [0.0, 1.0, -0.4], [0.1, 0.0, 0.5]])
    shift = np.array([1.0, -2.0, 0.3])
    cov_a = domain_coverage(train, test)
    cov_b = domain_coverage(train @ t_mat.T + shift, test @ t_mat.T + shift)
    assert np.allclose(cov_a.test_distances, cov_b.test_distances, atol=1e-8)
    assert cov_a.fraction_inside == cov_b.fraction_inside


def test_domain_coverage_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        domain_coverage(np.zeros((10, 2)), np.zeros((5, 3)))


def test_domain_coverage_needs_enough_rows():
    with pytest.raises(ValueError, match="training rows"):
        domain_coverage(np.zeros((2, 2)), np.zeros((5, 2)))


def test_domain_coverage_singular_covariance_regularized():
    # rank-deficient training cloud: coverage still computes via the eps ridge
    rng = np.random.default_rng(8)
    line = np.outer(rng.normal(size=100), np.array([1.0, 2.0]))
    cov = domain_coverage(line, line[:10])
    assert np.isfinite(cov.radius)


def test_validation_report_assembles_everything():
    rng = np.random.default_rng(20)
    u = rng.normal(size=2000)
    y = sp_signal.lfilter([0.5, 0.2], [1.0, -0.3], u) + rng.normal(0, 0.01, 2000)
    yhat = sp_signal.lfilter([0.5, 0.2], [1.0, -0.3], u)
    train_states = rng.normal(size=(300, 2))
    rep = validation_report(y, yhat, u, max_lag=20,
                            train_states=train_states,
                            test_states=3.0 * rng.normal(size=(100, 2)))
    assert rep.fit_percent > 95.0
    assert rep.whiteness_pass and rep.crosscorr_pass
    assert rep.extrapolation_flag
    assert len(rep.autocorr) == 20
    payload = asdict(rep)
    assert payload["fit_percent"] == rep.fit_percent
    # without state clouds the coverage is not checked, and says so
    rep2 = validation_report(y, yhat, u, max_lag=20)
    assert rep2.domain_fraction_inside is None
    assert rep2.extrapolation_flag is None
    assert asdict(rep2)["extrapolation_flag"] is None
