"""Model validation: fit metric, residual correlation tests and domain-coverage
checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_VIOLATION_FRACTION = 0.10  # lags a passing correlation test may have outside the band
EXTRAPOLATION_FRACTION = 0.10  # test states outside the training domain that raise the flag


def fit_metric(y: np.ndarray, yhat: np.ndarray) -> float:
    """Percent of output variation reproduced by the model,
    ``100 * (1 - ||y - yhat|| / ||y - mean(y)||)``.

    Raises
    ------
    ValueError
        For constant ``y`` (the metric is undefined) or mismatched lengths.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or len(y) < 2:
        raise ValueError("y and yhat must be equal-length 1-d arrays with >= 2 samples")
    denom = np.linalg.norm(y - y.mean())
    if denom == 0.0:
        raise ValueError("fit metric undefined for a constant reference signal")
    return float(100.0 * (1.0 - np.linalg.norm(y - yhat) / denom))


@dataclass(frozen=True)
class ResidualTestReport:
    """Normalized auto/cross-correlations over lags 1..max_lag with 95% bounds."""

    lags: np.ndarray
    autocorr: np.ndarray
    crosscorr: np.ndarray
    bound: float
    whiteness_pass: bool
    crosscorr_pass: bool
    note: str = ""


def residual_tests(residual: np.ndarray, input_signal: np.ndarray,
                   max_lag: int) -> ResidualTestReport:
    """Whiteness and input-independence tests on model residuals.

    The autocorrelation of the residual and its cross-correlation with the
    input are computed for lags 1..max_lag and compared against the
    ``+-1.96/sqrt(N)`` 95% band; a test passes when at most
    ``MAX_VIOLATION_FRACTION`` of the lags fall outside.

    With 95% bands each lag of a white residual lands outside with 5%
    probability, so an allowance of exactly 5% of the lags would flag white
    noise about a third of the time (binomial upper tail).  The
    allowance of 10% keeps the false-alarm rate under 10% for typical lag
    counts while colored residuals still fail decisively.
    """
    e = np.asarray(residual, dtype=float)
    u = np.asarray(input_signal, dtype=float)
    if len(e) != len(u):
        raise ValueError("residual and input must have equal length")
    if len(e) <= 10 * max_lag:
        raise ValueError(f"need more than 10*max_lag = {10 * max_lag} samples, have {len(e)}")
    n = len(e)
    lags = np.arange(1, max_lag + 1)
    bound = 1.96 / np.sqrt(n)
    e0 = e - e.mean()
    u0 = u - u.mean()
    var_e = float(e0 @ e0) / n
    var_u = float(u0 @ u0) / n
    if var_e == 0.0:
        return ResidualTestReport(
            lags, np.zeros(max_lag), np.zeros(max_lag), bound, True, True,
            note="zero-variance residual: correlation undefined, trivially passing",
        )
    auto = np.array([float(e0[tau:] @ e0[:-tau]) / n for tau in lags]) / var_e
    if var_u == 0.0:
        cross = np.zeros(max_lag)
    else:
        cross = np.array([float(e0[tau:] @ u0[:-tau]) / n for tau in lags]) / np.sqrt(var_e * var_u)
    max_bad = MAX_VIOLATION_FRACTION * max_lag
    return ResidualTestReport(
        lags,
        auto,
        cross,
        bound,
        whiteness_pass=bool(np.sum(np.abs(auto) > bound) <= max_bad),
        crosscorr_pass=bool(np.sum(np.abs(cross) > bound) <= max_bad),
    )


@dataclass(frozen=True)
class DomainCoverage:
    fraction_inside: float
    extrapolation_flag: bool
    radius: float
    test_distances: np.ndarray


def domain_coverage(train_states: np.ndarray, test_states: np.ndarray,
                    radius_quantile: float = 0.99) -> DomainCoverage:
    """Mahalanobis domain check of test states against the training cloud.

    The training mean/covariance define the squared distance
    ``d(s) = (s - mu)^T C^-1 (s - mu)``; the coverage radius is the
    ``radius_quantile`` quantile of the training distances.  The extrapolation
    flag raises when more than ``EXTRAPOLATION_FRACTION`` of the test states
    exceed that radius.  A singular covariance is regularized with
    ``eps * I``, ``eps = 1e-8 * trace(C)/n``.
    """
    train = np.atleast_2d(np.asarray(train_states, dtype=float))
    test = np.atleast_2d(np.asarray(test_states, dtype=float))
    if train.shape[1] != test.shape[1]:
        raise ValueError("train and test states must share the dimension")
    n_dim = train.shape[1]
    if train.shape[0] < n_dim + 1:
        raise ValueError(f"need at least dim+1 = {n_dim + 1} training rows")
    mu = train.mean(axis=0)
    cov = np.cov(train.T, ddof=1).reshape(n_dim, n_dim)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        cov = cov + (1e-8 * np.trace(cov) / n_dim) * np.eye(n_dim)
        factor = np.linalg.cholesky(cov)

    def dist2(pts):
        w = np.linalg.solve(factor, (pts - mu).T)
        return np.sum(w**2, axis=0)

    train_d = dist2(train)
    test_d = dist2(test)
    radius = float(np.quantile(train_d, radius_quantile))
    inside = float(np.mean(test_d <= radius))
    return DomainCoverage(
        fraction_inside=inside,
        extrapolation_flag=bool(1.0 - inside > EXTRAPOLATION_FRACTION),
        radius=radius,
        test_distances=test_d,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Combined model-validation summary: fit quality, residual correlation
    tests, and (when state trajectories are supplied) domain coverage."""

    fit_percent: float
    rms_error: float
    autocorr: np.ndarray
    crosscorr: np.ndarray
    correlation_bound: float
    whiteness_pass: bool
    crosscorr_pass: bool
    domain_fraction_inside: float | None
    extrapolation_flag: bool | None

    def to_dict(self) -> dict:
        return {
            "fit_percent": self.fit_percent,
            "rms_error": self.rms_error,
            "autocorr": self.autocorr.tolist(),
            "crosscorr": self.crosscorr.tolist(),
            "correlation_bound": self.correlation_bound,
            "whiteness_pass": self.whiteness_pass,
            "crosscorr_pass": self.crosscorr_pass,
            "domain_fraction_inside": self.domain_fraction_inside,
            "extrapolation_flag": self.extrapolation_flag,
        }


def validation_report(y: np.ndarray, yhat: np.ndarray, input_signal: np.ndarray,
                      max_lag: int = 40, train_states: np.ndarray | None = None,
                      test_states: np.ndarray | None = None) -> ValidationReport:
    """Assemble the full validation summary for one model/record pair.

    Domain coverage is reported when both state clouds are given; otherwise
    it is not checked, and both coverage fields are None.
    """
    resid = np.asarray(y, dtype=float) - np.asarray(yhat, dtype=float)
    tests = residual_tests(resid, input_signal, max_lag)
    fraction = flag = None
    if train_states is not None and test_states is not None:
        cov = domain_coverage(train_states, test_states)
        fraction = cov.fraction_inside
        flag = cov.extrapolation_flag
    return ValidationReport(
        fit_percent=fit_metric(y, yhat),
        rms_error=float(np.sqrt(np.mean(resid**2))),
        autocorr=tests.autocorr,
        crosscorr=tests.crosscorr,
        correlation_bound=tests.bound,
        whiteness_pass=tests.whiteness_pass,
        crosscorr_pass=tests.crosscorr_pass,
        domain_fraction_inside=fraction,
        extrapolation_flag=flag,
    )
