import numpy as np
import pytest
from scipy import signal as sp_signal
from scipy.linalg import block_diag

from nlsid.signals import (SignalRecord, design_multisine, flat_amplitude_spec, odd_grid,
                           random_phases)
from nlsid.volterra import (RegularizerSpec, VolterraModel, decaying_correlation_matrix,
                            eval_volterra, fit_volterra)


def _record(u, y):
    return SignalRecord(1.0, len(u), 1, u, y)


WEAK_REG = RegularizerSpec(scale_1=100.0, decay_1=0.99, corr_1=0.0,
                           scale_2=100.0, decay_2=0.99, corr_2=0.0)


def test_eval_identity_kernel():
    m = 4
    model = VolterraModel(m, 0.0, np.eye(m)[0], np.zeros((m, m)))
    u = np.random.default_rng(0).normal(size=32)
    y = eval_volterra(model, u)
    assert np.allclose(y[m - 1 :], u[m - 1 :])
    assert np.all(np.isnan(y[: m - 1]))


def test_eval_square_kernel():
    m = 3
    h2 = np.zeros((m, m))
    h2[0, 0] = 1.0
    model = VolterraModel(m, 0.0, np.zeros(m), h2)
    u = np.random.default_rng(1).normal(size=24)
    y = eval_volterra(model, u)
    assert np.allclose(y[m - 1 :], u[m - 1 :] ** 2)


def test_eval_matches_bruteforce_double_sum():
    rng = np.random.default_rng(2)
    m = 4
    h2 = rng.normal(size=(m, m))
    h2 = 0.5 * (h2 + h2.T)
    model = VolterraModel(m, rng.normal(), rng.normal(size=m), h2)
    u = rng.normal(size=64)
    y = eval_volterra(model, u)
    for t in range(m - 1, 64):
        ref = model.h0
        for t1 in range(m):
            ref += model.h1[t1] * u[t - t1]
            for t2 in range(m):
                ref += h2[t1, t2] * u[t - t1] * u[t - t2]
        assert y[t] == pytest.approx(ref, abs=1e-12)


def test_eval_requires_enough_samples():
    model = VolterraModel(8, 0.0, np.zeros(8), np.zeros((8, 8)))
    with pytest.raises(ValueError, match="m"):
        eval_volterra(model, np.zeros(4))


def test_h2_symmetry_enforced():
    with pytest.raises(ValueError, match="symmetric"):
        VolterraModel(2, 0.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_fit_linear_fir_recovery():
    rng = np.random.default_rng(3)
    g = np.array([0.8, -0.5, 0.3, 0.1])
    u = rng.normal(size=4096)
    y = sp_signal.lfilter(g, [1.0], u)
    # noise-free data: an almost-flat prior leaves only negligible ridge bias
    flat = RegularizerSpec(scale_1=1e8, decay_1=0.99, corr_1=0.0,
                           scale_2=1e8, decay_2=0.99, corr_2=0.0)
    model = fit_volterra(_record(u, y), m=4, degree=2, reg=flat)
    assert np.allclose(model.h1, g, atol=1e-6)
    assert np.linalg.norm(model.h2) <= 1e-6 * np.linalg.norm(model.h1)
    assert model.h0 == pytest.approx(0.0, abs=1e-6)


def test_fit_wiener_square_recovers_outer_product():
    # u -> g -> (.)^2 has the exact quadratic kernel g g^T
    rng = np.random.default_rng(4)
    g = np.array([1.0, 0.6, 0.3, 0.15, 0.05, 0.0, 0.0, 0.0])
    m, n = 8, 8192
    u = rng.normal(size=n)
    x = sp_signal.lfilter(g, [1.0], u)
    y_clean = x**2
    snr_std = np.std(y_clean) * 10 ** (-40.0 / 20.0)
    y = y_clean + rng.normal(0, snr_std, n)
    model = fit_volterra(_record(u, y), m=m, degree=2, reg=WEAK_REG)
    h2_true = np.outer(g, g)
    rel = np.linalg.norm(model.h2 - h2_true) / np.linalg.norm(h2_true)
    assert rel <= 0.10


def test_fit_zero_output_all_kernels_zero():
    u = np.random.default_rng(5).normal(size=1024)
    model = fit_volterra(_record(u, np.zeros(1024)), m=4, degree=2)
    assert model.h0 == 0.0
    assert np.allclose(model.h1, 0.0)
    assert np.allclose(model.h2, 0.0)


def test_fit_degree_guard():
    u = np.zeros(64)
    with pytest.raises(ValueError, match="degree"):
        fit_volterra(_record(u, u), m=4, degree=3)


def test_prior_diagonal_when_uncorrelated():
    p = decaying_correlation_matrix(4, scale=2.0, decay=0.5, corr=0.0)
    assert np.allclose(p, np.diag(2.0 * 0.5 ** np.arange(4)))


def test_prior_formula_three_by_three():
    # direct formula oracle: P[i, j] = c * decay^max(i,j) * corr^|i-j|
    c, lam, rho = 1.0, 0.5, 0.9
    p = decaying_correlation_matrix(3, c, lam, rho)
    expected = np.array([
        [1.0, 0.5 * 0.9, 0.25 * 0.81],
        [0.5 * 0.9, 0.5, 0.25 * 0.9],
        [0.25 * 0.81, 0.25 * 0.9, 0.25],
    ])
    assert np.allclose(p, expected)


def test_prior_degenerate_rejected():
    with pytest.raises(ValueError, match="positive definite"):
        RegularizerSpec(decay_1=1.0, corr_1=1.0)


@pytest.mark.parametrize("values, field", [
    ({"scale_2": 0.0}, "scale_2"), ({"decay_1": 0.0}, "decay_1"), ({"decay_2": 1.01}, "decay_2"),
    ({"corr_2": -1.0}, "corr_2"), ({"grid_span": 0.5}, "grid_span"),
    ({"scale_1": float("inf")}, "scale_1"), ({"grid_points": 10}, "grid_points"),
    ({"grid_points": 0}, "grid_points"), ({"grid_points": 1}, "grid_points"),
])
def test_regularizer_bounds_rejected(values, field):
    with pytest.raises(ValueError, match=field):
        RegularizerSpec(**values)


def test_precision_at_the_bounds_is_positive_definite():
    from nlsid.volterra import _precision_blocks

    reg = RegularizerSpec(scale_1=1e-3, decay_1=1.0, corr_1=0.99,
                          scale_2=1e3, decay_2=1.0, corr_2=-0.99)
    for block in _precision_blocks(reg, 5, 2):
        np.linalg.cholesky(block)


def oracle_precision(reg, m):
    """``blockdiag(0, inv(P1), S^T inv(Pa (x) Pa) S)``, with the m^2 x m^2
    Kronecker covariance and the selection matrix S built entry by entry."""
    p1 = decaying_correlation_matrix(m, reg.scale_1, reg.decay_1, reg.corr_1)
    pa = decaying_correlation_matrix(m, np.sqrt(reg.scale_2), reg.decay_2, reg.corr_2)
    iu, ju = np.triu_indices(m)
    s = np.zeros((m * m, len(iu)))
    for p, (i, j) in enumerate(zip(iu, ju)):
        s[i * m + j, p] = s[j * m + i, p] = 1.0
    return block_diag(0.0, np.linalg.inv(p1), s.T @ np.linalg.inv(np.kron(pa, pa)) @ s)


def test_upper_precision_is_the_kronecker_oracle():
    from nlsid.volterra import _precision, _precision_blocks

    for m in (3, 6):
        for reg in (RegularizerSpec(), RegularizerSpec(scale_2=0.3, decay_2=0.7, corr_2=-0.6)):
            pen = _precision(*_precision_blocks(reg, m, 2), m)
            ref = oracle_precision(reg, m)
            assert np.abs(pen - ref).max() <= 1e-10 * np.abs(ref).max()


def test_ridge_identity_on_small_instance():
    # the fit is the posterior mean (K^T K + sigma2 Pi)^-1 K^T y, with the
    # precision Pi assembled independently and sigma2 the reported noise variance
    rng = np.random.default_rng(6)
    m, n = 4, 512
    u = rng.normal(size=n)
    y = sp_signal.lfilter([0.5, 0.2], [1.0], u) + 0.3 * u**2 + rng.normal(0, 0.05, n)
    reg = RegularizerSpec()
    model = fit_volterra(_record(u, y), m=m, degree=2, reg=reg)

    from nlsid.volterra import _regression_matrix
    k, t = _regression_matrix(u, m, 2)
    sigma2 = model.hyper["noise_variance"]
    theta = np.linalg.solve(k.T @ k + sigma2 * oracle_precision(reg, m), k.T @ y[t])
    assert model.h0 == pytest.approx(theta[0], abs=1e-8)
    assert np.allclose(model.h1, theta[1 : 1 + m], atol=1e-8)


@pytest.mark.parametrize("tuning", ["fixed", "marginal_likelihood_grid"])
def test_static_gain_recovered_at_60_db_snr(tuning):
    # the prior is a covariance of the kernel values: it must not shrink a
    # well-measured static gain, whatever the record length and noise level
    n, rms, gain = 2048, 0.4, 1.5
    spec = flat_amplitude_spec(n, 1.0, odd_grid(n, 400), rms=rms, grid_kind="odd_only", seed=1)
    u = design_multisine(random_phases(spec, 1))
    y = gain * u + np.random.default_rng(0).normal(0, gain * rms * 1e-3, n)
    model = fit_volterra(_record(u, y), m=6, degree=2, reg=RegularizerSpec(tuning=tuning))
    assert model.h1[0] == pytest.approx(gain, rel=0.05)
    assert model.hyper["noise_variance"] > 0


def test_monotone_shrinkage():
    rng = np.random.default_rng(7)
    u = rng.normal(size=1024)
    y = sp_signal.lfilter([1.0, 0.4], [1.0], u) + rng.normal(0, 0.5, 1024)
    thetas = {}
    for scale in (1.0, 0.1):
        reg = RegularizerSpec(scale_1=scale, scale_2=scale)
        model = fit_volterra(_record(u, y), m=6, degree=2, reg=reg)
        thetas[scale] = np.concatenate([[model.h0], model.h1, model.h2.ravel()])
    assert np.linalg.norm(thetas[0.1]) < np.linalg.norm(thetas[1.0])


def test_symmetry_preserved_through_fit_and_serialization():
    rng = np.random.default_rng(8)
    u = rng.normal(size=2048)
    y = 0.2 * u**2 + sp_signal.lfilter([0.9, 0.3], [1.0], u)
    model = fit_volterra(_record(u, y), m=5, degree=2)
    assert np.array_equal(model.h2, model.h2.T)
    back = VolterraModel.from_dict(model.to_dict())
    assert np.array_equal(back.h2, model.h2)
    assert np.array_equal(back.h1, model.h1)
    u_test = rng.normal(size=64)
    a = eval_volterra(model, u_test)
    b = eval_volterra(back, u_test)
    assert np.array_equal(a[~np.isnan(a)], b[~np.isnan(b)])


def test_marginal_likelihood_grid_beats_mismatched_prior():
    # grid search should not do worse than a deliberately tiny prior scale
    rng = np.random.default_rng(9)
    g = np.array([1.0, 0.7, 0.4, 0.2, 0.1, 0.05])
    u = rng.normal(size=2048)
    y = sp_signal.lfilter(g, [1.0], u) + rng.normal(0, 0.3, 2048)
    rec = _record(u, y)
    tuned = fit_volterra(rec, m=6, degree=1,
                         reg=RegularizerSpec(tuning="marginal_likelihood_grid"))
    strangled = fit_volterra(rec, m=6, degree=1,
                             reg=RegularizerSpec(scale_1=1e-6))
    err_tuned = np.linalg.norm(tuned.h1 - g)
    err_strangled = np.linalg.norm(strangled.h1 - g)
    assert err_tuned <= err_strangled
    assert "marginal_loglik" in tuned.hyper


def test_short_record_warns():
    u = np.random.default_rng(10).normal(size=64)
    with pytest.warns(UserWarning, match="short"):
        fit_volterra(_record(u, u), m=6, degree=2)


def reference_grid_search(k, y, reg, m, degree):
    """Reference: the grid search that builds each candidate's prior and
    forms K^T K, K^T y and y^T y inside every evidence evaluation; the
    winner's posterior mean is the fit."""
    from dataclasses import replace

    from nlsid.volterra import _hyper_dict, _precision, _precision_blocks

    def loglik(pen, sigma2):
        n, p = k.shape
        pen = pen.copy()
        pen[0, 0] = max(pen[0, 0], 1e-8)
        a = pen * sigma2 + k.T @ k
        cho = np.linalg.cholesky(a)
        alpha = np.linalg.solve(a, k.T @ y)
        quad = (y @ y - y @ (k @ alpha)) / sigma2
        logdet_a = 2.0 * np.sum(np.log(np.diag(cho)))
        sign, logdet_pen = np.linalg.slogdet(pen)
        if sign <= 0:
            return -np.inf
        logdet = (n - p) * np.log(sigma2) + logdet_a - logdet_pen
        return float(-0.5 * (quad + logdet + n * np.log(2.0 * np.pi)))

    n = len(y)
    pilot = np.linalg.solve(k.T @ k / n + 1e-6 * np.eye(k.shape[1]), k.T @ y / n)
    sigma2 = float(np.mean((y - k @ pilot) ** 2))
    sigma2 = max(sigma2, 1e-12 * float(np.mean(y**2)) + 1e-300)
    g = reg.grid_points
    scales = np.geomspace(1.0 / reg.grid_span, reg.grid_span, g)
    decays = np.unique(np.clip(np.linspace(0.6, 0.95, g), 0.05, 0.99))
    best = (-np.inf, None, None)
    for s1 in scales:
        for d1 in decays:
            for s2 in scales:
                for d2 in decays:
                    cand = replace(reg, scale_1=reg.scale_1 * s1, decay_1=d1,
                                   scale_2=reg.scale_2 * s2, decay_2=d2)
                    pen = _precision(*_precision_blocks(cand, m, degree), m)
                    ll = loglik(pen, sigma2)
                    if ll > best[0]:
                        best = (ll, cand, pen)
    _, cand, pen = best
    theta = np.linalg.solve(k.T @ k + sigma2 * pen, k.T @ y)
    hyper = _hyper_dict(cand)
    hyper["marginal_loglik"] = best[0]
    hyper["noise_variance"] = sigma2
    return theta, hyper


def _wiener_record(seed, n=768):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    x = sp_signal.lfilter([0.6, 0.3, 0.1], [1.0, -0.4], u)
    return _record(u, x + 0.2 * x**2 + rng.normal(0, 0.05, n))


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("grid_points", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_grid_search_identical_to_per_candidate_priors(degree, grid_points, seed):
    from nlsid.volterra import _model_from_theta, _regression_matrix

    m = 5
    rec = _wiener_record(seed)
    reg = RegularizerSpec(tuning="marginal_likelihood_grid", grid_points=grid_points,
                          scale_2=0.5, corr_2=0.3)
    model = fit_volterra(rec, m=m, degree=degree, reg=reg)
    k, t = _regression_matrix(rec.input, m, degree)
    theta, hyper = reference_grid_search(k, rec.output[t], reg, m, degree)
    ref = _model_from_theta(theta, m, degree, hyper)
    assert model.h0 == ref.h0
    assert np.array_equal(model.h1, ref.h1)
    assert np.array_equal(model.h2, ref.h2)
    assert model.hyper == ref.hyper


@pytest.mark.parametrize("grid_points", [2, 3])
def test_grid_search_at_degree_one_evaluates_each_first_order_pair_once(monkeypatch,
                                                                       grid_points):
    from nlsid import volterra

    calls = []
    original = volterra._marginal_loglik

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(volterra, "_marginal_loglik", counted)
    fit_volterra(_wiener_record(0), m=4, degree=1,
                 reg=RegularizerSpec(tuning="marginal_likelihood_grid", grid_points=grid_points))
    # (scale_2, decay_2) does not enter a degree-1 penalty: g^2, not g^4
    assert len(calls) == grid_points**2


@pytest.mark.parametrize("grid_points", [2, 3])
def test_grid_search_builds_each_prior_block_once_per_grid_pair(monkeypatch, grid_points):
    from nlsid import volterra

    built = []
    original = volterra.decaying_correlation_matrix

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(volterra, "decaying_correlation_matrix", counted)
    fit_volterra(_wiener_record(0), m=4, degree=2,
                 reg=RegularizerSpec(tuning="marginal_likelihood_grid",
                                     grid_points=grid_points))
    # one P1 and one P2 factor per (scale, decay) pair, against 2 g^4 per candidate
    assert len(built) <= 2 * grid_points**2
