import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from nlsid.narx import NarxModel, fit_narx, simulate_free_run
from nlsid.polybasis import MonomialPlan, PolyMap, enumerate_monomials, eval_monomials
from nlsid.signals import SignalRecord, design_multisine, flat_amplitude_spec, full_grid, random_phases
from nlsid.simulators import NoiseSpec, default_duffing, simulate_duffing, steady_state_record

FS = 200.0


def _record(u, y, n=None, fs=1.0):
    n = n or len(u)
    return SignalRecord(fs, n, len(u) // n, u, y)


def predict_one_step(model, rec):
    """One-step-ahead prediction from the measured past outputs; the first
    ``max_lag`` samples are NaN."""
    t = np.arange(model.max_lag, len(rec.output))
    pred = np.full(len(rec.output), np.nan)
    pred[t] = (eval_monomials(model.poly.basis, model.regressors(rec.output, rec.input, t))
               @ model.poly.coefficients[0])
    return pred


def test_linear_arx_exact_recovery():
    rng = np.random.default_rng(0)
    u = rng.normal(size=500)
    y = np.zeros(500)
    for t in range(1, 500):
        y[t] = 0.5 * y[t - 1] + 1.0 * u[t - 1]
    model = fit_narx(_record(u, y), na=1, nb=1, degree=1, direct_term=False)
    # layout: [y[t-1], u[t-1]]; basis [1, y, u]
    coeffs = dict(zip([tuple(e) for e in model.poly.basis.exponents], model.poly.coefficients[0]))
    assert coeffs[(1, 0)] == pytest.approx(0.5, abs=1e-8)
    assert coeffs[(0, 1)] == pytest.approx(1.0, abs=1e-8)
    assert coeffs[(0, 0)] == pytest.approx(0.0, abs=1e-8)


def test_zero_output_gives_zero_coefficients():
    u = np.random.default_rng(1).normal(size=200)
    with pytest.warns(UserWarning) as caught:
        model = fit_narx(_record(u, np.zeros(200)), na=2, nb=2, degree=2)
    assert any("minimum-norm" in str(w.message) for w in caught)
    assert np.allclose(model.poly.coefficients, 0.0)


def test_degree_must_be_positive():
    u = np.zeros(50)
    with pytest.raises(ValueError):
        fit_narx(_record(u, u), na=1, nb=1, degree=0)


def test_short_record_warns():
    rng = np.random.default_rng(2)
    u = rng.normal(size=40)
    with pytest.warns(UserWarning) as caught:
        fit_narx(_record(u, u), na=2, nb=2, degree=3)
    assert any("equations" in str(w.message) for w in caught)


def _duffing_steady(spec, params, seed, num_periods=2, noise_std=1e-4):
    real = random_phases(spec, seed)
    up = design_multisine(real)
    return steady_state_record(
        lambda u, fs: simulate_duffing(params, u, fs, NoiseSpec(measurement_std=noise_std, seed=seed)),
        up, FS, num_periods, 3,
    )


@pytest.fixture(scope="module")
def duffing_narx():
    params = default_duffing(FS, hardening=0.1)
    spec = flat_amplitude_spec(512, FS, full_grid(512, 75), rms=0.1)
    train = _duffing_steady(spec, params, seed=0)
    test = _duffing_steady(spec, params, seed=5)
    model = fit_narx(train, na=2, nb=2, degree=3)
    return model, train, test, spec, params


def test_duffing_prediction_error_small(duffing_narx):
    model, train, test, _, _ = duffing_narx
    pred = predict_one_step(model, test)
    valid = ~np.isnan(pred)
    err = np.sqrt(np.mean((test.output[valid] - pred[valid]) ** 2))
    assert err <= 0.01 * np.sqrt(np.mean(test.output[valid] ** 2))


def test_prediction_exact_on_self_generated_data():
    # data produced by the model itself has zero one-step error after warmup
    rng = np.random.default_rng(3)
    u = rng.normal(size=300)
    seed_model = fit_narx(
        _record(u, sp_signal.lfilter([0.0, 0.8], [1.0, -0.3], u)), na=1, nb=1, degree=2
    )
    free = simulate_free_run(seed_model, u, y_init=np.zeros(1))
    assert not free.diverged
    rec = _record(u, free.y)
    pred = predict_one_step(seed_model, rec)
    valid = ~np.isnan(pred)
    assert np.allclose(pred[valid], free.y[valid], atol=1e-9)


def test_prediction_constant_signal():
    u = np.zeros(100)
    y = np.full(100, 2.0)
    with pytest.warns(UserWarning, match="minimum-norm"):
        model = fit_narx(_record(u, y), na=1, nb=1, degree=1)
    pred = predict_one_step(model, _record(u, y))
    assert np.allclose(pred[1:], 2.0, atol=1e-8)


def test_prediction_beats_simulation_on_noisy_data():
    # equation-error noise: the disturbance passes through the feedback, so
    # one-step prediction stays at the innovation floor while the free run
    # accumulates it
    rng = np.random.default_rng(4)
    u = rng.normal(size=2000)
    e = rng.normal(0, 0.1, 2000)
    y = np.zeros(2000)
    for t in range(1, 2000):
        y[t] = 0.7 * y[t - 1] + u[t - 1] + e[t]
    rec = _record(u, y)
    model = fit_narx(rec, na=1, nb=1, degree=1)
    pred = predict_one_step(model, rec)
    free = simulate_free_run(model, u, y_init=y[:1])
    valid = ~np.isnan(pred)
    err_pred = np.var((y - pred)[valid])
    err_sim = np.var((y - free.y)[valid])
    assert err_pred <= err_sim


def test_free_run_linear_matches_filter_oracle():
    rng = np.random.default_rng(5)
    u = rng.normal(size=400)
    y = sp_signal.lfilter([0.0, 0.5, 0.25], [1.0, -0.9, 0.2], u)
    model = fit_narx(_record(u, y), na=2, nb=2, degree=1, direct_term=False)
    free = simulate_free_run(model, u, y_init=y[:2])
    assert not free.diverged
    assert np.max(np.abs(free.y - y)) < 1e-9


def reference_free_run(model, u, y_init):
    """One numpy step at a time: the loop the scalar free run must match."""
    u = np.asarray(u, dtype=float)
    y = np.zeros(len(u))
    start = model.max_lag
    if model.na > 0:
        y[start - model.na : start] = y_init
    for t in range(start, len(u)):
        phi = model.regressors(y, u, np.array([t]))[0]
        val = float(eval_monomials(model.poly.basis, phi) @ model.poly.coefficients[0])
        if not np.isfinite(val) or abs(val) > 1e6:
            y[t:] = y[t - 1]
            return y, True, t
        y[t] = val
    return y, False, None


def random_narx(rng, na, nb, direct_term, degree):
    """Random polynomial NARX whose output lags feed back with gain below 1."""
    n_reg = na + nb + int(direct_term)
    basis = enumerate_monomials(n_reg, 0, degree)
    coeffs = 0.05 * rng.normal(size=len(basis))
    exps = [tuple(e) for e in basis.exponents]
    for i in range(n_reg):
        unit = tuple(int(j == i) for j in range(n_reg))
        coeffs[exps.index(unit)] = (0.6 / na if i < na else 1.0) * rng.uniform(-1, 1)
    layout = tuple(f"phi{i}" for i in range(n_reg))
    return NarxModel(na, nb, direct_term, PolyMap(basis, coeffs[None, :]), layout)


def assert_free_run_matches_reference(model, u, y_init):
    res = simulate_free_run(model, u, y_init)
    y, diverged, index = reference_free_run(model, u, y_init)
    assert (res.diverged, res.divergence_index) == (diverged, index)
    assert np.max(np.abs(res.y - y), initial=0.0) <= 1e-12 * np.max(np.abs(y), initial=0.0)
    return res


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), na=st.integers(0, 2), nb=st.integers(0, 3),
       direct_term=st.booleans(), degree=st.integers(1, 3))
def test_free_run_matches_numpy_reference(seed, na, nb, direct_term, degree):
    if na + nb + int(direct_term) == 0:
        direct_term = True
    rng = np.random.default_rng(seed)
    model = random_narx(rng, na, nb, direct_term, degree)
    u = 0.3 * rng.normal(size=150)
    assert_free_run_matches_reference(model, u, 0.1 * rng.normal(size=na))


@pytest.mark.parametrize("na, nb, direct_term", [(0, 0, True), (0, 2, True), (2, 1, True),
                                                 (1, 2, False)])
@pytest.mark.parametrize("case", ["nan_input", "large_output"])
@pytest.mark.parametrize("k", [0, 37])
def test_free_run_divergence_matches_numpy_reference(na, nb, direct_term, case, k):
    rng = np.random.default_rng(8)
    model = random_narx(rng, na, nb, direct_term, 2)
    u = 0.3 * rng.normal(size=80)
    # the spike enters phi(t) through u(t), or through u(t-1) without a direct term
    t_in = max(k, model.max_lag) - (0 if direct_term else 1)
    u[t_in] = np.nan if case == "nan_input" else 1e7
    res = assert_free_run_matches_reference(model, u, 0.1 * rng.normal(size=na))
    assert res.diverged
    assert res.divergence_index == max(k, model.max_lag)


def test_free_run_feedback_divergence_matches_numpy_reference():
    rng = np.random.default_rng(9)
    model = random_narx(rng, 2, 1, True, 2)
    coeffs = model.poly.coefficients.copy()
    coeffs[0, [tuple(e) for e in model.poly.basis.exponents].index((1, 0, 0, 0))] = 2.0
    unstable = NarxModel(2, 1, True, PolyMap(model.poly.basis, coeffs), model.regressor_layout)
    res = assert_free_run_matches_reference(unstable, 0.3 * rng.normal(size=80), np.ones(2))
    assert res.diverged
    assert model.max_lag < res.divergence_index < 80


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), na=st.integers(1, 3), nb=st.integers(0, 2),
       direct_term=st.booleans(), degree=st.integers(1, 3),
       feedback=st.floats(0.5, 3.0), level=st.sampled_from([0.1, 10.0, 1e4]),
       bad_input=st.sampled_from([None, np.nan, np.inf]))
def test_free_run_reports_divergence_as_a_status(seed, na, nb, direct_term, degree,
                                                 feedback, level, bad_input):
    rng = np.random.default_rng(seed)
    model = random_narx(rng, na, nb, direct_term, degree)
    coeffs = model.poly.coefficients.copy()
    coeffs[0, 1] = feedback  # the y(t-1) term
    model = NarxModel(na, nb, direct_term, PolyMap(model.poly.basis, coeffs),
                      model.regressor_layout)
    u = level * rng.normal(size=60)
    if bad_input is not None:
        u[30] = bad_input
    res = simulate_free_run(model, u, 0.1 * rng.normal(size=na))
    assert np.all(np.isfinite(res.y))
    if res.diverged:
        k = res.divergence_index
        assert model.max_lag <= k < len(u)
        assert np.all(res.y[k:] == res.y[k - 1])
    else:
        assert res.divergence_index is None
        assert np.max(np.abs(res.y)) <= 1e6


def reference_free_run_loop(model, u, y_init):
    """The scalar loop the generated free run replaced: the monomial table
    rebuilt as Python lists at every sample and summed left to right, with
    only the new output checked against the divergence limit."""
    u = np.asarray(u, dtype=float)
    y = np.zeros(len(u))
    start = model.max_lag
    if model.na > 0:
        y[start - model.na : start] = y_init
    basis = model.poly.basis
    plan = MonomialPlan(basis.n_vars, basis.degree_max)
    row = np.zeros(plan.size)
    row[plan.positions(basis)] = model.poly.coefficients[0]
    row, levels = row.tolist(), plan.levels
    u_cols = model.regressors(y, u, np.arange(start, len(u)))[:, model.na :].tolist()
    y_sim = y.tolist()
    lags = np.asarray(y_init, dtype=float)[::-1].tolist()
    for t, u_col in enumerate(u_cols, start):
        phi = lags + u_col
        table = [1.0, *phi]
        for level in levels:
            table += [table[p] * phi[v] for p, v in level]
        val = 0.0
        for c, m in zip(row, table):
            val += c * m
        if not math.isfinite(val) or abs(val) > 1e6:
            y = np.array(y_sim)
            y[t:] = y[t - 1]
            return y, True, t
        y_sim[t] = val
        lags = [val, *lags][: model.na]
    return np.array(y_sim), False, None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), na=st.integers(0, 3), nb=st.integers(0, 3),
       direct_term=st.booleans(), degree=st.integers(1, 3),
       feedback=st.sampled_from([None, 0.9, 2.5]),
       spike=st.sampled_from([None, np.nan, np.inf, -np.inf, 1e7]), at=st.integers(0, 59))
def test_free_run_is_the_scalar_loop_bit_for_bit(seed, na, nb, direct_term, degree,
                                                 feedback, spike, at):
    if na + nb + int(direct_term) == 0:
        direct_term = True
    rng = np.random.default_rng(seed)
    model = random_narx(rng, na, nb, direct_term, degree)
    if feedback is not None and na > 0:
        coeffs = model.poly.coefficients.copy()
        coeffs[0, 1] = feedback  # the y(t-1) term
        model = NarxModel(na, nb, direct_term, PolyMap(model.poly.basis, coeffs),
                          model.regressor_layout)
    u = 0.3 * rng.normal(size=60)
    if spike is not None:
        u[at] = spike
    y_init = 0.1 * rng.normal(size=na)
    res = simulate_free_run(model, u, y_init)
    y, diverged, index = reference_free_run_loop(model, u, y_init)
    assert np.array_equal(res.y, y)
    assert (res.diverged, res.divergence_index) == (diverged, index)


def test_initial_output_beyond_the_limit_stops_the_first_sample():
    # y(t) = 0.1 y(t-1) + u(t-1): the lag is checked as the output is, so an
    # initial output beyond the limit stops the run where the scalar loop
    # went on from the output 2e5
    rng = np.random.default_rng(10)
    template = fit_narx(_record(rng.normal(size=50), rng.normal(size=50)), na=1, nb=2,
                        degree=1, direct_term=False)
    exps = [tuple(e) for e in template.poly.basis.exponents]
    coeffs = np.zeros_like(template.poly.coefficients)
    coeffs[0, exps.index((1, 0, 0))] = 0.1
    coeffs[0, exps.index((0, 1, 0))] = 1.0
    model = NarxModel(1, 2, False, PolyMap(template.poly.basis, coeffs),
                      template.regressor_layout)
    res = simulate_free_run(model, np.ones(6), y_init=np.array([2e6]))
    assert (res.diverged, res.divergence_index) == (True, 2)
    assert np.array_equal(res.y, [0.0, 2e6, 2e6, 2e6, 2e6, 2e6])
    _, diverged, _ = reference_free_run_loop(model, np.ones(6), np.array([2e6]))
    assert not diverged


def test_duffing_free_run_and_extrapolation(duffing_narx):
    model, train, test, spec, params = duffing_narx
    free = simulate_free_run(model, test.input, y_init=test.output[: model.na])
    assert not free.diverged
    err = np.sqrt(np.mean((test.output[model.max_lag:] - free.y[model.max_lag:]) ** 2))
    rms = np.sqrt(np.mean(test.output ** 2))
    assert err <= 0.10 * rms
    # on wider-amplitude data the error fraction grows (extrapolation risk)
    wide_spec = flat_amplitude_spec(512, FS, full_grid(512, 75), rms=0.25)
    wide = _duffing_steady(wide_spec, params, seed=9)
    free_w = simulate_free_run(model, wide.input, y_init=wide.output[: model.na])
    err_w = np.sqrt(np.mean((wide.output[model.max_lag:] - free_w.y[model.max_lag:]) ** 2))
    assert err_w / np.sqrt(np.mean(wide.output ** 2)) > err / rms


def test_free_run_divergence_flagged():
    with pytest.warns(UserWarning):
        basis_model = fit_narx(
            _record(np.zeros(50), np.zeros(50)), na=1, nb=1, degree=2, direct_term=False
        )
    # force an unstable feedback: y(t) = 2 y(t-1) + 1
    coeffs = np.zeros_like(basis_model.poly.coefficients)
    exps = [tuple(e) for e in basis_model.poly.basis.exponents]
    coeffs[0, exps.index((0, 0))] = 1.0
    coeffs[0, exps.index((1, 0))] = 2.0
    unstable = NarxModel(
        na=1, nb=1, direct_term=basis_model.direct_term,
        poly=type(basis_model.poly)(basis_model.poly.basis, coeffs),
        regressor_layout=basis_model.regressor_layout,
    )
    res = simulate_free_run(unstable, np.zeros(100), y_init=np.array([1.0]))
    assert res.diverged
    assert res.divergence_index is not None
    assert np.all(np.abs(res.y) <= 2e6)


def test_free_run_sums_left_to_right():
    # y(t) = 1e16 + u(t) - 1e16 u(t-1) with u = 1 is 0 from left to right
    # and 1 compensated (Python 3.12's sum of floats)
    rng = np.random.default_rng(3)
    template = fit_narx(_record(rng.normal(size=50), rng.normal(size=50)),
                        na=0, nb=1, degree=1, direct_term=True)
    exps = [tuple(e) for e in template.poly.basis.exponents]
    coeffs = np.zeros_like(template.poly.coefficients)
    coeffs[0, exps.index((0, 0))] = 1e16
    coeffs[0, exps.index((1, 0))] = 1.0
    coeffs[0, exps.index((0, 1))] = -1e16
    model = NarxModel(0, 1, True, PolyMap(template.poly.basis, coeffs),
                      template.regressor_layout)
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    res = simulate_free_run(model, np.ones(4), y_init=np.zeros(0))
    assert not res.diverged
    assert np.array_equal(res.y, np.zeros(4))


def test_training_cost_is_a_minimum(duffing_narx):
    model, train, _, _, _ = duffing_narx

    def equation_error_cost(m):
        """Mean squared one-step equation error on the training record."""
        e = (train.output - predict_one_step(m, train))[m.max_lag:]
        return float(np.mean(e**2))

    base_cost = equation_error_cost(model)
    rng = np.random.default_rng(6)
    for _ in range(10):
        idx = rng.integers(model.poly.coefficients.size)
        for delta in (1e-4, -1e-4):
            coeffs = model.poly.coefficients.copy()
            coeffs.flat[idx] += delta
            perturbed = NarxModel(model.na, model.nb, model.direct_term,
                                  type(model.poly)(model.poly.basis, coeffs),
                                  model.regressor_layout)
            assert equation_error_cost(perturbed) >= base_cost - 1e-15


def test_refit_deterministic(duffing_narx):
    model, train, _, _, _ = duffing_narx
    again = fit_narx(train, na=2, nb=2, degree=3)
    assert np.array_equal(model.poly.coefficients, again.poly.coefficients)


def test_narx_json_round_trip(duffing_narx):
    model, train, _, _, _ = duffing_narx
    back = NarxModel.from_dict(model.to_dict())
    pred_a = predict_one_step(model, train)
    pred_b = predict_one_step(back, train)
    assert np.array_equal(pred_a[~np.isnan(pred_a)], pred_b[~np.isnan(pred_b)])
    assert back.regressor_layout == model.regressor_layout
