from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from nlsid.bla import estimate_bla_spectral
from nlsid.decouple import DecoupledFunction, eval_decoupled
from nlsid.polybasis import PolyMap, enumerate_monomials, eval_monomials
from nlsid.pnlss import (FitReport, PnlssModel, fit_pnlss, fit_pnlss_decoupled,
                         init_linear_from_bla, simulate_pnlss,
                         single_branch_init, state_coverage)
from nlsid.serialize import read_json
from nlsid.signals import (SignalRecord, design_multisine, flat_amplitude_spec,
                           full_grid, random_phases, tile_periods)
from nlsid.simulators import NoiseSpec, default_duffing, simulate_duffing, steady_state_record


def linear_model(a, b, c, d, n):
    return PnlssModel(a=a, b=b, c=c, d=d, e_map=None, f_map=None, x0=np.zeros(n))


def cubic_feedback_model(alpha=-0.05):
    """Two-state oscillator with a cubic term in the state update."""
    a = np.array([[1.55, -0.7], [1.0, 0.0]])
    b = np.array([0.5, 0.0])
    c = np.array([0.4, 0.1])
    basis = enumerate_monomials(3, 2, 3)
    coeffs = np.zeros((2, len(basis)))
    idx = [tuple(e) for e in basis.exponents].index((3, 0, 0))
    coeffs[0, idx] = alpha
    return PnlssModel(a=a, b=b, c=c, d=0.0,
                      e_map=PolyMap(basis, coeffs), f_map=None, x0=np.zeros(2))


def _linear_records(spec, b, a, n_real, p=2):
    recs = []
    n = spec.period_samples
    for m in range(n_real):
        u = tile_periods(design_multisine(random_phases(spec, m)), p + 1)
        y = sp_signal.lfilter(b, a, u)
        recs.append(SignalRecord(spec.sample_rate_hz, n, p, u[n:], y[n:]))
    return recs


def test_simulate_zero_everything():
    m = cubic_feedback_model()
    res = simulate_pnlss(m, np.zeros(64))
    assert not res.diverged
    assert np.allclose(res.y, 0.0)


def test_simulate_linear_matches_filter_oracle():
    b, a = sp_signal.butter(2, 0.2)
    a_m, b_m, c_m, d_m = sp_signal.tf2ss(b, a)
    model = linear_model(a_m, b_m.ravel(), c_m.ravel(), float(d_m.ravel()[0]), 2)
    u = np.random.default_rng(0).normal(size=300)
    res = simulate_pnlss(model, u)
    ref = sp_signal.lfilter(b, a, u)
    assert np.max(np.abs(res.y - ref)) < 1e-10


def test_simulate_divergence_status():
    m = PnlssModel(a=np.array([[1.5]]), b=[1.0], c=[1.0], d=0.0,
                   e_map=None, f_map=None, x0=[1.0])
    res = simulate_pnlss(m, np.zeros(200))
    assert res.diverged
    assert res.divergence_index is not None


def reference_simulate(model, u, x0=None):
    """One numpy step at a time: the loop the scalar simulation must match."""
    u = np.asarray(u, dtype=float)
    n = model.state_dim
    x = model.x0.copy() if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    xs = np.zeros((len(u), n))
    y = np.zeros(len(u))
    for t in range(len(u)):
        xs[t] = x
        z = np.append(x, u[t])
        yt = float(model.c @ x + model.d * u[t])
        if model.f_map is not None:
            yt += float(eval_monomials(model.f_map.basis, z) @ model.f_map.coefficients[0])
        y[t] = yt
        if not np.isfinite(yt) or abs(yt) > 1e6 or np.max(np.abs(x)) > 1e6:
            y[t:] = y[t - 1] if t > 0 else 0.0
            return y, xs, True, t
        x_new = model.a @ x + model.b * u[t]
        if isinstance(model.e_map, PolyMap):
            x_new = x_new + model.e_map.coefficients @ eval_monomials(model.e_map.basis, z)
        elif model.e_map is not None:
            x_new = x_new + eval_decoupled(model.e_map, z)
        x = x_new
    return y, xs, False, None


def assert_rel_close(got, ref, rtol=1e-12):
    """Equal non-finite entries; finite ones within rtol of the largest |ref|."""
    got, ref = np.asarray(got), np.asarray(ref)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
    scale = np.max(np.abs(ref[finite]), initial=0.0)
    assert np.max(np.abs(got[finite] - ref[finite]), initial=0.0) <= rtol * scale


def assert_matches_reference(model, u, x0=None):
    res = simulate_pnlss(model, u, x0)
    y, xs, diverged, index = reference_simulate(model, u, x0)
    assert (res.diverged, res.divergence_index) == (diverged, index)
    assert_rel_close(res.y, y)
    assert_rel_close(res.x_traj, xs)
    return res


def random_model(rng, n, e_kind, f_degree=None, e_degrees=(2, 3), branch_lengths=(3,)):
    """Stable linear part with a small E (PolyMap, decoupled or none) and F."""
    a = rng.normal(size=(n, n))
    a *= 0.8 / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-12)
    e_map = None
    if e_kind == "poly":
        basis = enumerate_monomials(n + 1, *e_degrees)
        e_map = PolyMap(basis, 0.05 * rng.normal(size=(n, len(basis))))
    elif e_kind == "decoupled":
        r = len(branch_lengths)
        e_map = DecoupledFunction(0.5 * rng.normal(size=(n, r)), 0.5 * rng.normal(size=(n + 1, r)),
                                  tuple(0.05 * rng.normal(size=k) for k in branch_lengths))
    f_map = None
    if f_degree is not None:
        basis = enumerate_monomials(n + 1, 2, f_degree)
        f_map = PolyMap(basis, 0.05 * rng.normal(size=(1, len(basis))))
    return PnlssModel(a=a, b=rng.normal(size=n), c=rng.normal(size=n), d=rng.normal(),
                      e_map=e_map, f_map=f_map, x0=0.1 * rng.normal(size=n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       e_kind=st.sampled_from(["none", "poly", "decoupled"]),
       e_degrees=st.sampled_from([(2, 2), (2, 3), (1, 3), (0, 2)]),
       f_degree=st.sampled_from([None, 2, 3]),
       branch_lengths=st.sampled_from([(3,), (4,), (2, 4), (6, 3), (1, 5)]),
       override_x0=st.booleans())
def test_simulate_matches_numpy_reference(seed, n, e_kind, e_degrees, f_degree,
                                          branch_lengths, override_x0):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, e_kind, f_degree, e_degrees, branch_lengths)
    # a small drive: trajectories that grow or wander chaotically amplify the
    # two loops' different summation order past the 1e-12 tolerance
    u = 0.2 * rng.normal(size=120)
    x0 = 0.2 * rng.normal(size=n) if override_x0 else None
    assert_matches_reference(model, u, x0)


def _spike(u, k, value):
    return np.where(np.arange(len(u)) == k, value, u)


DIVERGENCE_CASES = {
    # name: (model, u, x0) that diverge at sample k, or soon after it for the
    # doubling state (its output stays zero, so only |x| can trip the check)
    "nan_input": lambda m, u, k: (m, _spike(u, k, np.nan), None),
    "large_output": lambda m, u, k: (replace(m, d=1.0), _spike(u, k, 1e7), None),
    "large_state": lambda m, u, k: (
        replace(m, a=(2.0 if k else 1.0) * np.eye(m.state_dim), c=np.zeros(m.state_dim),
                d=0.0, f_map=None),
        u, np.full(m.state_dim, 1.0 if k else 2e6)),
}


@pytest.mark.parametrize("e_kind", ["none", "poly", "decoupled"])
@pytest.mark.parametrize("case", sorted(DIVERGENCE_CASES))
@pytest.mark.parametrize("k", [0, 37])
def test_simulate_divergence_matches_numpy_reference(e_kind, case, k):
    rng = np.random.default_rng(5)
    model = random_model(rng, 2, e_kind, f_degree=2 if e_kind == "poly" else None,
                         branch_lengths=(2, 4))
    u = 0.1 * rng.normal(size=80)
    assert not simulate_pnlss(model, u).diverged
    model, u, x0 = DIVERGENCE_CASES[case](model, u, k)
    res = assert_matches_reference(model, u, x0)
    assert res.diverged
    if case == "large_state" and k:
        assert 0 < res.divergence_index < len(u)
    else:
        assert res.divergence_index == k


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       e_kind=st.sampled_from(["none", "poly", "decoupled"]),
       radius=st.floats(0.5, 1.6), gain=st.sampled_from([1.0, 20.0, 1e3]),
       level=st.sampled_from([0.1, 10.0, 1e4]),
       last_state=st.sampled_from([None, np.nan, np.inf, -1e7]),
       blind_output=st.booleans())
def test_simulate_reports_divergence_as_a_status(seed, n, e_kind, radius, gain, level,
                                                 last_state, blind_output):
    # The state check max(map(abs, x)) > limit never flags a NaN state; the
    # output sums every table entry, so 0 * NaN flags it there.
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, e_kind, f_degree=2)
    e_map = model.e_map
    if isinstance(e_map, PolyMap):
        e_map = PolyMap(e_map.basis, gain * e_map.coefficients)
    elif e_map is not None:
        e_map = replace(e_map, w=gain * e_map.w)
    c, x0 = model.c.copy(), model.x0.copy()
    if blind_output:
        c[-1] = 0.0
    if last_state is not None:
        x0[-1] = last_state
    model = replace(model, a=model.a * (radius / 0.8), c=c, e_map=e_map, x0=x0)
    u = level * rng.normal(size=60)
    res = simulate_pnlss(model, u)
    assert np.all(np.isfinite(res.y))
    if res.diverged:
        k = res.divergence_index
        assert 0 <= k < len(u)
        assert np.all(res.y[k:] == (res.y[k - 1] if k else 0.0))
    else:
        assert res.divergence_index is None
        assert np.max(np.abs(res.y)) <= 1e6
        assert np.all(np.isfinite(res.x_traj)) and np.max(np.abs(res.x_traj)) <= 1e6
    if last_state is not None:
        assert res.diverged and res.divergence_index == 0


def test_init_linear_from_bla_exact_second_order():
    spec = flat_amplitude_spec(256, 1.0, full_grid(256, 100), rms=1.0)
    b, a = (0.2, 0.1, 0.05), (1.0, -1.2, 0.5)
    recs = _linear_records(spec, b, a, 2)
    bla = estimate_bla_spectral(recs, spec)
    model, frf_rms = init_linear_from_bla(bla, 2)
    assert frf_rms < 1e-6
    omega = 2 * np.pi * bla.lines / 256
    z = np.exp(1j * omega)
    g_true = np.polyval(b[::-1], 1 / z) / np.polyval(a[::-1], 1 / z)
    assert np.max(np.abs(model.frf(omega) - g_true) / np.abs(g_true)) < 1e-6


def test_init_linear_overmodelled_extra_modes_cancel():
    spec = flat_amplitude_spec(256, 1.0, full_grid(256, 100), rms=1.0)
    b, a = (0.2, 0.1), (1.0, -0.5)  # true order 1
    recs = _linear_records(spec, b, a, 2)
    bla = estimate_bla_spectral(recs, spec)
    model, frf_rms = init_linear_from_bla(bla, 3)
    assert frf_rms < 1e-6
    import scipy.signal as ss
    num, den = ss.ss2tf(model.a, model.b[:, None], model.c[None, :], [[model.d]])
    poles = np.roots(den)
    zeros = np.roots(num[0])
    # every extra pole nearly cancels against a zero
    true_pole = 0.5
    extra = [p for p in poles if abs(p - true_pole) > 1e-4]
    assert len(extra) == 2
    for p in extra:
        assert np.min(np.abs(zeros - p)) < 1e-3


def test_init_linear_needs_enough_lines():
    spec = flat_amplitude_spec(64, 1.0, (1, 3), rms=1.0)
    recs = _linear_records(spec, (0.5,), (1.0, -0.3), 1)
    bla = estimate_bla_spectral(recs, spec)
    with pytest.raises(ValueError, match="lines"):
        init_linear_from_bla(bla, 2)


def _fd_gradient(fun, theta, eps=1e-6):
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        tp = theta.copy(); tp[i] += eps
        tm = theta.copy(); tm[i] -= eps
        g[i] = (fun(tp) - fun(tm)) / (2 * eps)
    return g


# E of each kind over (x1, x2, u); the r = 2 branches have unequal lengths,
# so the fit's parameter vector holds a zero-padded coefficient
E_MAPS = {
    "polymap": lambda basis: PolyMap(basis, np.zeros((2, len(basis)))),
    "decoupled_r1": lambda basis: DecoupledFunction(
        [[0.3], [-0.1]], [[0.8], [0.2], [0.4]], ([0.0, 0.0, -0.15, -0.05],)),
    "decoupled_r2": lambda basis: DecoupledFunction(
        [[0.3, 0.1], [-0.1, 0.2]], [[0.8, -0.3], [0.2, 0.5], [0.4, 0.1]],
        ([0.0, 0.0, -0.15, -0.05], [0.0, 0.1, 0.08])),
}


@pytest.mark.parametrize("f_kind", [None, "polymap"])
@pytest.mark.parametrize("e_kind", sorted(E_MAPS))
def test_analytic_gradient_matches_finite_differences(e_kind, f_kind):
    # small instance: n=2, degree 2, N=128, five random parameter points
    import nlsid.pnlss as P

    rng = np.random.default_rng(1)
    truth = cubic_feedback_model()
    u = rng.normal(0, 0.5, 128)
    y = simulate_pnlss(truth, u).y
    rec = SignalRecord(1.0, 128, 1, u, y)
    basis = enumerate_monomials(3, 2, 2)
    template = replace(truth, e_map=E_MAPS[e_kind](basis),
                       f_map=None if f_kind is None else PolyMap(basis, np.zeros((1, len(basis)))))
    lines = np.arange(1, 40)
    bins, sqrt_w, y_f = P._freq_residual_factory(rec, lines, None)

    def residual(th):
        m = P._unpack(th, template)
        sim = simulate_pnlss(m, u)
        r_c = (y_f - np.fft.rfft(sim.y)[bins]) / sqrt_w
        return np.concatenate([r_c.real, r_c.imag])

    def cost(th):
        r = residual(th)
        return float(r @ r)

    theta0 = P._pack(template)
    for trial in range(5):
        theta = theta0 + 0.01 * rng.normal(size=len(theta0))
        m = P._unpack(theta, template)
        sim = simulate_pnlss(m, u)
        assert not sim.diverged
        j_c = -np.fft.rfft(P._output_jacobian(m, sim.x_traj, u), axis=0)[bins] / sqrt_w[:, None]
        j = np.concatenate([j_c.real, j_c.imag], axis=0)
        g_analytic = 2.0 * j.T @ residual(theta)
        g_fd = _fd_gradient(cost, theta)
        scale = np.maximum(np.abs(g_fd), 1e-6 * np.max(np.abs(g_fd)))
        assert np.max(np.abs(g_analytic - g_fd) / scale) < 1e-4


def test_fit_simulates_each_lm_point_once(monkeypatch):
    # the Jacobian at an accepted point and the report reuse that trial's
    # simulation: one run for the start and one per LM trial
    import nlsid.pnlss as P

    truth = cubic_feedback_model(alpha=-0.08)
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(256, 1.0, full_grid(256, 60), rms=1.0), 7)), 1)
    rec = SignalRecord(1.0, 256, 1, u, simulate_pnlss(truth, u).y)
    points, residual_calls = [], []
    simulate, engine = P.simulate_pnlss, P.levenberg_marquardt

    def counted_simulate(model, inputs, x0=None):
        points.append(P._pack(model).tobytes())
        return simulate(model, inputs, x0)

    def counted_engine(residual, *args, **kwargs):
        def counted_residual(theta):
            residual_calls.append(1)
            return residual(theta)
        return engine(counted_residual, *args, **kwargs)

    monkeypatch.setattr(P, "simulate_pnlss", counted_simulate)
    monkeypatch.setattr(P, "levenberg_marquardt", counted_engine)
    fitted, report = fit_pnlss(replace(truth, e_map=None), rec, np.arange(1, 80),
                               state_degree=3, max_iterations=10)
    assert len(residual_calls) > len(report.cost_trajectory) > 1
    assert len(points) == len(residual_calls)
    assert len(set(points)) == len(points)
    assert P._pack(fitted).tobytes() in points
    y_fitted = simulate(fitted, u).y
    assert report.final_rms_time == float(np.sqrt(np.mean((rec.output - y_fitted) ** 2)))


def test_fit_self_consistency_from_perturbed_truth():
    rng = np.random.default_rng(2)
    truth = cubic_feedback_model()
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(512, 1.0, full_grid(512, 120), rms=1.0), 3)), 1)
    y = simulate_pnlss(truth, u).y
    rec = SignalRecord(1.0, 512, 1, u, y)
    start = replace(
        truth,
        a=truth.a * (1 + 0.01 * rng.normal(size=(2, 2))),
        b=truth.b * (1 + 0.01 * rng.normal(size=2)),
        e_map=PolyMap(truth.e_map.basis,
                      truth.e_map.coefficients * (1 + 0.01 * rng.normal(size=truth.e_map.coefficients.shape))),
    )
    fitted, report = fit_pnlss(start, rec, np.arange(1, 200), state_degree=None)
    assert report.final_rms_time < 1e-6 * np.sqrt(np.mean(y**2))


def test_fit_linear_limit_matches_linear_solution():
    # E and F absent: the optimizer is pure linear refinement and must keep
    # the exact linear fit
    spec = flat_amplitude_spec(256, 1.0, full_grid(256, 100), rms=1.0)
    b, a = (0.3, 0.15), (1.0, -0.8)
    recs = _linear_records(spec, b, a, 2)
    bla = estimate_bla_spectral(recs, spec)
    lin, _ = init_linear_from_bla(bla, 2)
    fitted, report = fit_pnlss(lin, recs[0], spec.excited_lines, state_degree=None)
    omega = 2 * np.pi * np.asarray(spec.excited_lines) / 256
    assert np.max(np.abs(fitted.frf(omega) - lin.frf(omega))) < 1e-6
    assert report.final_rms_time < 1e-9


def test_fit_cost_trajectory_monotone_nonincreasing():
    truth = cubic_feedback_model(alpha=-0.08)
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(256, 1.0, full_grid(256, 60), rms=1.0), 7)), 1)
    y = simulate_pnlss(truth, u).y + np.random.default_rng(3).normal(0, 1e-3, len(u))
    rec = SignalRecord(1.0, 256, 1, u, y)
    lin = replace(truth, e_map=None)
    fitted, report = fit_pnlss(lin, rec, np.arange(1, 80), state_degree=3,
                               max_iterations=40)
    assert np.all(np.diff(report.cost_trajectory) <= 0.0)
    assert report.cost_trajectory[-1] < report.cost_trajectory[0]


def test_fit_rejects_diverging_init():
    bad = PnlssModel(a=np.array([[2.0, 0.0], [0.0, 0.1]]), b=[1.0, 1.0],
                     c=[1.0, 0.0], d=0.0, e_map=None, f_map=None, x0=[1.0, 0.0])
    u = np.random.default_rng(4).normal(size=128)
    rec = SignalRecord(1.0, 128, 1, u, u)
    with pytest.raises(ValueError, match="diverg"):
        fit_pnlss(bad, rec, np.arange(1, 20), state_degree=2)


def test_weights_shape_checked():
    truth = cubic_feedback_model()
    u = np.random.default_rng(5).normal(size=128)
    rec = SignalRecord(1.0, 128, 1, u, simulate_pnlss(truth, u).y)
    with pytest.raises(ValueError, match="weights"):
        fit_pnlss(replace(truth, e_map=None), rec, np.arange(1, 20),
                  weights=np.ones(5))


def test_serialization_round_trip_bit_exact_simulation():
    truth = cubic_feedback_model()
    back = PnlssModel.from_dict(truth.to_dict())
    u = np.random.default_rng(6).normal(0, 0.5, 200)
    assert np.array_equal(simulate_pnlss(truth, u).y, simulate_pnlss(back, u).y)


def test_serialization_round_trip_decoupled_state_map():
    rng = np.random.default_rng(7)
    dec = DecoupledFunction(rng.normal(size=(2, 1)), rng.normal(size=(3, 1)),
                            (np.array([0.0, 0.0, 0.1, 0.02]),))
    m = PnlssModel(a=np.array([[0.5, 0.1], [-0.1, 0.4]]), b=[1.0, 0.2],
                   c=[1.0, 0.0], d=0.0, e_map=dec, f_map=None, x0=[0.0, 0.0])
    back = PnlssModel.from_dict(m.to_dict())
    u = rng.normal(size=100)
    assert np.array_equal(simulate_pnlss(m, u).y, simulate_pnlss(back, u).y)
    assert isinstance(back.e_map, DecoupledFunction)


def test_fit_decoupled_self_consistency():
    rng = np.random.default_rng(8)
    dec = DecoupledFunction(np.array([[0.3], [-0.1]]), np.array([[0.8], [0.2], [0.4]]),
                            (np.array([0.0, 0.0, -0.15, -0.05]),))
    truth = PnlssModel(a=np.array([[1.2, -0.5], [1.0, 0.0]]), b=[0.4, 0.0],
                       c=[0.5, 0.1], d=0.0, e_map=dec, f_map=None, x0=[0.0, 0.0])
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(256, 1.0, full_grid(256, 60), rms=1.0), 9)), 1)
    y = simulate_pnlss(truth, u).y
    rec = SignalRecord(1.0, 256, 1, u, y)
    start = replace(truth, e_map=DecoupledFunction(
        dec.w * 1.05, dec.v * 0.95, (dec.branches[0] * 1.1,)))
    # the branch constant can trade against a pure output offset, so the DC
    # bin must be part of the cost for a full time-domain match
    fitted, report = fit_pnlss_decoupled(start, rec, np.arange(0, 128))
    assert report.final_rms_time < 1e-6 * np.sqrt(np.mean(y**2))
    assert np.all(np.diff(report.cost_trajectory) <= 0.0)


def test_fit_decoupled_state_map_with_output_polynomial():
    rng = np.random.default_rng(13)
    dec = DecoupledFunction(np.array([[0.3], [-0.1]]), np.array([[0.8], [0.2], [0.4]]),
                            (np.array([0.0, 0.0, -0.15, -0.05]),))
    basis = enumerate_monomials(3, 2, 2)
    f_map = PolyMap(basis, 0.02 * rng.normal(size=(1, len(basis))))
    truth = PnlssModel(a=np.array([[1.2, -0.5], [1.0, 0.0]]), b=[0.4, 0.0],
                       c=[0.5, 0.1], d=0.0, e_map=dec, f_map=f_map, x0=[0.0, 0.0])
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(256, 1.0, full_grid(256, 60), rms=1.0), 9)), 1)
    y = simulate_pnlss(truth, u).y
    rec = SignalRecord(1.0, 256, 1, u, y)
    start = replace(truth, e_map=DecoupledFunction(
        dec.w * 1.05, dec.v * 0.95, (dec.branches[0] * 1.1,)),
        f_map=PolyMap(basis, f_map.coefficients * 0.9))
    fitted, report = fit_pnlss(start, rec, np.arange(0, 128), state_degree=None)
    assert isinstance(fitted.e_map, DecoupledFunction) and fitted.f_map is not None
    assert report.final_rms_time < 1e-6 * np.sqrt(np.mean(y**2))


def test_fit_decoupled_requires_decoupled_map():
    truth = cubic_feedback_model()
    u = np.random.default_rng(10).normal(size=64)
    rec = SignalRecord(1.0, 64, 1, u, simulate_pnlss(truth, u).y)
    with pytest.raises(TypeError, match="Decoupled"):
        fit_pnlss_decoupled(truth, rec, np.arange(1, 10))


def test_single_branch_init_on_rank_one_truth():
    # when E really is one branch, the projection search finds it
    dec = DecoupledFunction(np.array([[0.25], [-0.1]]),
                            np.array([[0.9], [0.1], [0.3]]),
                            (np.array([0.0, 0.0, -0.2, -0.08]),))
    from nlsid.decouple import to_polymap
    truth = PnlssModel(a=np.array([[1.2, -0.5], [1.0, 0.0]]), b=[0.4, 0.0],
                       c=[0.5, 0.1], d=0.0, e_map=to_polymap(dec), f_map=None,
                       x0=[0.0, 0.0])
    u = np.random.default_rng(11).normal(0, 0.8, 600)
    sim = simulate_pnlss(truth, u)
    assert not sim.diverged
    z = np.concatenate([sim.x_traj, u[:, None]], axis=1)
    init = single_branch_init(truth, z, branch_degree=3)
    sim_init = simulate_pnlss(init, u)
    rel = np.sqrt(np.mean((sim_init.y - sim.y) ** 2)) / np.sqrt(np.mean(sim.y**2))
    assert rel < 1e-4  # an initializer, not a fit: the refit polishes the rest


def reference_single_branch_init(model, z, branch_degree):
    """The sequential direction search: one least-squares fit over the whole
    trajectory per direction, the search :func:`single_branch_init` must
    reproduce bit for bit."""
    n = model.state_dim
    e_vals = (model.e_map.coefficients @ eval_monomials(model.e_map.basis, z).T).T
    base = np.concatenate([np.ones((len(z), 1)), z], axis=1)
    rng = np.random.default_rng(0)

    def direction_fit(v):
        x = z @ v
        k = np.concatenate(
            [base, np.stack([x**j for j in range(2, branch_degree + 1)], axis=1)], axis=1)
        sol, *_ = np.linalg.lstsq(k, e_vals, rcond=None)
        return float(np.sqrt(np.mean((e_vals - k @ sol) ** 2))), sol

    dirs = rng.standard_normal((720, n + 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    best = (np.inf, None, None)
    for v in dirs:
        rms, sol = direction_fit(v)
        if rms < best[0]:
            best = (rms, v, sol)
    for radius in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
        for _ in range(40):
            v = best[1] + radius * rng.standard_normal(n + 1)
            v /= np.linalg.norm(v)
            rms, sol = direction_fit(v)
            if rms < best[0]:
                best = (rms, v, sol)
    _, v, sol = best
    u_svd, s_svd, vt_svd = np.linalg.svd(sol[n + 2 :].T, full_matrices=False)
    w = u_svd[:, 0]
    coeffs = np.zeros(branch_degree + 1)
    coeffs[2:] = s_svd[0] * vt_svd[0]
    coeffs[0] = float(w @ sol[0])
    return replace(model, a=model.a + sol[1 : n + 2].T[:, :n], b=model.b + sol[1 : n + 2].T[:, n],
                   e_map=DecoupledFunction(w[:, None], v[:, None], (coeffs,)))


def assert_same_single_branch(got, want):
    assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)
    assert np.array_equal(got.e_map.v, want.e_map.v)
    assert np.array_equal(got.e_map.w, want.e_map.w)
    assert len(got.e_map.branches) == len(want.e_map.branches) == 1
    assert np.array_equal(got.e_map.branches[0], want.e_map.branches[0])


def test_single_branch_init_matches_sequential_search_on_criterion_5_cloud():
    # the criterion-5 model of the benchmark, on its training excitation
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "c5_model.json"
    model = PnlssModel.from_dict(read_json(path)["model"])
    spec = flat_amplitude_spec(1024, 512.0, full_grid(1024, 150), rms=0.1)
    u = tile_periods(design_multisine(random_phases(spec, 0)), 2)
    sim = simulate_pnlss(model, u)
    z = np.concatenate([sim.x_traj, u[:, None]], axis=1)
    assert_same_single_branch(single_branch_init(model, z, branch_degree=5),
                              reference_single_branch_init(model, z, 5))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), branch_degree=st.integers(3, 5),
       e_degree=st.integers(2, 4), num_points=st.sampled_from([40, 300]))
@example(seed=1, n=3, branch_degree=5, e_degree=3, num_points=40)  # 40 points, 126 monomials
def test_single_branch_init_matches_sequential_search(seed, n, branch_degree, e_degree,
                                                      num_points):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, "poly", e_degrees=(2, e_degree))
    z = rng.normal(0.0, 0.7, (num_points, n + 1))
    assert_same_single_branch(single_branch_init(model, z, branch_degree),
                              reference_single_branch_init(model, z, branch_degree))


def test_single_branch_init_needs_a_power_block():
    model = cubic_feedback_model()
    z = np.random.default_rng(2).normal(size=(50, 3))
    with pytest.raises(ValueError, match="branch_degree"):
        single_branch_init(model, z, branch_degree=1)


def test_state_coverage_flags_larger_inputs():
    truth = cubic_feedback_model()
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(256, 1.0, full_grid(256, 60), rms=0.6), 12)), 1)
    rec = SignalRecord(1.0, 256, 1, u, simulate_pnlss(truth, u).y)
    lin = replace(truth, e_map=None)
    fitted, report = fit_pnlss(lin, rec, np.arange(1, 80), state_degree=3,
                               max_iterations=30)
    same = state_coverage(report, simulate_pnlss(fitted, u))
    assert not same.extrapolation_flag
    wide = simulate_pnlss(fitted, 3.0 * u)
    cov = state_coverage(report, wide)
    assert cov.extrapolation_flag


FS = 200.0


def test_cross_simulator_duffing_discretization_fit():
    # a fitted discrete cubic-feedback state-space reproduces the RK4-integrated
    # oscillator to better than 1% once the discretization is matched on data
    params = default_duffing(FS, hardening=0.1, oversample=16)
    spec = flat_amplitude_spec(512, FS, full_grid(512, 75), rms=0.1)

    def steady(seed):
        up = design_multisine(random_phases(spec, seed))
        return steady_state_record(lambda u, fs: simulate_duffing(params, u, fs),
                                   up, FS, 2, 3)

    recs = [steady(m) for m in range(2)]
    bla = estimate_bla_spectral(recs, spec)
    lin, _ = init_linear_from_bla(bla, 2)
    model, report = fit_pnlss(lin, recs[0], spec.excited_lines, state_degree=3)
    val = steady(7)
    sim = simulate_pnlss(model, val.input)
    second = slice(512, 1024)
    err = np.sqrt(np.mean((val.output[second] - sim.y[second]) ** 2))
    assert err <= 0.01 * np.sqrt(np.mean(val.output[second] ** 2))
