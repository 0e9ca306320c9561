import numpy as np
import pytest
from scipy import signal as sp_signal

from nlsid.bla import bla_shift_study, estimate_bla_spectral
from nlsid.signals import (SignalRecord, design_multisine, flat_amplitude_spec,
                           full_grid, random_phases, tile_periods)
from nlsid.simulators import NoiseSpec, default_duffing, simulate_duffing, simulate_static


def _realize(spec, seed, p=2):
    return tile_periods(design_multisine(random_phases(spec, seed)), p)


def _linear_records(spec, b, a, n_real, p=2):
    recs = []
    n = spec.period_samples
    for m in range(n_real):
        u = _realize(spec, m, p + 1)
        y = sp_signal.lfilter(b, a, u)
        recs.append(SignalRecord(spec.sample_rate_hz, n, p, u[n:], y[n:]))
    return recs


def test_linear_system_frf_recovered():
    spec = flat_amplitude_spec(256, 1.0, full_grid(256, 100), rms=1.0)
    b, a = (0.3, 0.2), (1.0, -0.6)
    recs = _linear_records(spec, b, a, 2)
    model = estimate_bla_spectral(recs, spec)
    z = np.exp(2j * np.pi * model.lines / 256)
    g_true = (b[0] + b[1] / z) / (1.0 + a[1] / z)
    assert np.max(np.abs(model.frf - g_true) / np.abs(g_true)) < 1e-10


def test_bla_level_independent_for_linear_system():
    b, a = (0.5, 0.1), (1.0, -0.4)
    frfs = []
    for rms in (0.5, 2.0):
        spec = flat_amplitude_spec(128, 1.0, full_grid(128, 40), rms=rms)
        model = estimate_bla_spectral(_linear_records(spec, b, a, 2), spec)
        frfs.append(model.frf)
    assert np.max(np.abs(frfs[0] - frfs[1]) / np.abs(frfs[1])) < 1e-6


def test_cubic_static_bla_near_three_sigma_squared():
    # BLA of y = u^3 under a Gaussian-like excitation of unit power is 3 sigma_u^2
    n, n_real = 512, 100
    spec = flat_amplitude_spec(n, 1.0, full_grid(n, 200), rms=1.0)
    recs = []
    for m in range(n_real):
        u = _realize(spec, m)
        y = simulate_static([0.0, 0.0, 0.0, 1.0], u).output
        recs.append(SignalRecord(1.0, n, 2, u, y))
    model = estimate_bla_spectral(recs, spec)
    g_mean = np.mean(model.frf.real)
    assert abs(g_mean - 3.0) / 3.0 < 0.05


def test_cubic_with_process_noise_bla_shifts():
    # (u + w)^3 with independent w lifts the BLA to 3 sigma_u^2 + 3 sigma_w^2
    n, n_real, sigma_w = 512, 100, 0.5
    spec = flat_amplitude_spec(n, 1.0, full_grid(n, 200), rms=1.0)
    recs = []
    for m in range(n_real):
        u = _realize(spec, m)
        noise = NoiseSpec(process_std=sigma_w, process_entry="before_nonlinearity", seed=9000 + m)
        y = simulate_static([0.0, 0.0, 0.0, 1.0], u, noise).output
        recs.append(SignalRecord(1.0, n, 2, u, y))
    model = estimate_bla_spectral(recs, spec)
    g_mean = np.mean(model.frf.real)
    assert abs(g_mean - 3.75) / 3.75 < 0.05


def test_variance_total_dominates_noise_variance_under_distortion():
    n, n_real = 256, 50
    spec = flat_amplitude_spec(n, 1.0, full_grid(n, 80), rms=1.0)
    recs = []
    for m in range(n_real):
        u = _realize(spec, m)
        rng = np.random.default_rng(500 + m)
        y = u + 0.3 * u**3 + rng.normal(0, 1e-3, len(u))
        recs.append(SignalRecord(1.0, n, 2, u, y))
    model = estimate_bla_spectral(recs, spec)
    violations = np.mean(model.frf_variance_total < model.frf_variance_noise)
    assert violations <= 0.05


def test_vanishing_input_line_rejected():
    spec = flat_amplitude_spec(64, 1.0, (1, 3, 5), rms=1.0)
    u = _realize(spec, 0)
    rec = SignalRecord(1.0, 64, 2, u, u)
    bad_spec = flat_amplitude_spec(64, 1.0, (1, 3, 5, 7), rms=1.0)  # line 7 unexcited in data
    with pytest.raises(ValueError, match="line"):
        estimate_bla_spectral([rec], bad_spec)


FS = 200.0


def _duffing_system(params, noise_std=1e-5):
    def system(u, fs):
        n = len(u) // 3
        rec = simulate_duffing(params, np.concatenate([u[:n], u]), fs,
                               NoiseSpec(measurement_std=noise_std, seed=0))
        return SignalRecord(fs, n, 3, rec.input[n:], rec.output[n:])
    return system


def _shift_spec():
    return flat_amplitude_spec(256, FS, full_grid(256, 50), rms=1.0)


def test_shift_study_linear_resonance_constant():
    params = default_duffing(FS, hardening=0.0)
    rows = bla_shift_study(_duffing_system(params), _shift_spec(), [0.1, 0.2, 0.4],
                           num_realizations=2, num_periods=3)
    res = [r.resonance_hz for r in rows]
    assert all(r is not None for r in res)
    grid_step = FS / 256
    assert max(res) - min(res) < grid_step


def test_shift_study_hardening_resonance_increases():
    params = default_duffing(FS, hardening=1.0)
    rows = bla_shift_study(_duffing_system(params), _shift_spec(), [0.1, 0.25, 0.5],
                           num_realizations=2, num_periods=3)
    res = [r.resonance_hz for r in rows]
    assert res[0] < res[1] < res[2]


def test_shift_study_softening_resonance_decreases():
    # mild softening and low levels: a strongly driven softening spring escapes
    params = default_duffing(FS, hardening=-0.15)
    rows = bla_shift_study(_duffing_system(params), _shift_spec(), [0.04, 0.09, 0.14],
                           num_realizations=2, num_periods=3)
    res = [r.resonance_hz for r in rows]
    assert res[0] > res[1] > res[2]


def test_shift_study_needs_two_levels():
    with pytest.raises(ValueError, match="levels"):
        bla_shift_study(_duffing_system(default_duffing(FS)), _shift_spec(), [0.1])
