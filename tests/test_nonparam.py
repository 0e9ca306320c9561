import numpy as np
import pytest

from nlsid.nonparam import classify_lines, detect_process_noise, sample_statistics
from nlsid.signals import (MultisineSpec, SignalRecord, design_multisine,
                           flat_amplitude_spec, odd_grid,
                           odd_random_skip_grid, random_phases, tile_periods)
from nlsid.simulators import simulate_static, NoiseSpec


def _odd_skip_spec(n=1024, k_max=201, rms=1.0, seed=0):
    excited, _ = odd_random_skip_grid(n, k_max, seed=seed, group_size=4)
    return random_phases(
        flat_amplitude_spec(n, float(n), excited, rms=rms, grid_kind="odd_random_skip"),
        seed + 1,
    )


def _record_from_nonlinearity(spec, poly, p, noise_std, seed):
    u = tile_periods(design_multisine(spec), p)
    rng = np.random.default_rng(seed)
    y = simulate_static(poly, u).output + rng.normal(0, noise_std, len(u))
    return SignalRecord(spec.sample_rate_hz, spec.period_samples, p, u, y)


def test_identical_periods_zero_variance():
    spec = _odd_skip_spec(256, 41)
    rec = _record_from_nonlinearity(spec, [0.0, 1.0], 4, 0.0, 0)
    stats = sample_statistics(rec)
    assert np.allclose(stats.u_var, 0.0)
    assert np.allclose(stats.y_var, 0.0)
    assert np.allclose(np.abs(stats.yu_covar), 0.0)


def test_white_noise_variance_level():
    # Parseval oracle: white noise of variance s^2 has E sigma_Y^2(k) = N s^2
    n, p, sigma = 256, 64, 1.0
    rng = np.random.default_rng(42)
    u = np.zeros(n * p)
    y = rng.normal(0, sigma, n * p)
    rec = SignalRecord(float(n), n, p, u, y)
    stats = sample_statistics(rec)
    mean_var = np.mean(stats.y_var)
    assert abs(mean_var - n * sigma**2) / (n * sigma**2) < 0.10


def test_two_period_variance_algebra():
    # P = 2 reduces to |U1 - U2|^2 / 2
    n = 64
    rng = np.random.default_rng(1)
    u = rng.normal(size=2 * n)
    rec = SignalRecord(float(n), n, 2, u, u.copy())
    stats = sample_statistics(rec)
    u1 = np.fft.fft(u[:n])
    u2 = np.fft.fft(u[n:])
    assert np.allclose(stats.u_var, np.abs(u1 - u2) ** 2 / 2.0)


def test_variance_invariant_under_period_reorder():
    n, p = 64, 4
    rng = np.random.default_rng(2)
    periods = [rng.normal(size=n) for _ in range(p)]
    rec_a = SignalRecord(float(n), n, p, np.zeros(n * p), np.concatenate(periods))
    rec_b = SignalRecord(float(n), n, p, np.zeros(n * p),
                         np.concatenate([periods[i] for i in (2, 0, 3, 1)]))
    assert np.allclose(sample_statistics(rec_a).y_var, sample_statistics(rec_b).y_var)


def test_discard_periods_respected():
    n = 32
    base = np.sin(2 * np.pi * np.arange(n) / n)
    transient = base + 5.0
    y = np.concatenate([transient, base, base, base])
    rec = SignalRecord(float(n), n, 4, np.zeros(4 * n), y)
    stats = sample_statistics(rec, discard_periods=1)
    assert stats.num_periods == 3
    assert np.allclose(stats.y_var, 0.0, atol=1e-20)


def test_sample_statistics_needs_two_periods():
    rec = SignalRecord(8.0, 8, 1, np.zeros(8), np.zeros(8))
    with pytest.raises(ValueError, match="periods"):
        sample_statistics(rec)


def test_classify_partition_counts():
    spec = _odd_skip_spec()
    rec = _record_from_nonlinearity(spec, [0.0, 1.0], 8, 1e-6, 3)
    report = classify_lines(spec, sample_statistics(rec))
    k_max = max(spec.excited_lines)
    counts = {c: np.sum(report.classes == c) for c in ("excited", "odd_detection", "even")}
    assert sum(counts.values()) == k_max  # bins 1..k_max, DC excluded
    assert counts["excited"] == len(spec.excited_lines)


def test_classify_linear_system_all_classes_at_floor():
    spec = _odd_skip_spec(rms=1.0)
    rec = _record_from_nonlinearity(spec, [0.0, 1.0], 8, 1e-3, 4)
    report = classify_lines(spec, sample_statistics(rec))
    for cls in ("odd_detection", "even"):
        mags = report.magnitudes_of(cls)
        floor = report.floor_of(cls)
        assert np.mean(mags < 3.0 * floor) >= 0.95


def test_classify_even_nonlinearity():
    spec = _odd_skip_spec(rms=1.0)
    rec = _record_from_nonlinearity(spec, [0.0, 1.0, 0.1], 8, 1e-2, 5)
    report = classify_lines(spec, sample_statistics(rec))
    even_excess = report.excess_db("even")
    odd_excess = report.excess_db("odd_detection")
    assert np.median(even_excess) > 20.0
    assert np.median(odd_excess) < 6.0


def test_classify_odd_nonlinearity():
    spec = _odd_skip_spec(rms=1.0)
    rec = _record_from_nonlinearity(spec, [0.0, 1.0, 0.0, 0.1], 8, 1e-2, 6)
    report = classify_lines(spec, sample_statistics(rec))
    assert np.median(report.excess_db("odd_detection")) > 20.0
    assert np.median(report.excess_db("even")) < 6.0


def test_classify_rejects_full_grid():
    spec = flat_amplitude_spec(128, 128.0, tuple(range(1, 20)), rms=1.0)
    rec = _record_from_nonlinearity(spec, [0.0, 1.0], 4, 1e-3, 7)
    with pytest.raises(ValueError, match="odd"):
        classify_lines(spec, sample_statistics(rec))


def test_noise_free_linear_detection_lines_clean():
    spec = _odd_skip_spec(512, 101)
    rec = _record_from_nonlinearity(spec, [0.0, 1.0], 8, 0.0, 8)
    report = classify_lines(spec, sample_statistics(rec))
    max_excited = np.max(report.magnitudes_of("excited"))
    for cls in ("odd_detection", "even"):
        assert np.max(report.magnitudes_of(cls), initial=0.0) < 1e-8 * max_excited


def _process_noise_record(n, p, input_dependent, seed, sigma=0.05):
    spec = random_phases(flat_amplitude_spec(n, float(n), (1, 2, 3), rms=1.0), seed)
    u = tile_periods(design_multisine(spec), p)
    rng = np.random.default_rng(seed + 1000)
    y = np.sin(2 * np.pi * np.arange(n * p) * 5 / n)
    if input_dependent:
        y = y + sigma * rng.normal(size=n * p) * u
    else:
        y = y + sigma * rng.normal(size=n * p)
    return SignalRecord(float(n), n, p, u, y)


def test_detect_stationary_noise():
    rec = _process_noise_record(1024, 16, input_dependent=False, seed=0)
    report = detect_process_noise(rec)
    assert report.stationarity_ratio < 2.0
    assert report.verdict == "stationary"


def test_detect_input_dependent_noise():
    rec = _process_noise_record(1024, 16, input_dependent=True, seed=1)
    report = detect_process_noise(rec)
    assert report.verdict == "nonstationary"


def test_detect_zero_noise_degenerate():
    n, p = 256, 4
    y = tile_periods(np.sin(2 * np.pi * np.arange(n) / n), p)
    rec = SignalRecord(float(n), n, p, np.zeros(n * p), y)
    report = detect_process_noise(rec)
    assert report.stationarity_ratio == 1.0
    assert report.verdict == "stationary"


def test_detect_needs_four_periods():
    rec = SignalRecord(8.0, 8, 3, np.zeros(24), np.zeros(24))
    with pytest.raises(ValueError, match="4"):
        detect_process_noise(rec)


def test_detect_smoothing_window_within_the_period():
    # the moving average wraps around one period: a window of the whole
    # period reads a flat variance, a longer one read a false ratio (1.98)
    rec = _process_noise_record(64, 8, input_dependent=True, seed=2)
    assert detect_process_noise(rec, 64).stationarity_ratio == pytest.approx(1.0)
    for window in (0, 65, 1000):
        with pytest.raises(ValueError, match="smoothing_window"):
            detect_process_noise(rec, window)


def test_detection_calibration_over_seeds():
    # stationary verdicts in >= 95 of 100 seeded trials; same bar for detection
    hits_stationary = 0
    hits_nonstationary = 0
    for seed in range(100):
        rec_s = _process_noise_record(1024, 16, input_dependent=False, seed=seed)
        hits_stationary += detect_process_noise(rec_s).verdict == "stationary"
        rec_n = _process_noise_record(1024, 16, input_dependent=True, seed=seed)
        hits_nonstationary += detect_process_noise(rec_n).verdict == "nonstationary"
    assert hits_stationary >= 95
    assert hits_nonstationary >= 95
