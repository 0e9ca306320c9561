import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsid.nonparam import sample_statistics
from nlsid.signals import (MultisineSpec, SignalRecord, design_multisine,
                           flat_amplitude_spec, full_grid, odd_grid,
                           odd_random_skip_grid, random_phases, tile_periods)
from nlsid.serialize import (read_signal_record, write_signal_record,
                             write_json, read_json)


def single_cosine_spec(n=16):
    return MultisineSpec(
        sample_rate_hz=float(n), period_samples=n, excited_lines=(1,),
        amplitudes={1: 1.0}, phases={1: 0.0},
    )


def test_single_cosine():
    u = design_multisine(single_cosine_spec())
    expected = np.cos(2 * np.pi * np.arange(16) / 16)
    assert np.allclose(u, expected, atol=1e-15)


def test_exact_periodicity_two_periods():
    spec = random_phases(flat_amplitude_spec(64, 64.0, full_grid(64, 20), rms=1.0), 3)
    u2 = design_multisine(spec, num_periods=2)
    # evaluating at t + N is bit-identical to the first period
    assert np.array_equal(u2[64:], u2[:64])
    assert np.array_equal(u2[:64], design_multisine(spec))


def cosine_sum_multisine(spec, num_periods=1):
    """Reference: the explicit sum of one cosine per line, phase index mod N."""
    n = spec.period_samples
    l = np.arange(n * num_periods, dtype=np.int64)
    u = np.zeros(n * num_periods)
    for k in spec.excited_lines:
        u += spec.amplitudes[k] * np.cos(
            2.0 * np.pi * ((k * l) % n) / n + spec.phases[k]
        )
    return u


@pytest.mark.parametrize("n", [256, 255, 1024, 1023])
@pytest.mark.parametrize("grid", ["full", "odd_only", "odd_random_skip"])
@pytest.mark.parametrize("num_periods", [1, 3])
def test_design_matches_cosine_sum(n, grid, num_periods):
    k_max = n // 2 - 1
    if grid == "full":
        lines = full_grid(n, k_max)
    elif grid == "odd_only":
        lines = odd_grid(n, k_max)
    else:
        lines, _ = odd_random_skip_grid(n, k_max, seed=n)
    spec = random_phases(flat_amplitude_spec(n, float(n), lines, rms=0.5, grid_kind=grid), n + 1)
    ref = cosine_sum_multisine(spec, num_periods)
    u = design_multisine(spec, num_periods)
    assert u.shape == ref.shape
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_design_with_unequal_amplitudes_and_a_line_below_nyquist():
    # the highest line a spec allows sits just below N/2, for even and odd N
    for n in (64, 65):
        lines = (1, 2, 7, (n - 1) // 2)
        amps = {1: 0.3, 2: 1.7, 7: 0.0, (n - 1) // 2: 2.5}
        spec = random_phases(MultisineSpec(1.0, n, lines, amps, {k: 0.0 for k in lines}), 4)
        ref = cosine_sum_multisine(spec, 2)
        assert np.max(np.abs(design_multisine(spec, 2) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_odd_grid_excites_reported_lines_only():
    # 10 odd lines in the 1..23 band at 1 Hz resolution
    lines = (1, 3, 5, 7, 9, 11, 13, 15, 19, 23)
    spec = MultisineSpec(
        sample_rate_hz=64.0, period_samples=64, excited_lines=lines,
        amplitudes={k: 1.0 for k in lines}, phases={k: 0.0 for k in lines},
        grid_kind="odd_only",
    )
    u = design_multisine(spec)
    mags = np.abs(np.fft.fft(u)[:32])
    nonzero = set(np.flatnonzero(mags > 1e-9))
    assert nonzero == set(lines)


def test_rms_parseval():
    spec = flat_amplitude_spec(256, 256.0, full_grid(256, 100), rms=0.7)
    spec = random_phases(spec, 11)
    u = design_multisine(spec)
    expected = np.sqrt(sum(a**2 for a in spec.amplitudes.values()) / 2.0)
    assert np.sqrt(np.mean(u**2)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.7, abs=1e-12)


def test_unexcited_bin_energy_negligible():
    spec = random_phases(flat_amplitude_spec(128, 1.0, odd_grid(128, 41), grid_kind="odd_only"), 5)
    u = design_multisine(spec)
    bins = np.fft.fft(u)
    excited = set(spec.excited_lines)
    energy_total = np.sum(np.abs(bins) ** 2)
    energy_off = sum(
        np.abs(bins[k]) ** 2 for k in range(1, 64) if k not in excited
    )
    assert energy_off / energy_total < 1e-20


def test_rejects_line_at_nyquist():
    with pytest.raises(ValueError, match="outside"):
        MultisineSpec(16.0, 16, (8,), {8: 1.0}, {8: 0.0})


def test_rejects_even_line_on_odd_grid():
    with pytest.raises(ValueError, match="odd"):
        MultisineSpec(16.0, 16, (2,), {2: 1.0}, {2: 0.0}, grid_kind="odd_only")


def test_random_phases_deterministic():
    spec = flat_amplitude_spec(64, 1.0, full_grid(64, 20))
    a = random_phases(spec, 42)
    b = random_phases(spec, 42)
    assert a.phases == b.phases
    c = random_phases(spec, 43)
    assert a.phases != c.phases


def test_random_phase_mean_vanishes():
    # Monte Carlo oracle: E{exp(j*phi)} = 0, so sample means shrink like 1/sqrt(M)
    spec = flat_amplitude_spec(256, 1.0, full_grid(256, 64))
    m = 10_000
    acc = np.zeros(64, dtype=complex)
    for seed in range(m):
        real = random_phases(spec, seed)
        acc += np.exp(1j * np.array([real.phases[k] for k in real.excited_lines]))
    assert np.max(np.abs(acc / m)) < 0.05


def test_random_phase_multisine_is_nearly_gaussian():
    # pooled excess kurtosis over several realizations stays near zero
    spec = flat_amplitude_spec(4096, 1.0, full_grid(4096, 128), rms=1.0)
    samples = []
    for seed in range(10):
        samples.append(design_multisine(random_phases(spec, seed)))
    x = np.concatenate(samples)
    kurt = np.mean(x**4) / np.mean(x**2) ** 2 - 3.0
    assert abs(kurt) < 0.2


def test_dft_constant_signal():
    bins = np.fft.fft(np.full(8, 3.0))
    assert bins[0] == pytest.approx(24.0)
    assert np.allclose(bins[1:], 0.0, atol=1e-12)


def test_dft_single_cosine_bins():
    n, k0 = 32, 5
    x = np.cos(2 * np.pi * k0 * np.arange(n) / n)
    bins = np.fft.fft(x)
    assert bins[k0] == pytest.approx(n / 2)
    assert bins[n - k0] == pytest.approx(n / 2)


def test_dft_matches_naive_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=8)
    naive = np.array([
        sum(x[l] * np.exp(-2j * np.pi * k * l / 8) for l in range(8)) for k in range(8)
    ])
    assert np.allclose(np.fft.fft(x), naive, atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(4, 64))
@settings(max_examples=50, deadline=None)
def test_parseval(seed, n):
    x = np.random.default_rng(seed).normal(size=n)
    bins = np.fft.fft(x)
    lhs = np.sum(np.abs(x) ** 2)
    rhs = np.sum(np.abs(bins) ** 2) / n
    assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1.0)


def test_split_periods_identical_periods():
    # identical periods: the per-period spectra agree, so they scatter by zero
    u = np.sin(2 * np.pi * np.arange(16) / 16)
    rec = SignalRecord(1.0, 16, 3, tile_periods(u, 3), tile_periods(u, 3))
    stats = sample_statistics(rec)
    assert np.allclose(stats.u_mean, np.fft.fft(u))
    assert np.allclose(stats.y_mean, np.fft.fft(u))
    assert np.allclose(stats.u_var, 0.0, atol=1e-20)
    assert np.allclose(stats.y_var, 0.0, atol=1e-20)


def test_split_periods_mean_equals_dft_of_average():
    rng = np.random.default_rng(3)
    base = rng.normal(size=64)
    periods = [base + rng.normal(0, 0.1, 64) for _ in range(3)]
    y = np.concatenate(periods)
    rec = SignalRecord(1.0, 64, 3, tile_periods(base, 3), y)
    stats = sample_statistics(rec)
    avg_signal = np.mean(periods, axis=0)
    assert np.allclose(stats.y_mean, np.fft.fft(avg_signal), atol=1e-9)
    assert np.allclose(stats.u_mean, np.fft.fft(base), atol=1e-9)
    # the periods differ, so the spectra scatter around their mean
    assert np.all(stats.y_var[1:] > 0.0)
    # one period dropped: the mean is that of the other two
    later = sample_statistics(rec, discard_periods=1)
    assert np.allclose(later.y_mean, np.fft.fft(np.mean(periods[1:], axis=0)), atol=1e-9)


def test_record_length_must_match_grid():
    with pytest.raises(ValueError, match="length"):
        SignalRecord(1.0, 16, 2, np.zeros(30), np.zeros(32))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("channel", ["input", "output"])
def test_record_rejects_non_finite_samples(bad, channel):
    samples = {"input": np.zeros(32), "output": np.zeros(32)}
    samples[channel][5] = bad
    with pytest.raises(ValueError, match="finite"):
        SignalRecord(1.0, 16, 2, samples["input"], samples["output"])


def test_odd_random_skip_detection_coverage():
    excited, detection = odd_random_skip_grid(1024, 401, seed=9, group_size=4)
    assert all(k % 2 == 1 for k in excited)
    assert all(k % 2 == 1 for k in detection)
    assert not set(excited) & set(detection)
    candidates = odd_grid(1024, 401)
    # exactly one detection line per full group of 4 odd candidates
    for start in range(0, len(candidates) - 3, 4):
        group = set(candidates[start : start + 4])
        assert len(group & set(detection)) == 1


@given(st.integers(0, 1000), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_odd_random_skip_partition_property(seed, group_size):
    excited, detection = odd_random_skip_grid(512, 201, seed=seed, group_size=group_size)
    candidates = odd_grid(512, 201)
    assert set(excited) | set(detection) == set(candidates)
    # one detection line per group of >= 2 candidates (a trailing singleton stays excited)
    n_groups = len(candidates) // group_size
    if len(candidates) % group_size >= 2:
        n_groups += 1
    assert len(detection) == n_groups


def test_signal_record_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    rec = SignalRecord(100.0, 16, 2, rng.normal(size=32), rng.normal(size=32), label="demo")
    path = tmp_path / "rec.csv"
    write_signal_record(path, rec)
    back = read_signal_record(path)
    assert back.sample_rate_hz == rec.sample_rate_hz
    assert back.period_samples == rec.period_samples
    assert back.num_periods == rec.num_periods
    assert back.label == "demo"
    assert np.array_equal(back.input, rec.input)
    assert np.array_equal(back.output, rec.output)


def test_multisine_spec_json_round_trip(tmp_path):
    spec = random_phases(flat_amplitude_spec(64, 64.0, odd_grid(64, 21), grid_kind="odd_only"), 4)
    path = tmp_path / "spec.json"
    write_json(path, spec.to_dict())
    back = MultisineSpec.from_dict(read_json(path))
    assert back == spec
