import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from nlsid.signals import (SignalRecord, design_multisine, flat_amplitude_spec, odd_grid,
                           random_phases)
from nlsid.simulators import (BlockOrientedSpec, DuffingParams, LinearBlock,
                              NoiseSpec, SimulationDiverged, TanksParams,
                              default_duffing, simulate_block_oriented,
                              simulate_duffing, simulate_static,
                              simulate_tanks, steady_state_record)


FS = 200.0


def analytic_linear_duffing_response(params: DuffingParams, u, fs):
    """ZOH discretization oracle for the k3 = 0 limit."""
    a_c = np.array([[0.0, 1.0], [-params.k1, -params.c]])
    b_c = np.array([[0.0], [params.b]])
    (a_d, b_d, c_d, d_d, _) = sp_signal.cont2discrete(
        (a_c, b_c, np.array([[1.0, 0.0]]), np.array([[0.0]])), 1.0 / fs, method="zoh"
    )
    x = np.zeros(2)
    y = np.empty(len(u))
    for i, uk in enumerate(u):
        y[i] = x[0]
        x = a_d @ x + b_d[:, 0] * uk
    return y


def test_duffing_linear_limit_matches_zoh_oracle():
    params = DuffingParams(c=4.0, k1=400.0, k3=0.0, b=400.0, oversample=32)
    rng = np.random.default_rng(0)
    u = rng.normal(0, 1.0, 600)
    rec = simulate_duffing(params, u, FS)
    ref = analytic_linear_duffing_response(params, u, FS)
    err = np.linalg.norm(rec.output - ref) / np.linalg.norm(ref)
    assert err < 1e-6


def test_duffing_zero_input_zero_output():
    params = default_duffing(FS)
    rec = simulate_duffing(params, np.zeros(100), FS)
    assert np.array_equal(rec.output, np.zeros(100))


def test_duffing_step_halving_self_consistency():
    # Richardson-style check: doubling the oversampling changes almost nothing
    base = default_duffing(FS, hardening=0.5, oversample=32)
    fine = DuffingParams(base.c, base.k1, base.k3, base.b, oversample=64)
    f_res = 0.1 * FS
    t = np.arange(800) / FS
    u = np.sin(2 * np.pi * (f_res / 2) * t)
    y1 = simulate_duffing(base, u, FS).output
    y2 = simulate_duffing(fine, u, FS).output
    rms_diff = np.sqrt(np.mean((y1 - y2) ** 2))
    assert rms_diff < 1e-7 * max(1.0, np.sqrt(np.mean(y1**2)))


def test_duffing_divergence_reports_step():
    params = DuffingParams(c=1e-3, k1=1.0, k3=-50.0, b=1.0, oversample=8)
    u = np.full(4000, 5.0)
    with pytest.raises(SimulationDiverged) as err:
        simulate_duffing(params, u, FS)
    assert err.value.step_index >= 0


def test_duffing_deterministic_reruns():
    params = default_duffing(FS, hardening=0.3)
    u = np.random.default_rng(1).normal(0, 0.5, 256)
    noise = NoiseSpec(measurement_std=0.01, seed=7)
    a = simulate_duffing(params, u, FS, noise)
    b = simulate_duffing(params, u, FS, noise)
    assert np.array_equal(a.output, b.output)


def test_duffing_rejects_nonfinite_input():
    with pytest.raises(ValueError, match="finite"):
        simulate_duffing(default_duffing(FS), np.array([1.0, np.nan]), FS)


TANKS = TanksParams(k1=0.5, k2=0.4, k3=0.3, k4=1.0, x1_max=10.0, x2_max=10.0)


def numpy_scalar_duffing(params: DuffingParams, u, fs):
    """Reference: the RK4 loop stepping on numpy float64 scalars (noise-free)."""
    u = np.asarray(u, dtype=float)
    c, k1, k3, b = params.c, params.k1, params.k3, params.b
    h = 1.0 / (fs * params.oversample)
    half_h = 0.5 * h
    x1 = 0.0
    x2 = 0.0
    y = np.empty(len(u))
    err_state = np.seterr(over="ignore", invalid="ignore")
    try:
        for i, uk in enumerate(u):
            y[i] = x1
            f = b * uk
            for _ in range(params.oversample):
                a1 = x2
                b1 = f - c * x2 - k1 * x1 - k3 * x1 * x1 * x1
                p1 = x1 + half_h * a1
                q1 = x2 + half_h * b1
                a2 = q1
                b2 = f - c * q1 - k1 * p1 - k3 * p1 * p1 * p1
                p2 = x1 + half_h * a2
                q2 = x2 + half_h * b2
                a3 = q2
                b3 = f - c * q2 - k1 * p2 - k3 * p2 * p2 * p2
                p3 = x1 + h * a3
                q3 = x2 + h * b3
                a4 = q3
                b4 = f - c * q3 - k1 * p3 - k3 * p3 * p3 * p3
                x1 += (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                x2 += (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            if not np.isfinite(x1) or abs(x1) > 1e6:
                return y, i
    finally:
        np.seterr(**err_state)
    return y, None


def numpy_scalar_tanks(params: TanksParams, u, fs):
    """Reference: the RK4 loop stepping on numpy float64 scalars with np.sqrt
    (noise-free)."""
    u = np.asarray(u, dtype=float)
    h = 1.0 / (fs * params.oversample)
    p = params
    sqrt = np.sqrt

    def rates(x1, x2, uk):
        x1c = min(max(x1, 0.0), p.x1_max)
        x2c = min(max(x2, 0.0), p.x2_max)
        d1 = -p.k1 * sqrt(x1c) + p.k4 * uk
        d2 = p.k2 * sqrt(x1c) - p.k3 * sqrt(x2c)
        if x1 >= p.x1_max and d1 > 0.0:
            d2 += p.spill_fraction * d1
            d1 = 0.0
        if x2 >= p.x2_max and d2 > 0.0:
            d2 = 0.0
        return d1, d2

    x1 = 0.0
    x2 = 0.0
    y = np.empty(len(u))
    for i, uk in enumerate(u):
        y[i] = x2
        for _ in range(p.oversample):
            a1, b1 = rates(x1, x2, uk)
            a2, b2 = rates(x1 + 0.5 * h * a1, x2 + 0.5 * h * b1, uk)
            a3, b3 = rates(x1 + 0.5 * h * a2, x2 + 0.5 * h * b2, uk)
            a4, b4 = rates(x1 + h * a3, x2 + h * b3, uk)
            x1 += (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            x2 += (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            x1 = min(max(x1, 0.0), p.x1_max)
            x2 = min(max(x2, 0.0), p.x2_max)
    return y


def multisine_input(n, fs, rms, seed, offset=0.0):
    spec = flat_amplitude_spec(n, fs, tuple(range(1, n // 4)), rms=rms)
    return offset + design_multisine(random_phases(spec, seed), 2)


@pytest.mark.parametrize("params, rms", [
    (default_duffing(FS, hardening=1.0), 0.5),
    (default_duffing(FS, hardening=-0.05, oversample=8), 0.2),
    (DuffingParams(c=4.0, k1=400.0, k3=0.0, b=400.0, oversample=32), 1.0),
])
def test_duffing_identical_to_numpy_scalar_loop(params, rms):
    u = multisine_input(256, FS, rms, seed=3)
    ref, diverged_at = numpy_scalar_duffing(params, u, FS)
    assert diverged_at is None
    assert np.array_equal(simulate_duffing(params, u, FS).output, ref)
    noise = NoiseSpec(measurement_std=0.01, seed=5)
    ref_noisy = ref + np.random.default_rng(5).normal(0.0, 0.01, len(u))
    assert np.array_equal(simulate_duffing(params, u, FS, noise).output, ref_noisy)


@pytest.mark.parametrize("level", [3.0, 5.0, 40.0])
def test_duffing_divergence_step_matches_numpy_scalar_loop(level):
    # a softening spring escapes its well; at 40 the state overflows to inf/nan
    params = DuffingParams(c=1e-3, k1=1.0, k3=-50.0, b=1.0, oversample=8)
    u = np.full(4000, level)
    _, diverged_at = numpy_scalar_duffing(params, u, FS)
    assert diverged_at is not None
    with pytest.raises(SimulationDiverged) as err:
        simulate_duffing(params, u, FS)
    assert err.value.step_index == diverged_at


OVERFLOWING_TANKS = TanksParams(k1=0.5, k2=0.4, k3=0.3, k4=1.0, x1_max=2.0, x2_max=2.5,
                                spill_fraction=0.3, oversample=8)


# the inflow turns negative and both tanks drain to the lower clamp
DRAINING_TANKS = TanksParams(k1=0.5, k2=0.4, k3=0.3, k4=1.0, x1_max=10.0, x2_max=10.0,
                             oversample=2)
# the lower tank saturates while the upper one stays below its level
LOWER_FULL_TANKS = TanksParams(k1=0.5, k2=0.4, k3=0.3, k4=1.0, x1_max=10.0, x2_max=4.0,
                               oversample=8)
NO_SPILL_TANKS = TanksParams(k1=0.5, k2=0.4, k3=0.3, k4=1.0, x1_max=2.0, x2_max=2.5,
                             spill_fraction=0.0, oversample=3)
FULL_SPILL_TANKS = TanksParams(k1=0.5, k2=0.4, k3=0.3, k4=1.0, x1_max=2.0, x2_max=2.5,
                               spill_fraction=1.0, oversample=1)


@pytest.mark.parametrize("params, offset, rms", [
    (TANKS, 0.8, 0.3),
    (TanksParams(k1=0.5, k2=0.4, k3=0.3, k4=1.0, x1_max=10.0, x2_max=10.0,
                 oversample=8), 0.8, 0.4),
    # both tanks overflow: the upper one spills and the lower one saturates
    (OVERFLOWING_TANKS, 0.7, 0.5),
    (DRAINING_TANKS, 0.0, 0.5),
    (LOWER_FULL_TANKS, 0.8, 0.4),
    (NO_SPILL_TANKS, 0.7, 0.5),
    (FULL_SPILL_TANKS, 0.7, 0.5),
])
def test_tanks_identical_to_numpy_scalar_loop(params, offset, rms):
    fs = 2.0
    u = multisine_input(256, fs, rms, seed=9, offset=offset)
    ref = numpy_scalar_tanks(params, u, fs)
    assert np.array_equal(simulate_tanks(params, u, fs).output, ref)
    noise = NoiseSpec(measurement_std=1e-3, seed=2)
    ref_noisy = ref + np.random.default_rng(2).normal(0.0, 1e-3, len(u))
    assert np.array_equal(simulate_tanks(params, u, fs, noise).output, ref_noisy)


def test_tanks_equivalence_case_overflows_part_of_the_time():
    y = simulate_tanks(OVERFLOWING_TANKS, multisine_input(256, 2.0, 0.5, seed=9, offset=0.7),
                       2.0).output
    assert 0.1 < np.mean(y == OVERFLOWING_TANKS.x2_max) < 0.9


@pytest.mark.parametrize("params, offset, rms, level", [
    (DRAINING_TANKS, 0.0, 0.5, 0.0),
    (LOWER_FULL_TANKS, 0.8, 0.4, 4.0),
    (NO_SPILL_TANKS, 0.7, 0.5, 2.5),
    (FULL_SPILL_TANKS, 0.7, 0.5, 2.5),
])
def test_tanks_equivalence_cases_clamp_part_of_the_time(params, offset, rms, level):
    y = simulate_tanks(params, multisine_input(256, 2.0, rms, seed=9, offset=offset),
                       2.0).output
    assert 0.05 < np.mean(y[1:] == level) < 0.9


def test_tanks_rejects_nonfinite_input():
    for bad in (np.nan, np.inf):
        u = np.zeros(16)
        u[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            simulate_tanks(TANKS, u, 10.0)


def test_tanks_zero_input_zero_output():
    rec = simulate_tanks(TANKS, np.zeros(64), 10.0)
    assert np.array_equal(rec.output, np.zeros(64))


def test_tanks_constant_input_steady_state():
    # fixed point: k1 sqrt(x1) = k4 u and k2 sqrt(x1) = k3 sqrt(x2)
    u_level = 0.8
    u = np.full(6000, u_level)
    rec = simulate_tanks(TANKS, u, 10.0)
    x1_ss = (TANKS.k4 * u_level / TANKS.k1) ** 2
    x2_ss = (TANKS.k2 * np.sqrt(x1_ss) / TANKS.k3) ** 2
    assert rec.output[-1] == pytest.approx(x2_ss, abs=1e-6)
    assert x1_ss < TANKS.x1_max  # fixed point genuinely below overflow


def test_tanks_overflow_saturates():
    u = np.full(8000, 5.0)  # drives x1 well past its ceiling
    rec = simulate_tanks(TANKS, u, 10.0)
    assert np.max(rec.output) <= TANKS.x2_max + 1e-12
    assert rec.output[-1] == pytest.approx(TANKS.x2_max)


def test_tanks_rejects_bad_fs():
    with pytest.raises(ValueError, match="fs"):
        simulate_tanks(TANKS, np.zeros(8), 0.0)


def test_static_identity():
    u = np.linspace(-2, 2, 33)
    rec = simulate_static([0.0, 1.0], u)
    assert np.array_equal(rec.output, u)


def test_static_cubic_with_process_noise_matches_expansion():
    u = np.random.default_rng(3).normal(0, 1, 128)
    noise = NoiseSpec(process_std=0.5, process_entry="before_nonlinearity", seed=11)
    rec = simulate_static([0.0, 0.0, 0.0, 1.0], u, noise)
    w = np.random.default_rng(11).normal(0.0, 0.5, 128)
    assert np.allclose(rec.output, (u + w) ** 3, atol=1e-12)


def test_static_square_on_odd_multisine_even_bins_only():
    spec = flat_amplitude_spec(256, 256.0, odd_grid(256, 63), rms=1.0, grid_kind="odd_only")
    u = design_multisine(spec)
    rec = simulate_static([0.0, 0.0, 1.0], u)
    bins = np.fft.fft(rec.output)
    odd_bins = np.arange(1, 128, 2)
    even_bins = np.arange(2, 128, 2)
    assert np.max(np.abs(bins[odd_bins])) < 1e-9 * np.max(np.abs(bins[even_bins]))


def test_block_identity_nonlinearity_is_pure_filter():
    blk = LinearBlock(b=(0.2, 0.3), a=(1.0, -0.5))
    spec = BlockOrientedSpec("wiener", (blk,), (0.0, 1.0))
    u = np.random.default_rng(4).normal(size=200)
    rec = simulate_block_oriented(spec, u)
    assert np.allclose(rec.output, sp_signal.lfilter([0.2, 0.3], [1.0, -0.5], u), atol=1e-12)


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def stable_denominator(radii, angles, real_poles, a0):
    """``a0`` times the monic polynomial with poles ``r e^{+-i theta}`` and
    ``real_poles``."""
    poles = [r * np.exp(s * 1j * t) for r, t in zip(radii, angles) for s in (1, -1)]
    return tuple(a0 * np.atleast_1d(np.real(np.poly(poles + list(real_poles)))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pairs=st.integers(0, 2), real_poles=st.lists(st.floats(-0.95, 0.95), max_size=2),
       a0=st.sampled_from([1.0, 2.0, -0.5, 3.7, 1e-3]), num_b=st.integers(1, 6),
       length=st.integers(1, 400), scale=st.sampled_from([1e-3, 1.0, 1e4]),
       seed=st.integers(0, 2**32 - 1))
@example(pairs=0, real_poles=[], a0=1.0, num_b=5, length=300, scale=1.0, seed=8)  # FIR
@example(pairs=0, real_poles=[], a0=2.0, num_b=5, length=300, scale=1.0, seed=8)  # FIR
@example(pairs=1, real_poles=[-0.5], a0=1.5, num_b=4, length=100_000, scale=1.0,
         seed=9)  # a long record
def test_linear_block_is_lfilter_bit_for_bit(pairs, real_poles, a0, num_b, length, scale,
                                             seed):
    rng = np.random.default_rng(seed)
    a = stable_denominator(rng.uniform(0.0, 0.95, pairs), rng.uniform(0.0, np.pi, pairs),
                           real_poles, a0)
    b = tuple(rng.normal(size=num_b))
    x = scale * rng.normal(size=length)
    assert same_bits(LinearBlock(b, a).apply(x), sp_signal.lfilter(b, a, x))


def test_hammerstein_square_then_delay():
    spec = BlockOrientedSpec("hammerstein", (LinearBlock((0.0, 1.0), (1.0,)),), (0.0, 0.0, 1.0))
    u = np.random.default_rng(5).normal(size=50)
    rec = simulate_block_oriented(spec, u)
    assert np.allclose(rec.output[1:], u[:-1] ** 2, atol=1e-12)
    assert rec.output[0] == 0.0


def test_wiener_hammerstein_matches_hand_composition():
    l1 = LinearBlock(b=(1.0, 0.5), a=(1.0, -0.3))
    l2 = LinearBlock(b=(0.7,), a=(1.0, 0.2))
    spec = BlockOrientedSpec("wiener_hammerstein", (l1, l2), (0.1, 1.0, 0.0, 0.4))
    u = np.random.default_rng(6).normal(size=32)
    x = sp_signal.lfilter(l1.b, l1.a, u)
    ref = sp_signal.lfilter(l2.b, l2.a, 0.1 + x + 0.4 * x**3)
    rec = simulate_block_oriented(spec, u)
    assert np.allclose(rec.output, ref, atol=1e-12)


def test_unstable_block_rejected_at_construction():
    with pytest.raises(ValueError, match="unstable"):
        LinearBlock(b=(1.0,), a=(1.0, -1.5))


def test_block_structure_arity_checked():
    blk = LinearBlock((1.0,), (1.0,))
    with pytest.raises(ValueError, match="block"):
        BlockOrientedSpec("wiener_hammerstein", (blk,), (0.0, 1.0))


def test_steady_state_record_periodic_output():
    params = default_duffing(FS, hardening=0.2)
    spec = flat_amplitude_spec(256, FS, tuple(range(1, 40)), rms=0.2)
    u_period = design_multisine(spec)
    noise_std = 1e-4
    rec = steady_state_record(
        lambda u, fs: simulate_duffing(params, u, fs, NoiseSpec(measurement_std=noise_std, seed=0)),
        u_period, FS, num_periods=2, discard_periods=3,
    )
    assert rec.num_periods == 2
    p0, p1 = rec.output[:256], rec.output[256:]
    rms_diff = np.sqrt(np.mean((p0 - p1) ** 2))
    assert rms_diff < 10 * noise_std


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(measurement_std=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(process_entry="after")
    with pytest.raises(ValueError, match="process_std"):
        NoiseSpec(process_std=0.5)  # entry "none": no simulator would apply it


@pytest.mark.parametrize("simulate", [
    lambda u, noise: simulate_duffing(default_duffing(FS), u, FS, noise),
    lambda u, noise: simulate_tanks(TANKS, u, FS, noise),
], ids=["duffing", "tanks"])
def test_process_noise_rejected_where_not_applied(simulate):
    u = np.random.default_rng(0).normal(0, 0.1, 64)
    with pytest.raises(ValueError, match="process_std"):
        simulate(u, NoiseSpec(process_std=0.5, process_entry="before_nonlinearity"))
