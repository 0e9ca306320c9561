"""Duffing multisine data with the shape of the criterion-5 acceptance fixture.

Hardening oscillator (resonance at 0.1 fs, 5% damping, k3 = 0.1 k1) sampled at
fs = 512 Hz, driven by full-grid random-phase multisines with N = 1024 and
lines 1..150 at 0.1 RMS.  Each realization is simulated over four periods and
the first two are discarded, so a record holds two steady-state periods
(T = 2048 samples).  Measurement noise has std 3.2e-4, about 60 dB below the
output RMS.

Library calls go through module attributes (``S.design_multisine``) so that
the traced run's wrappers see them.
"""

from nlsid import signals as S
from nlsid import simulators as SIM

FS = 512.0
N_PER = 1024
NUM_LINES = 150
RMS = 0.1
HARDENING = 0.1
NOISE_STD = 3.2e-4
PERIODS = 2
DISCARD = 2
STATE_DIM = 2
STATE_DEGREE = 3


def spec():
    return S.flat_amplitude_spec(N_PER, FS, S.full_grid(N_PER, NUM_LINES), rms=RMS)


def params():
    return SIM.default_duffing(FS, hardening=HARDENING)


def realization(seed: int, base_spec=None, duffing=None):
    """One steady-state record on the realization ``seed`` (phases and noise)."""
    base_spec = spec() if base_spec is None else base_spec
    duffing = params() if duffing is None else duffing
    noise = SIM.NoiseSpec(measurement_std=NOISE_STD, seed=seed)
    u_period = S.design_multisine(S.random_phases(base_spec, seed))
    return SIM.steady_state_record(
        lambda u, fs: SIM.simulate_duffing(duffing, u, fs, noise),
        u_period, FS, PERIODS, DISCARD)


def truth(phase_seed: int, base_spec=None, duffing=None):
    """Noise-free steady-state record of the realization ``phase_seed``."""
    base_spec = spec() if base_spec is None else base_spec
    duffing = params() if duffing is None else duffing
    u_period = S.design_multisine(S.random_phases(base_spec, phase_seed))
    return SIM.steady_state_record(
        lambda u, fs: SIM.simulate_duffing(duffing, u, fs), u_period, FS, PERIODS, DISCARD)


def with_noise(rec, rng):
    """``rec`` with fresh measurement noise of std NOISE_STD drawn from ``rng``."""
    return S.SignalRecord(rec.sample_rate_hz, rec.period_samples, rec.num_periods,
                          rec.input, rec.output + rng.normal(0.0, NOISE_STD, len(rec.output)),
                          label=rec.label)
