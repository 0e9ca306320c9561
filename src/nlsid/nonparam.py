"""Nonparametric noise and distortion analysis from multi-period records.

The per-line sample statistics follow the standard periodic-averaging scheme:
per-period DFTs, sample means, and (co)variances; nonlinear distortions are
identical over periods while disturbing noise varies, so the period-to-period
scatter estimates the noise floor and the unexcited-line content exposes even
and odd distortion separately.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .signals import MultisineSpec, SignalRecord

DISTORTION_THRESHOLD_DB = 6.0
MIN_RELIABLE_PERIODS = 8
STATIONARITY_THRESHOLD = 4.0  # max/min ratio of the smoothed variance read as process noise
ODD_GRID_KINDS = ("odd_only", "odd_random_skip")


@dataclass(frozen=True)
class LineStatistics:
    """Per-frequency-line sample means and noise (co)variances.

    ``u_mean``/``y_mean`` are the averaged per-period DFT bins; the variances
    are the single-period noise variances (divide by ``num_periods`` for the
    variance of the mean).
    """

    frequency_hz: np.ndarray
    u_mean: np.ndarray
    y_mean: np.ndarray
    u_var: np.ndarray
    y_var: np.ndarray
    yu_covar: np.ndarray
    num_periods: int


def sample_statistics(rec: SignalRecord, discard_periods: int = 0) -> LineStatistics:
    """Sample means and (co)variances of the per-period input/output spectra.

    Implements ``U_hat(k) = (1/P) sum_l U^[l](k)`` and
    ``sigma_U^2(k) = (1/(P-1)) sum_l |U^[l](k) - U_hat(k)|^2`` (same for Y and
    the YU cross term, conjugating U).

    Parameters
    ----------
    discard_periods : int
        Leading periods dropped before averaging (transient removal).
    """
    p_kept = rec.num_periods - discard_periods
    if p_kept < 2:
        raise ValueError(f"need at least 2 retained periods, have {p_kept}")
    n = rec.period_samples
    # per-period DFTs of the retained periods, shape (P, N)
    u, y = (np.fft.fft(x.reshape(rec.num_periods, n)[discard_periods:], axis=1)
            for x in (rec.input, rec.output))
    u_mean = u.mean(axis=0)
    y_mean = y.mean(axis=0)
    du = u - u_mean
    dy = y - y_mean
    u_var = (np.abs(du) ** 2).sum(axis=0) / (p_kept - 1)
    y_var = (np.abs(dy) ** 2).sum(axis=0) / (p_kept - 1)
    yu_covar = (dy * np.conj(du)).sum(axis=0) / (p_kept - 1)
    freq = np.arange(n) * rec.sample_rate_hz / n
    return LineStatistics(freq, u_mean, y_mean, u_var, y_var, yu_covar, p_kept)


@dataclass(frozen=True)
class DistortionReport:
    """Per-line decomposition of the output spectrum of an odd multisine test.

    Every in-band line (1..k_max, DC excluded) lands in exactly one class:
    ``excited``, ``odd_detection``, or ``even``.  Magnitudes are linear (not
    dB); ``noise_floor`` is the std of the mean, ``sigma_Y(k)/sqrt(P)``.
    """

    lines: np.ndarray
    frequency_hz: np.ndarray
    classes: np.ndarray  # str per line
    magnitude: np.ndarray
    noise_floor: np.ndarray

    def magnitudes_of(self, cls: str) -> np.ndarray:
        return self.magnitude[self.classes == cls]

    def floor_of(self, cls: str) -> np.ndarray:
        return self.noise_floor[self.classes == cls]

    def excess_db(self, cls: str) -> np.ndarray:
        """Distortion magnitude over the noise floor, in dB, per line."""
        mag = self.magnitudes_of(cls)
        floor = np.maximum(self.floor_of(cls), np.finfo(float).tiny)
        return 20.0 * np.log10(np.maximum(mag, np.finfo(float).tiny) / floor)

    def distorted(self, cls: str, threshold_db: float = DISTORTION_THRESHOLD_DB) -> np.ndarray:
        return self.excess_db(cls) > threshold_db


def classify_lines(spec: MultisineSpec, stats: LineStatistics) -> DistortionReport:
    """Classify in-band output lines into excited / odd-detection / even.

    Requires an odd excitation grid; on a full grid there are no detection
    lines and the even/odd separation argument collapses.
    """
    if spec.grid_kind not in ODD_GRID_KINDS:
        raise ValueError("line classification needs an odd excitation grid "
                         "(grid_kind 'odd_only' or 'odd_random_skip')")
    if stats.num_periods < MIN_RELIABLE_PERIODS:
        warnings.warn(
            f"noise floor estimated from only {stats.num_periods} periods; "
            f"results are unreliable below {MIN_RELIABLE_PERIODS}",
            stacklevel=2,
        )
    excited = set(spec.excited_lines)
    k_max = max(excited)
    lines = np.arange(1, k_max + 1)
    classes = np.empty(len(lines), dtype=object)
    for i, k in enumerate(lines):
        if k in excited:
            classes[i] = "excited"
        elif k % 2 == 0:
            classes[i] = "even"
        else:
            classes[i] = "odd_detection"
    magnitude = np.abs(stats.y_mean[lines])
    floor = np.sqrt(stats.y_var[lines] / stats.num_periods)
    return DistortionReport(
        lines=lines,
        frequency_hz=stats.frequency_hz[lines],
        classes=classes.astype(str),
        magnitude=magnitude,
        noise_floor=floor,
    )


@dataclass(frozen=True)
class ProcessNoiseReport:
    """Stationarity check of the non-periodic output residual.

    ``time_variance`` is the across-period variance per within-period sample
    index after moving-average smoothing; a large max/min ratio indicates
    input-dependent (process) noise.
    """

    time_variance: np.ndarray
    stationarity_ratio: float
    verdict: str


def detect_process_noise(rec: SignalRecord,
                         smoothing_window: int | None = None) -> ProcessNoiseReport:
    """Detect process noise via a time-varying across-period variance.

    The periodic part of the output is removed by subtracting the per-index
    mean over periods; the remaining per-index variance is smoothed with a
    rectangular moving average (default window N/32) and its max/min ratio is
    compared against ``STATIONARITY_THRESHOLD``.  The average wraps around
    one period, so the window is at most N samples.
    """
    if rec.num_periods < 4:
        raise ValueError(f"need at least 4 periods, have {rec.num_periods}")
    n = rec.period_samples
    if smoothing_window is None:
        smoothing_window = max(1, n // 32)
    if not 1 <= smoothing_window <= n:
        raise ValueError(f"smoothing_window must be from 1 to the period's {n} samples, "
                         f"got {smoothing_window}")
    y = rec.output.reshape(rec.num_periods, n)
    resid = y - y.mean(axis=0)
    var = resid.var(axis=0, ddof=1)
    kernel = np.ones(smoothing_window) / smoothing_window
    # circular smoothing: the residual is indexed within the period
    smoothed = np.convolve(np.concatenate([var, var[:smoothing_window]]), kernel, mode="full")
    smoothed = smoothed[smoothing_window - 1 : smoothing_window - 1 + n]
    vmax = float(np.max(smoothed))
    vmin = float(np.min(smoothed))
    if vmax <= 0.0:
        ratio = 1.0
    elif vmin <= 0.0:
        ratio = np.inf
    else:
        ratio = vmax / vmin
    verdict = "nonstationary" if ratio > STATIONARITY_THRESHOLD else "stationary"
    return ProcessNoiseReport(smoothed, ratio, verdict)
