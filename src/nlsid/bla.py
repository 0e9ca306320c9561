"""Best linear approximation estimation from periodic multi-realization data.

The estimator is spectral: per realization the period-averaged output/input
bin ratio gives one FRF sample per excited line; averaging over realizations
yields the BLA and the realization scatter measures the combined noise plus
stochastic-nonlinearity variance, while the within-realization period scatter
isolates the noise-only part.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nonparam import sample_statistics
from .signals import MultisineSpec, SignalRecord, design_multisine, random_phases

MIN_INPUT_MAGNITUDE_EPS = 1e3  # multiples of machine epsilon
SK_ITERATIONS = 20             # Sanathanan-Koerner reweightings of the rational fit


@dataclass(frozen=True)
class BlaModel:
    """Nonparametric BLA on the excited lines of a multisine grid.

    ``frf_variance_total`` is the per-realization sample variance of the FRF
    (noise plus stochastic nonlinear distortion); ``frf_variance_noise`` is
    the noise-only variance propagated from the period scatter.  Both refer to
    a single realization; divide by ``num_realizations`` for the mean.
    """

    lines: np.ndarray
    frequency_hz: np.ndarray
    frf: np.ndarray
    frf_variance_total: np.ndarray
    frf_variance_noise: np.ndarray
    num_realizations: int
    num_periods: int
    sample_rate_hz: float
    period_samples: int

    def __post_init__(self):
        if np.any(self.frf_variance_total < 0) or np.any(self.frf_variance_noise < 0):
            raise ValueError("variances must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "lines": self.lines.tolist(),
            "frequency_hz": self.frequency_hz.tolist(),
            "frf_re": self.frf.real.tolist(),
            "frf_im": self.frf.imag.tolist(),
            "var_total": self.frf_variance_total.tolist(),
            "var_noise": self.frf_variance_noise.tolist(),
            "num_realizations": self.num_realizations,
            "num_periods": self.num_periods,
            "sample_rate_hz": self.sample_rate_hz,
            "period_samples": self.period_samples,
        }


def estimate_bla_spectral(records: list[SignalRecord], spec: MultisineSpec,
                          discard_periods: int = 0) -> BlaModel:
    """Estimate the BLA from one or more multisine realizations.

    Per realization ``m``, ``G_m(k) = Y_m(k) / U_m(k)`` on the excited lines
    (period-averaged spectra); the BLA is the realization mean.  The noise
    variance of each ``G_m`` follows from the period (co)variances by the
    first-order delta method,

    ``var G_m = |G_m|^2 (s_Y^2/|Y|^2 + s_U^2/|U|^2 - 2 Re(s_YU/(Y U^H))) / P``.

    With a single realization the total variance cannot be told apart from
    the noise variance and is reported equal to it.
    """
    if not records:
        raise ValueError("need at least one realization")
    lines = np.asarray(spec.excited_lines, dtype=int)
    g_all = []
    var_noise_all = []
    for rec in records:
        stats = sample_statistics(rec, discard_periods)
        u = stats.u_mean[lines]
        y = stats.y_mean[lines]
        small = np.abs(u) < MIN_INPUT_MAGNITUDE_EPS * np.finfo(float).eps
        if np.any(small):
            bad = lines[small]
            raise ValueError(f"input spectrum vanishes at excited line(s) {bad.tolist()}")
        g = y / u
        p = stats.num_periods
        with np.errstate(invalid="ignore"):
            rel = (
                stats.y_var[lines] / np.abs(y) ** 2
                + stats.u_var[lines] / np.abs(u) ** 2
                - 2.0 * np.real(stats.yu_covar[lines] / (y * np.conj(u)))
            )
        var_g = np.abs(g) ** 2 * np.maximum(rel, 0.0) / p
        g_all.append(g)
        var_noise_all.append(var_g)
    g_all = np.stack(g_all)
    m = len(records)
    frf = g_all.mean(axis=0)
    var_noise = np.mean(var_noise_all, axis=0)
    if m >= 2:
        var_total = (np.abs(g_all - frf) ** 2).sum(axis=0) / (m - 1)
    else:
        var_total = var_noise.copy()
    n = records[0].period_samples
    freq = lines * records[0].sample_rate_hz / n
    return BlaModel(lines, freq, frf, var_total, var_noise, m,
                    records[0].num_periods, records[0].sample_rate_hz, n)


@dataclass(frozen=True)
class ShiftStudyRow:
    level_rms: float
    resonance_hz: float | None
    distortion_level: float


def bla_shift_study(system, spec: MultisineSpec, levels, num_realizations: int = 4,
                    num_periods: int = 2, seed: int = 0) -> list[ShiftStudyRow]:
    """BLA per excitation level, with the resonance of a second-order fit.

    Parameters
    ----------
    system : callable
        ``system(u, fs) -> SignalRecord`` steady-state simulator handle
        (multi-period input in, same-grid record out).
    spec : MultisineSpec
        Base excitation design; amplitudes are rescaled per RMS level and a
        fresh random-phase realization is drawn per (level, realization).
    levels : sequence of float
        Excitation RMS values, at least two.

    Returns
    -------
    list of ShiftStudyRow
        ``resonance_hz`` is the damped frequency of the fitted pole pair: the
        BLA of each level gets the rational fit that ``init_linear_from_bla``
        makes, of order 2, and a complex pole ``p`` gives
        ``|angle(p)| fs / 2 pi``.  It is None when the two poles are real.
        ``distortion_level`` is the mean total FRF std over lines.
    """
    levels = list(levels)
    if len(levels) < 2:
        raise ValueError("need at least two excitation levels")
    base_rms = np.sqrt(sum(a**2 for a in spec.amplitudes.values()) / 2.0)
    if base_rms <= 0:
        raise ValueError("base spec carries no power")
    rows = []
    for i_level, level in enumerate(levels):
        scale = level / base_rms
        scaled = replace(spec, amplitudes={k: a * scale for k, a in spec.amplitudes.items()})
        recs = []
        for r in range(num_realizations):
            real = random_phases(scaled, seed + 1000 * i_level + r)
            u = design_multisine(real, num_periods)
            recs.append(system(u, spec.sample_rate_hz))
        model = estimate_bla_spectral(recs, scaled)
        omega = 2.0 * np.pi * model.lines / model.period_samples
        _, den = _rational_fit_sk(omega, model.frf, 2)
        pole = np.roots(den)[0]
        resonance = abs(np.angle(pole)) * model.sample_rate_hz / (2.0 * np.pi)
        rows.append(
            ShiftStudyRow(
                level_rms=float(level),
                resonance_hz=None if pole.imag == 0 else float(resonance),
                distortion_level=float(np.mean(np.sqrt(model.frf_variance_total))),
            )
        )
    return rows


def _rational_fit_sk(omega: np.ndarray, g: np.ndarray,
                     order: int) -> tuple[np.ndarray, np.ndarray]:
    """Discrete-time rational fit b(z)/a(z) of given order to FRF samples.

    Linear (Levy) least squares with Sanathanan-Koerner reweighting; real
    coefficients via stacked real/imaginary parts.
    """
    z = np.exp(1j * omega)
    powers = z[:, None] ** (-np.arange(order + 1)[None, :])  # [1, z^-1, ...]
    weight = np.ones(len(z))
    den = np.ones(order + 1)
    for _ in range(SK_ITERATIONS):
        # unknowns: [b_0..b_n, a_1..a_n];  g * (1 + sum a_k z^-k) = sum b_k z^-k
        lhs = np.concatenate([powers, -g[:, None] * powers[:, 1:]], axis=1)
        w = weight[:, None]
        m = np.concatenate([(w * lhs).real, (w * lhs).imag], axis=0)
        v = np.concatenate([(weight * g).real, (weight * g).imag])
        sol, *_ = np.linalg.lstsq(m, v, rcond=None)
        num = sol[: order + 1]
        den = np.concatenate([[1.0], sol[order + 1 :]])
        a_val = powers @ den
        weight = 1.0 / np.maximum(np.abs(a_val), 1e-12)
    return num, den
