"""Periodic multisine excitation design and DFT utilities.

Conventions used throughout the package:

* multisines are sums of cosines, phases in radians,
  ``u(l) = sum_k U_k cos(2*pi*k*l/N + phi_k)``;
* the DFT is forward-unnormalized, ``X(k) = sum_l x(l) exp(-2j*pi*k*l/N)``,
  and the inverse carries the ``1/N`` factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

GRID_KINDS = ("full", "odd_only", "odd_random_skip")


@dataclass(frozen=True)
class MultisineSpec:
    """Design description of a periodic multisine excitation.

    ``excited_lines`` are harmonic indices ``k`` of the fundamental
    ``f0 = sample_rate_hz / period_samples``; amplitudes and phases are keyed
    by line.  Unexcited lines carry amplitude zero by construction (they are
    simply absent from the maps).
    """

    sample_rate_hz: float
    period_samples: int
    excited_lines: tuple[int, ...]
    amplitudes: dict[int, float] = field(repr=False)
    phases: dict[int, float] = field(repr=False)
    grid_kind: str = "full"
    rng_seed: int = 0

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.period_samples < 1:
            raise ValueError("period_samples must be a positive integer")
        if self.grid_kind not in GRID_KINDS:
            raise ValueError(f"grid_kind must be one of {GRID_KINDS}")
        lines = tuple(sorted(int(k) for k in self.excited_lines))
        object.__setattr__(self, "excited_lines", lines)
        for k in lines:
            if not 1 <= k < self.period_samples / 2:
                raise ValueError(f"excited line {k} outside (0, N/2) for N={self.period_samples}")
        if self.grid_kind in ("odd_only", "odd_random_skip"):
            bad = [k for k in lines if k % 2 == 0]
            if bad:
                raise ValueError(f"grid_kind={self.grid_kind} requires odd lines, got even {bad}")
        if set(self.amplitudes) != set(lines):
            raise ValueError("amplitudes must be keyed exactly by the excited lines")
        if any(a < 0 for a in self.amplitudes.values()):
            raise ValueError("amplitudes must be nonnegative")
        if set(self.phases) != set(lines):
            raise ValueError("phases must be keyed exactly by the excited lines")

    @property
    def f0_hz(self) -> float:
        return self.sample_rate_hz / self.period_samples

    def to_dict(self) -> dict:
        return {
            "sample_rate_hz": self.sample_rate_hz,
            "period_samples": self.period_samples,
            "excited_lines": list(self.excited_lines),
            "amplitudes": {str(k): v for k, v in self.amplitudes.items()},
            "phases": {str(k): v for k, v in self.phases.items()},
            "grid_kind": self.grid_kind,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MultisineSpec":
        return cls(
            sample_rate_hz=float(d["sample_rate_hz"]),
            period_samples=int(d["period_samples"]),
            excited_lines=tuple(int(k) for k in d["excited_lines"]),
            amplitudes={int(k): float(v) for k, v in d["amplitudes"].items()},
            phases={int(k): float(v) for k, v in d["phases"].items()},
            grid_kind=d["grid_kind"],
            rng_seed=int(d["rng_seed"]),
        )


@dataclass(frozen=True)
class SignalRecord:
    """Sampled multi-period input/output data on a fixed grid."""

    sample_rate_hz: float
    period_samples: int
    num_periods: int
    input: np.ndarray
    output: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.num_periods < 1:
            raise ValueError("num_periods must be >= 1")
        u = np.asarray(self.input, dtype=float)
        y = np.asarray(self.output, dtype=float)
        n_total = self.period_samples * self.num_periods
        if u.shape != (n_total,) or y.shape != (n_total,):
            raise ValueError(
                f"input/output must both have length N*P = {n_total}, "
                f"got {u.shape} and {y.shape}"
            )
        object.__setattr__(self, "input", u)
        object.__setattr__(self, "output", y)

    def period(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Input and output samples of one period."""
        n = self.period_samples
        sl = slice(index * n, (index + 1) * n)
        return self.input[sl], self.output[sl]


@dataclass(frozen=True)
class Spectrum:
    """DFT of one period; bin ``k`` sits at frequency ``k * fs / N``."""

    bins: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "bins", np.asarray(self.bins, dtype=complex))

    def __len__(self) -> int:
        return len(self.bins)

    @property
    def frequencies_hz(self) -> np.ndarray:
        n = len(self.bins)
        return np.arange(n) * self.sample_rate_hz / n


def dft(signal: np.ndarray, sample_rate_hz: float = 1.0) -> Spectrum:
    """Forward-unnormalized DFT of a real signal."""
    x = np.asarray(signal, dtype=float)
    if x.size == 0:
        raise ValueError("cannot transform an empty signal")
    return Spectrum(np.fft.fft(x), sample_rate_hz)


def idft(spectrum: Spectrum) -> np.ndarray:
    """Inverse DFT (scaled by 1/N), real part of the reconstruction."""
    return np.fft.ifft(spectrum.bins).real


def design_multisine(spec: MultisineSpec, num_periods: int = 1) -> np.ndarray:
    """Generate the multisine ``u(l) = sum_k U_k cos(2*pi*k*l/N + phi_k)``.

    One period comes from a single inverse real FFT of the half spectrum
    with ``N/2 * U_k * exp(j*phi_k)`` on bin ``k``, and is tiled
    ``num_periods`` times, so the samples are exactly periodic: the value at
    ``l + N`` is the value at ``l`` bit for bit.

    Returns
    -------
    ndarray, shape (num_periods * period_samples,)
    """
    if num_periods < 1:
        raise ValueError("num_periods must be >= 1")
    n = spec.period_samples
    lines = np.array(spec.excited_lines, dtype=np.int64)
    amps = np.array([spec.amplitudes[k] for k in spec.excited_lines])
    phases = np.array([spec.phases[k] for k in spec.excited_lines])
    bins = np.zeros(n // 2 + 1, dtype=complex)
    bins[lines] = 0.5 * n * amps * np.exp(1j * phases)
    return np.tile(np.fft.irfft(bins, n), num_periods)


def random_phases(spec: MultisineSpec, seed: int) -> MultisineSpec:
    """New spec with phases drawn i.i.d. uniform on [0, 2*pi).

    Deterministic for a fixed seed; the draw order follows the sorted excited
    lines so phase assignment is independent of input dict ordering.
    """
    rng = np.random.default_rng(seed)
    phases = {k: float(p) for k, p in zip(spec.excited_lines, rng.uniform(0.0, 2.0 * np.pi, len(spec.excited_lines)))}
    return replace(spec, phases=phases, rng_seed=seed)


def split_periods(rec: SignalRecord) -> list[tuple[Spectrum, Spectrum]]:
    """Per-period DFT pairs ``(U^[l], Y^[l])`` for ``l = 1..P``."""
    if rec.num_periods < 1:
        raise ValueError("record must hold at least one period")
    out = []
    for p in range(rec.num_periods):
        u, y = rec.period(p)
        out.append((dft(u, rec.sample_rate_hz), dft(y, rec.sample_rate_hz)))
    return out


def full_grid(n: int, k_max: int) -> tuple[int, ...]:
    """All harmonics 1..k_max."""
    _check_band(n, k_max)
    return tuple(range(1, k_max + 1))


def odd_grid(n: int, k_max: int) -> tuple[int, ...]:
    """All odd harmonics up to k_max."""
    _check_band(n, k_max)
    return tuple(range(1, k_max + 1, 2))


def odd_random_skip_grid(
    n: int, k_max: int, seed: int, group_size: int = 4
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Odd grid with one seeded detection line removed per group.

    Consecutive groups of ``group_size`` odd candidate lines each lose exactly
    one line at a seeded-random position, so unexcited detection lines are
    spread uniformly over the band.

    Returns
    -------
    (excited, detection) : tuple of harmonic tuples
    """
    if group_size < 2:
        raise ValueError("group_size must be >= 2 (a group must keep at least one excited line)")
    candidates = odd_grid(n, k_max)
    rng = np.random.default_rng(seed)
    excited: list[int] = []
    detection: list[int] = []
    for start in range(0, len(candidates), group_size):
        group = candidates[start : start + group_size]
        if len(group) < 2:
            # a trailing singleton stays excited; no detection line fits
            excited.extend(group)
            continue
        skip = int(rng.integers(len(group)))
        for i, k in enumerate(group):
            (detection if i == skip else excited).append(k)
    return tuple(excited), tuple(detection)


def flat_amplitude_spec(
    n: int,
    fs: float,
    lines: tuple[int, ...],
    rms: float = 1.0,
    grid_kind: str = "full",
    seed: int = 0,
) -> MultisineSpec:
    """Flat amplitude spectrum over ``lines`` scaled to the requested RMS.

    The RMS of a multisine is ``sqrt(sum_k U_k^2 / 2)``; a flat spectrum thus
    uses ``U_k = rms * sqrt(2 / F)``.  Phases start at zero; call
    :func:`random_phases` for a randomized realization.
    """
    if not lines:
        raise ValueError("need at least one excited line")
    amp = rms * np.sqrt(2.0 / len(lines))
    return MultisineSpec(
        sample_rate_hz=fs,
        period_samples=n,
        excited_lines=tuple(lines),
        amplitudes={k: amp for k in lines},
        phases={k: 0.0 for k in lines},
        grid_kind=grid_kind,
        rng_seed=seed,
    )


def tile_periods(u_period: np.ndarray, num_periods: int) -> np.ndarray:
    """Repeat one period P times."""
    return np.tile(np.asarray(u_period, dtype=float), num_periods)


def _check_band(n: int, k_max: int) -> None:
    if not 1 <= k_max < n / 2:
        raise ValueError(f"k_max must satisfy 1 <= k_max < N/2, got {k_max} for N={n}")
