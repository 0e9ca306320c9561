"""Synthetic benchmark systems: forced Duffing oscillator, cascaded tanks,
static polynomial nonlinearities, and block-oriented chains.

Continuous-time systems are integrated with fixed-step classical RK4 on an
oversampled grid (zero-order-hold input between samples) and decimated back to
the record rate.  All simulators are deterministic for a fixed noise seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .signals import SignalRecord

DIVERGENCE_LIMIT = 1e6


class SimulationDiverged(RuntimeError):
    """Raised when a simulated output or state leaves the divergence limit or
    is not finite."""

    def __init__(self, step_index: int):
        self.step_index = step_index
        super().__init__(f"an output or state exceeded {DIVERGENCE_LIMIT:.0e} in magnitude "
                         f"or was not finite at step {step_index}")


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise v(t) at the output and process noise w(t) injected
    before a static nonlinearity.  Process noise needs ``process_entry``
    ``"before_nonlinearity"``; only the static and block-oriented simulators
    apply it, and the Duffing and tanks simulators reject it."""

    measurement_std: float = 0.0
    process_std: float = 0.0
    process_entry: str = "none"  # {"none", "before_nonlinearity"}
    seed: int = 0

    def __post_init__(self):
        for name in ("measurement_std", "process_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if self.process_entry not in ("none", "before_nonlinearity"):
            raise ValueError("process_entry must be 'none' or 'before_nonlinearity'")
        if self.process_std > 0 and self.process_entry == "none":
            raise ValueError("process_std > 0 needs process_entry 'before_nonlinearity'")


NO_NOISE = NoiseSpec()


def reject_process_noise(noise: NoiseSpec, system: str) -> None:
    """Raise for process noise, which the ``system`` simulator does not apply."""
    if noise.process_std > 0:
        raise ValueError(f"process_std must be 0: the {system} simulator applies no process noise")


@dataclass(frozen=True)
class DuffingParams:
    """Mass-normalized hardening-spring oscillator
    ``y'' + c y' + k1 y + k3 y^3 = b u``."""

    c: float
    k1: float
    k3: float
    b: float = 1.0
    oversample: int = 16

    def __post_init__(self):
        if self.c <= 0 or self.k1 <= 0:
            raise ValueError("need c > 0 and k1 > 0 for a stable linear core")
        if self.oversample < 8:
            raise ValueError("oversample must be >= 8")


def default_duffing(fs: float, resonance_frac: float = 0.1, damping_ratio: float = 0.05,
                    hardening: float = 1.0, oversample: int = 16) -> DuffingParams:
    """Synthetic Duffing parameters with the resonance at ``resonance_frac * fs``.

    ``hardening`` scales the cubic stiffness relative to ``k1``; the default
    produces clearly visible odd distortion for unit-RMS band excitation.
    Negative values give a softening spring.
    """
    w0 = 2.0 * np.pi * resonance_frac * fs
    k1 = w0**2
    return DuffingParams(
        c=2.0 * damping_ratio * w0,
        k1=k1,
        k3=hardening * k1,
        b=k1,  # unit DC gain
        oversample=oversample,
    )


def simulate_duffing(params: DuffingParams, u: np.ndarray, fs: float,
                     noise: NoiseSpec = NO_NOISE) -> SignalRecord:
    """Integrate the forced Duffing oscillator driven by the sampled input.

    RK4 at ``fs * oversample`` with the input held constant over each sample
    interval, decimated back to ``fs``; zero initial state.  Measurement noise
    is added to the decimated displacement.

    Raises
    ------
    SimulationDiverged
        If the displacement magnitude exceeds 1e6 (step index reported).
    ValueError
        If ``noise`` asks for process noise, which this simulator does not apply.
    """
    u = _continuous_input(u, fs, noise, "Duffing")
    c, k1, k3, b = float(params.c), float(params.k1), float(params.k3), float(params.b)
    h = 1.0 / (float(fs) * params.oversample)
    half_h = 0.5 * h

    # scalar state update on Python floats: the two-state loop dominates runtime
    x1 = 0.0
    x2 = 0.0
    y = np.empty(len(u))
    for i, uk in enumerate(u.tolist()):
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
        if not isfinite(x1) or abs(x1) > DIVERGENCE_LIMIT:
            raise SimulationDiverged(i)
    y = _add_measurement_noise(y, noise)
    return SignalRecord(fs, len(u), 1, u, y, label="duffing")


@dataclass(frozen=True)
class TanksParams:
    """Cascaded-tanks constants; states are clamped to [0, x_max] to model
    overflow, with a fraction of upper-tank overflow spilling into the lower
    tank."""

    k1: float
    k2: float
    k3: float
    k4: float
    x1_max: float
    x2_max: float
    spill_fraction: float = 0.5
    oversample: int = 16

    def __post_init__(self):
        if min(self.k1, self.k2, self.k3, self.k4) <= 0:
            raise ValueError("all flow constants must be positive")
        if not (np.isfinite(self.x1_max) and np.isfinite(self.x2_max)):
            raise ValueError("overflow levels must be finite")
        if self.x1_max <= 0 or self.x2_max <= 0:
            raise ValueError("overflow levels must be positive")
        if not 0.0 <= self.spill_fraction <= 1.0:
            raise ValueError("spill_fraction must lie in [0, 1]")
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")


def simulate_tanks(params: TanksParams, u: np.ndarray, fs: float,
                   noise: NoiseSpec = NO_NOISE) -> SignalRecord:
    """Integrate the two-tank cascade ``x1' = -k1 sqrt(x1) + k4 u``,
    ``x2' = k2 sqrt(x1) - k3 sqrt(x2)`` with overflow clamping; output is the
    lower level plus measurement noise.

    Each RK4 stage evaluates the rates at the state clamped to
    ``[0, x_max]``; a full upper tank spills a fraction of its excess inflow
    into the lower one, and a full lower tank does not rise.  The state is
    clamped again after each step.  The loop is written out on Python floats.
    A clamp is ``0.0 if x < 0.0 else (x_max if x > x_max else x)``, which is
    exactly ``min(max(x, 0.0), x_max)``: both keep ``x`` unless a strict
    comparison holds, so NaN and -0.0 pass through unchanged.  The first
    stage needs no clamp, because the step before left the state clamped
    (and clamping is idempotent).  Process noise is rejected: this simulator
    does not apply it.
    """
    u = _continuous_input(u, fs, noise, "tanks")
    oversample = params.oversample
    h = 1.0 / (float(fs) * oversample)
    half_h = 0.5 * h
    sixth_h = h / 6.0
    k2, k3, k4 = float(params.k2), float(params.k3), float(params.k4)
    neg_k1 = -float(params.k1)
    x1_max, x2_max = float(params.x1_max), float(params.x2_max)
    spill = float(params.spill_fraction)

    x1 = 0.0
    x2 = 0.0
    y = np.empty(len(u))
    for i, uk in enumerate(u.tolist()):
        y[i] = x2
        inflow = k4 * uk
        for _ in range(oversample):
            r = sqrt(x1)
            a1 = neg_k1 * r + inflow
            b1 = k2 * r - k3 * sqrt(x2)
            if x1 >= x1_max and a1 > 0.0:
                # upper tank is full: excess inflow spills, a fraction reaches tank 2
                b1 += spill * a1
                a1 = 0.0
            if x2 >= x2_max and b1 > 0.0:
                b1 = 0.0

            p = x1 + half_h * a1
            q = x2 + half_h * b1
            r = sqrt(0.0 if p < 0.0 else (x1_max if p > x1_max else p))
            a2 = neg_k1 * r + inflow
            b2 = k2 * r - k3 * sqrt(0.0 if q < 0.0 else (x2_max if q > x2_max else q))
            if p >= x1_max and a2 > 0.0:
                b2 += spill * a2
                a2 = 0.0
            if q >= x2_max and b2 > 0.0:
                b2 = 0.0

            p = x1 + half_h * a2
            q = x2 + half_h * b2
            r = sqrt(0.0 if p < 0.0 else (x1_max if p > x1_max else p))
            a3 = neg_k1 * r + inflow
            b3 = k2 * r - k3 * sqrt(0.0 if q < 0.0 else (x2_max if q > x2_max else q))
            if p >= x1_max and a3 > 0.0:
                b3 += spill * a3
                a3 = 0.0
            if q >= x2_max and b3 > 0.0:
                b3 = 0.0

            p = x1 + h * a3
            q = x2 + h * b3
            r = sqrt(0.0 if p < 0.0 else (x1_max if p > x1_max else p))
            a4 = neg_k1 * r + inflow
            b4 = k2 * r - k3 * sqrt(0.0 if q < 0.0 else (x2_max if q > x2_max else q))
            if p >= x1_max and a4 > 0.0:
                b4 += spill * a4
                a4 = 0.0
            if q >= x2_max and b4 > 0.0:
                b4 = 0.0

            x1 += sixth_h * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            x2 += sixth_h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            x1 = 0.0 if x1 < 0.0 else (x1_max if x1 > x1_max else x1)
            x2 = 0.0 if x2 < 0.0 else (x2_max if x2 > x2_max else x2)
    y = _add_measurement_noise(y, noise)
    return SignalRecord(fs, len(u), 1, u, y, label="tanks")


def simulate_static(poly: np.ndarray, u: np.ndarray, noise: NoiseSpec = NO_NOISE,
                    fs: float = 1.0) -> SignalRecord:
    """Static polynomial nonlinearity ``y = sum_i a_i (u + w)^i + v``.

    ``poly`` lists coefficients in ascending powers.  Process noise ``w`` is
    injected before the nonlinearity when ``noise.process_entry`` selects it;
    it is fresh per sample (aperiodic).
    """
    u = np.asarray(u, dtype=float)
    rng = np.random.default_rng(noise.seed)
    y = _add_measurement_noise(_polynomial(poly, u, noise, rng), noise, rng)
    return SignalRecord(fs, len(u), 1, u, y, label="static")


@dataclass(frozen=True)
class LinearBlock:
    """Stable rational discrete-time filter b(q)/a(q)."""

    b: tuple[float, ...]
    a: tuple[float, ...]

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a[0] == 0.0:
            raise ValueError("leading denominator coefficient must be nonzero")
        poles = np.roots(a)
        if len(poles) and np.max(np.abs(poles)) >= 1.0:
            raise ValueError(f"unstable filter: pole magnitude {np.max(np.abs(poles)):.4f} >= 1")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Filter ``x`` from a zero initial state with the arithmetic of
        scipy's ``lfilter``: an FIR block (one ``a`` coefficient)
        convolves ``b / a[0]``; any other block runs the transposed direct
        form II recursion on Python floats, after dividing by ``a[0]`` and
        zero-padding ``a`` and ``b`` to one length."""
        x = np.asarray(x, dtype=float)
        a0 = float(self.a[0])
        if len(self.a) == 1:
            return np.convolve(np.asarray(self.b, dtype=float) / a0, x)[: len(x)]
        k = max(len(self.a), len(self.b))
        b = [float(v) / a0 for v in self.b] + [0.0] * (k - len(self.b))
        a = [float(v) / a0 for v in self.a] + [0.0] * (k - len(self.a))
        b0, b_last, a_last = b[0], b[-1], a[-1]
        middle = list(enumerate(zip(b[1:-1], a[1:-1])))
        z = [0.0] * (k - 1)
        y = []
        for xn in x.tolist():
            yn = z[0] + b0 * xn
            for i, (bi, ai) in middle:
                z[i] = z[i + 1] + xn * bi - yn * ai
            z[-1] = xn * b_last - yn * a_last
            y.append(yn)
        return np.array(y)


@dataclass(frozen=True)
class BlockOrientedSpec:
    """Wiener / Hammerstein / Wiener-Hammerstein chain description.

    ``nonlinearity`` is a univariate polynomial in ascending coefficients.
    ``blocks`` holds one filter for wiener/hammerstein and two for
    wiener_hammerstein (applied in declared order around the nonlinearity).
    """

    structure: str
    blocks: tuple[LinearBlock, ...]
    nonlinearity: tuple[float, ...]

    def __post_init__(self):
        expected = {"wiener": 1, "hammerstein": 1, "wiener_hammerstein": 2}
        if self.structure not in expected:
            raise ValueError(f"structure must be one of {sorted(expected)}")
        if len(self.blocks) != expected[self.structure]:
            raise ValueError(
                f"{self.structure} needs {expected[self.structure]} linear block(s), "
                f"got {len(self.blocks)}"
            )


def simulate_block_oriented(spec: BlockOrientedSpec, u: np.ndarray,
                            noise: NoiseSpec = NO_NOISE, fs: float = 1.0) -> SignalRecord:
    """Run the block chain with zero initial filter states.

    Process noise enters just before the static nonlinearity; measurement
    noise is added at the output.
    """
    u = np.asarray(u, dtype=float)
    rng = np.random.default_rng(noise.seed)

    def nl(x):
        return _polynomial(spec.nonlinearity, x, noise, rng)

    if spec.structure == "wiener":
        y = nl(spec.blocks[0].apply(u))
    elif spec.structure == "hammerstein":
        y = spec.blocks[0].apply(nl(u))
    else:
        y = spec.blocks[1].apply(nl(spec.blocks[0].apply(u)))
    y = _add_measurement_noise(y, noise, rng)
    return SignalRecord(fs, len(u), 1, u, y, label=spec.structure)


def steady_state_record(simulate, u_period: np.ndarray, fs: float, num_periods: int,
                        discard_periods: int = 1) -> SignalRecord:
    """Drive a simulator with a tiled periodic input and drop transient periods.

    ``simulate`` is called once on ``discard_periods + num_periods`` tiled
    periods; the first ``discard_periods`` are removed from both channels and
    a multi-period :class:`SignalRecord` is returned.
    """
    n = len(u_period)
    total = discard_periods + num_periods
    u_full = np.tile(np.asarray(u_period, dtype=float), total)
    rec = simulate(u=u_full, fs=fs)
    keep = slice(discard_periods * n, total * n)
    return SignalRecord(fs, n, num_periods, rec.input[keep], rec.output[keep],
                        label=rec.label)


def _continuous_input(u: np.ndarray, fs: float, noise: NoiseSpec, system: str) -> np.ndarray:
    """The input of an RK4 simulator as floats, after the checks both share."""
    u = np.asarray(u, dtype=float)
    if fs <= 0:
        raise ValueError("fs must be positive")
    if not np.all(np.isfinite(u)):
        raise ValueError("input contains non-finite samples")
    reject_process_noise(noise, system)
    return u


def _polynomial(coeffs, x: np.ndarray, noise: NoiseSpec, rng) -> np.ndarray:
    """``sum_i a_i (x + w)^i`` for ascending ``coeffs``, with the process
    noise ``w`` of ``noise`` drawn from ``rng`` (none when its std is 0)."""
    if noise.process_std > 0:
        x = x + rng.normal(0.0, noise.process_std, len(x))
    out = np.zeros(len(x))
    for i, a in enumerate(np.asarray(coeffs, dtype=float)):
        if a != 0.0:
            out += a * x**i
    return out


def _add_measurement_noise(y: np.ndarray, noise: NoiseSpec,
                           rng: np.random.Generator | None = None) -> np.ndarray:
    if noise.measurement_std <= 0:
        return y
    if rng is None:
        rng = np.random.default_rng(noise.seed)
    return y + rng.normal(0.0, noise.measurement_std, len(y))
