"""Correctness checks of the benchmark's workloads.

Each check compares a program output with a computation made here, apart
from the program (a plain state-space loop, a direct polynomial evaluation,
scipy's zero-order-hold discretisation of a linear model, numpy's FFT), or with a property the
method must have.  A check returns ``None`` when the output passes and a
one-line description of the fault otherwise.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


# ------------------------------------------------------------ reference code

def monomials(exponents, z: np.ndarray) -> np.ndarray:
    """Every monomial ``prod_j z_j^e_j`` at the points ``z`` (T, n_vars)."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    return np.stack([np.prod(z ** np.asarray(e, dtype=float), axis=1) for e in exponents],
                    axis=1)


def decoupled(w, v, branches, p: np.ndarray) -> np.ndarray:
    """``W g(V^T p)`` with ``g_i(x) = sum_j c_ij x^j``, at the points ``p`` (T, n_in)."""
    x = np.atleast_2d(np.asarray(p, dtype=float)) @ np.asarray(v, dtype=float)
    g = np.stack([sum(c * x[:, i] ** j for j, c in enumerate(branch))
                  for i, branch in enumerate(branches)], axis=1)
    return g @ np.asarray(w, dtype=float).T


def state_space_output(a, b, c, d, x0, state_map, u: np.ndarray) -> np.ndarray:
    """Output of ``x(t+1) = A x + B u + E(x, u)``, ``y = C x + D u``, one step at a time.

    ``state_map`` maps the point ``(x, u)`` of shape (1, n+1) to E's value of
    shape (1, n), or is None for a linear model.
    """
    x = np.array(x0, dtype=float)
    y = np.empty(len(u))
    for t, ut in enumerate(u):
        y[t] = c @ x + d * ut
        step = a @ x + b * ut
        if state_map is not None:
            step = step + state_map(np.append(x, ut)[None, :])[0]
        x = step
    return y


def zoh_frf(a, b, c, fs: float, lines: np.ndarray, n: int) -> np.ndarray:
    """FRF at the lines of an N-sample period of ``x' = A x + B u``, ``y = C x``
    sampled at ``fs`` with a zero-order hold on the input."""
    from scipy import signal

    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    c = np.asarray(c, dtype=float).reshape(1, -1)
    ad, bd, cd, _, _ = signal.cont2discrete((a, b, c, np.zeros((1, 1))), 1.0 / fs, method="zoh")
    eye = np.eye(len(a))
    return np.array([(cd @ np.linalg.solve(z * eye - ad, bd))[0, 0]
                     for z in np.exp(2j * np.pi * np.asarray(lines) / n)])


def oscillator_frf(c: float, k1: float, b: float, fs: float, lines, n: int) -> np.ndarray:
    """ZOH-sampled FRF of ``y'' + c y' + k1 y = b u``."""
    return zoh_frf([[0.0, 1.0], [-k1, -c]], [0.0, b], [1.0, 0.0], fs, lines, n)


def tanks_frf(k1: float, k2: float, k3: float, k4: float, u0: float, fs: float,
              lines, n: int) -> np.ndarray:
    """ZOH-sampled FRF of the cascaded tanks linearised at the constant input ``u0``."""
    s1 = k4 * u0 / k1                       # sqrt of the upper level at rest
    s2 = k2 * s1 / k3                       # sqrt of the lower level at rest
    a = [[-k1 / (2.0 * s1), 0.0], [k2 / (2.0 * s1), -k3 / (2.0 * s2)]]
    return zoh_frf(a, [k4, 0.0], [0.0, 1.0], fs, lines, n)


# ------------------------------------------------------------------- checks

def at_most(name: str, value: float, bound: float) -> str | None:
    if not value <= bound:
        return f"{name} = {value:.4g} exceeds {bound:.4g}"
    return None


def within(name: str, value: float, low: float, high: float) -> str | None:
    if not low <= value <= high:
        return f"{name} = {value:.4g} outside [{low:.4g}, {high:.4g}]"
    return None


def relative_close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> str | None:
    """Largest ``|got - want|`` over the largest ``|want|`` is at most ``tol``."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} differs from {want.shape}"
    scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
    err = float(np.max(np.abs(got - want))) / scale
    if not err <= tol:
        return f"{name}: relative difference {err:.3g} exceeds {tol:.3g}"
    return None


def non_increasing(name: str, costs) -> str | None:
    costs = np.asarray(costs, dtype=float)
    if len(costs) == 0 or not np.all(np.isfinite(costs)):
        return f"{name}: cost trajectory is empty or not finite"
    rises = np.flatnonzero(np.diff(costs) > 0.0)
    if len(rises):
        i = int(rises[0])
        return f"{name}: accepted cost rises at step {i + 1} ({costs[i]:.6g} -> {costs[i + 1]:.6g})"
    return None


def strictly_increasing(name: str, values) -> str | None:
    vals = list(values)
    if any(v is None for v in vals) or any(b <= a for a, b in zip(vals, vals[1:])):
        return f"{name}: {vals} is not strictly increasing"
    return None


def second_period_rms(y: np.ndarray, y_model: np.ndarray, n: int) -> float:
    sl = slice(n, 2 * n)
    return float(np.sqrt(np.mean((np.asarray(y)[sl] - np.asarray(y_model)[sl]) ** 2)))


def spectrum_on_lines(name: str, u_period: np.ndarray, amplitudes: dict,
                      tol: float = 1e-9) -> str | None:
    """One period of ``sum_k A_k cos(2 pi k l / N + phi_k)`` has ``|U(k)| = N A_k / 2``
    on its lines and no energy elsewhere below the Nyquist line."""
    n = len(u_period)
    mag = np.abs(np.fft.rfft(u_period))
    want = np.zeros_like(mag)
    for k, amp in amplitudes.items():
        want[int(k)] = 0.5 * n * amp
    return relative_close(name, mag, want, tol)


def distortion_kind(name: str, even_db: float, odd_db: float, kind: str,
                    present_db: float = 20.0, absent_db: float = 6.0) -> str | None:
    """A static ``u^2`` term shows on even lines only, a ``u^3`` term on odd ones."""
    hit, miss = (even_db, odd_db) if kind == "even" else (odd_db, even_db)
    if hit >= present_db and miss <= absent_db:
        return None
    return (f"{name}: expected {kind} distortion, got even {even_db:.1f} dB and "
            f"odd {odd_db:.1f} dB over the noise floor")


def equal_text(name: str, got: str, want: str) -> str | None:
    if got != want:
        return f"{name}: {got!r} instead of {want!r}"
    return None


def startswith(name: str, got: str, prefix: str) -> str | None:
    if not str(got).startswith(prefix):
        return f"{name}: {got!r} does not start with {prefix!r}"
    return None


def identical_trees(name: str, a: Path, b: Path, skip=()) -> str | None:
    """Both directories hold the same files with the same bytes."""
    files_a = sorted(p.relative_to(a) for p in Path(a).rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in Path(b).rglob("*") if p.is_file())
    files_a = [f for f in files_a if f.as_posix() not in skip]
    files_b = [f for f in files_b if f.as_posix() not in skip]
    if files_a != files_b:
        return f"{name}: file lists differ ({len(files_a)} and {len(files_b)} files)"
    for rel in files_a:
        if (Path(a) / rel).read_bytes() != (Path(b) / rel).read_bytes():
            return f"{name}: {rel.as_posix()} differs"
    if not files_a:
        return f"{name}: no files written"
    return None


def collect(*problems) -> list[str]:
    return [p for p in problems if p]
