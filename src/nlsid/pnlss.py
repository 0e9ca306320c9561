"""Polynomial nonlinear state-space identification.

Two-step scheme: a discrete-time linear state-space model is fitted to the
nonparametric BLA by frequency-domain least squares, then polynomial terms in
(states, input) are added to the state update (and optionally the output) and
all parameters, including the initial state, are refined by Levenberg-
Marquardt on the frequency-domain simulation error at the excited lines.

The state nonlinearity may also be a decoupled form ``W g(V^T (x, u))`` (see
:mod:`nlsid.decouple`); :func:`fit_pnlss_decoupled` re-optimizes such reduced
models on data, mirroring the model-pruning workflow.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass, field, replace
from math import isfinite
from operator import mul

import numpy as np
from scipy import signal as sp_signal

from .bla import BlaModel
from .decouple import DecoupledFunction
from .polybasis import (MonomialPlan, PolyMap, enumerate_monomials, eval_monomials,
                        monomial_jacobian)
from .signals import SignalRecord

DIVERGENCE_LIMIT = 1e6
DAMPING_CEILING = 1e14


@dataclass(frozen=True)
class PnlssModel:
    """Discrete-time polynomial nonlinear state-space model.

    ``x(t+1) = A x + B u + E(x, u)``, ``y(t) = C x + D u + F(x, u)``.  E is a
    PolyMap, a DecoupledFunction over (x, u), or None; F is a PolyMap or None.
    With both absent the model is exactly linear.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
    e_map: PolyMap | DecoupledFunction | None
    f_map: PolyMap | None
    x0: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("A must be square")
        b = np.asarray(self.b, dtype=float).reshape(n)
        c = np.asarray(self.c, dtype=float).reshape(n)
        x0 = np.asarray(self.x0, dtype=float).reshape(n)
        e = self.e_map
        if e is not None:
            n_in = e.n_vars if isinstance(e, PolyMap) else e.n_inputs
            n_out = e.n_outputs
            if n_in != n + 1 or n_out != n:
                raise ValueError(f"E must map (x, u) of size {n + 1} to {n} states")
        if self.f_map is not None:
            if self.f_map.n_vars != n + 1 or self.f_map.n_outputs != 1:
                raise ValueError("F must map (x, u) to a single output")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "x0", x0)

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    def frf(self, omega: np.ndarray) -> np.ndarray:
        """Linear-part FRF ``C (zI - A)^-1 B + D`` at digital frequencies."""
        z = np.exp(1j * np.asarray(omega, dtype=float))
        n = self.state_dim
        out = np.empty(len(z), dtype=complex)
        for i, zi in enumerate(z):
            out[i] = self.c @ np.linalg.solve(zi * np.eye(n) - self.a, self.b) + self.d
        return out

    def to_dict(self) -> dict:
        if self.e_map is None:
            e = None
        elif isinstance(self.e_map, PolyMap):
            e = self.e_map.to_dict()
        else:
            e = {"decoupled": self.e_map.to_dict()}
        return {
            "A": self.a.tolist(),
            "B": self.b.tolist(),
            "C": self.c.tolist(),
            "D": self.d,
            "E": e,
            "Fout": self.f_map.to_dict() if self.f_map is not None else None,
            "x0": self.x0.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PnlssModel":
        e_raw = d.get("E")
        if e_raw is None:
            e = None
        elif "decoupled" in e_raw:
            e = DecoupledFunction.from_dict(e_raw["decoupled"])
        else:
            e = PolyMap.from_dict(e_raw)
        return cls(
            a=np.asarray(d["A"], dtype=float),
            b=np.asarray(d["B"], dtype=float),
            c=np.asarray(d["C"], dtype=float),
            d=float(d["D"]),
            e_map=e,
            f_map=PolyMap.from_dict(d["Fout"]) if d.get("Fout") is not None else None,
            x0=np.asarray(d["x0"], dtype=float),
        )


@dataclass(frozen=True)
class PnlssSimResult:
    """Simulation output, state trajectory, and divergence status."""

    y: np.ndarray
    x_traj: np.ndarray
    diverged: bool
    divergence_index: int | None


def simulate_pnlss(model: PnlssModel, u: np.ndarray,
                   x0: np.ndarray | None = None) -> PnlssSimResult:
    """Simulate the model; divergence truncates with a status, not an error.

    The loop steps on Python floats.  With ``z = (x, u)``, the output and
    every state update are each one dot product with the table
    ``[1, z, monomials of z]`` of a :class:`MonomialPlan`; a decoupled E
    appends its branch outputs ``g_i(v_i . z)`` to the table, one Horner
    pass per branch, and W joins the state rows.
    """
    u = np.asarray(u, dtype=float)
    n = model.state_dim
    t_len = len(u)
    x = (model.x0 if x0 is None else np.asarray(x0, dtype=float).reshape(n)).tolist()
    e_map, f_map = model.e_map, model.f_map
    poly_degrees = [m.basis.degree_max for m in (e_map, f_map) if isinstance(m, PolyMap)]
    plan = MonomialPlan(n + 1, max(poly_degrees, default=1))
    decoupled = isinstance(e_map, DecoupledFunction)
    x_rows = np.zeros((n, plan.size + (e_map.r if decoupled else 0)))
    x_rows[:, 1 : n + 2] = np.column_stack([model.a, model.b])
    y_row = np.zeros(plan.size)
    y_row[1 : n + 2] = [*model.c, model.d]
    branches = []
    if isinstance(e_map, PolyMap):
        x_rows[:, plan.positions(e_map.basis)] += e_map.coefficients
    elif decoupled:
        x_rows[:, plan.size :] = e_map.w
        branches = [(v, c[::-1].tolist()) for v, c in zip(e_map.v.T.tolist(), e_map.branches)]
    if f_map is not None:
        y_row[plan.positions(f_map.basis)] += f_map.coefficients[0]
    x_rows, y_row, levels = x_rows.tolist(), y_row.tolist(), plan.levels
    ys, xs = array("d"), array("d")  # raw doubles: no float object kept per sample
    diverged = False
    for ut in u.tolist():
        xs.extend(x)
        z = [*x, ut]
        table = [1.0, *z]
        for level in levels:
            table += [table[p] * z[v] for p, v in level]
        yt = sum(map(mul, y_row, table))
        ys.append(yt)
        if not isfinite(yt) or abs(yt) > DIVERGENCE_LIMIT or max(map(abs, x)) > DIVERGENCE_LIMIT:
            diverged = True
            break
        for v, coeffs in branches:
            s = sum(map(mul, v, z))
            g = 0.0
            for c in coeffs:
                g = g * s + c
            table.append(g)
        x = [sum(map(mul, row, table)) for row in x_rows]
    y = np.zeros(t_len)
    x_traj = np.zeros((t_len, n))
    y[: len(ys)] = ys
    x_traj[: len(ys)] = np.frombuffer(xs).reshape(-1, n)
    if diverged:
        t = len(ys) - 1
        y[t:] = y[t - 1] if t > 0 else 0.0
        return PnlssSimResult(y, x_traj, True, t)
    return PnlssSimResult(y, x_traj, False, None)


def _rational_fit_sk(omega: np.ndarray, g: np.ndarray, order: int,
                     iterations: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Discrete-time rational fit b(z)/a(z) of given order to FRF samples.

    Linear (Levy) least squares with Sanathanan-Koerner reweighting; real
    coefficients via stacked real/imaginary parts.
    """
    z = np.exp(1j * omega)
    powers = z[:, None] ** (-np.arange(order + 1)[None, :])  # [1, z^-1, ...]
    weight = np.ones(len(z))
    den = np.ones(order + 1)
    for _ in range(iterations):
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


def _reflect_unstable(den: np.ndarray) -> tuple[np.ndarray, bool]:
    roots = np.roots(den)
    bad = np.abs(roots) >= 1.0
    if not np.any(bad):
        return den, False
    roots[bad] = 1.0 / np.conj(roots[bad])
    return np.real(np.poly(roots)), True


def init_linear_from_bla(bla: BlaModel, state_dim: int) -> tuple[PnlssModel, float]:
    """Linear state-space initialization from the nonparametric BLA.

    Fits a rational transfer function of order ``state_dim`` to the BLA FRF by
    frequency-domain least squares, converts it to state-space, and reflects
    any unstable eigenvalues inside the unit circle (with a warning and a
    numerator re-fit).  E and F start empty; x0 is zero.

    Returns
    -------
    (model, frf_rms) : the model and the relative RMS of the FRF fit residual.
    """
    if len(bla.lines) < 2 * state_dim:
        raise ValueError(f"need at least 2*n = {2 * state_dim} excited lines, "
                         f"have {len(bla.lines)}")
    omega = 2.0 * np.pi * np.asarray(bla.lines, dtype=float) / bla.period_samples
    g = bla.frf
    num, den = _rational_fit_sk(omega, g, state_dim)
    den_stable, reflected = _reflect_unstable(den)
    if reflected:
        warnings.warn("unstable linear fit: eigenvalues reflected inside the unit "
                      "circle and numerator re-fitted", stacklevel=2)
        den = den_stable
        z = np.exp(1j * omega)
        powers = z[:, None] ** (-np.arange(state_dim + 1)[None, :])
        target = g * (powers @ den)
        m = np.concatenate([powers.real, powers.imag], axis=0)
        v = np.concatenate([target.real, target.imag])
        num, *_ = np.linalg.lstsq(m, v, rcond=None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp_signal.BadCoefficients)
        a, b, c, d = sp_signal.tf2ss(num, den)
    model = PnlssModel(a=a, b=b.ravel(), c=c.ravel(), d=float(np.atleast_1d(d).ravel()[0]),
                       e_map=None, f_map=None, x0=np.zeros(state_dim))
    frf_fit = model.frf(omega)
    frf_rms = float(np.linalg.norm(frf_fit - g) / max(np.linalg.norm(g), 1e-300))
    return model, frf_rms


@dataclass(frozen=True)
class FitReport:
    """Levenberg-Marquardt progress for one PNLSS fit.

    ``cost_trajectory`` holds the accepted costs only and is non-increasing by
    construction.
    """

    cost_trajectory: np.ndarray
    final_rms_time: float
    final_error_per_line: np.ndarray
    iterations: int
    status: str
    train_states: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "cost_trajectory": self.cost_trajectory.tolist(),
            "final_rms_time": self.final_rms_time,
            "final_error_per_line": self.final_error_per_line.tolist(),
            "iterations": self.iterations,
            "status": self.status,
        }


def _lm_minimize(residual_and_jac, theta0: np.ndarray, max_iterations: int,
                 cost_tol: float, grad_tol: float, scaled_damping: bool = False):
    """Levenberg-Marquardt with multiplicative damping (factor 2).

    ``residual_and_jac(theta, with_jac)`` returns ``(r, J)``; ``r`` is None
    when the model diverges at ``theta`` (treated as infinite cost).  Accepted
    steps strictly decrease the cost; convergence on cost requires three
    consecutive accepted steps below ``cost_tol`` relative drop.  Persistent
    divergence at the damping ceiling raises; a stall (no improving step, all
    finite) just stops.

    ``scaled_damping`` switches the damping matrix from ``lam * I`` to the
    Marquardt form ``lam * diag(J^T J)``, which is insensitive to parameter
    scaling (used where parameter blocks carry very different scales).
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r, j = residual_and_jac(theta, True)
    if r is None:
        raise ValueError("initial point diverges")
    cost = float(r @ r)
    costs = [cost]
    n_par = len(theta)
    if scaled_damping:
        lam = 1e-3
    else:
        lam = max(1e-3 * float(np.einsum("ij,ij->", j, j)) / n_par, 1e-300)
    status = "max_iterations"
    it = 0
    small_drops = 0
    for it in range(1, max_iterations + 1):
        grad = j.T @ r
        if np.max(np.abs(grad)) < grad_tol:
            status = "gradient_converged"
            break
        jtj = j.T @ j
        if scaled_damping:
            diag = np.diag(jtj).copy()
            diag[diag <= 0] = 1.0
            damping = np.diag(diag)
        else:
            damping = np.eye(n_par)
        accepted = False
        any_finite_trial = False
        while lam < DAMPING_CEILING:
            try:
                step = np.linalg.solve(jtj + lam * damping, -grad)
            except np.linalg.LinAlgError:
                lam *= 2.0
                continue
            r_try, _ = residual_and_jac(theta + step, False)
            if r_try is not None:
                any_finite_trial = True
                cost_try = float(r_try @ r_try)
                if cost_try < cost:
                    theta = theta + step
                    rel_drop = (cost - cost_try) / max(cost, 1e-300)
                    cost = cost_try
                    costs.append(cost)
                    lam /= 2.0
                    accepted = True
                    small_drops = small_drops + 1 if rel_drop < cost_tol else 0
                    break
            lam *= 2.0
        if not accepted:
            if not any_finite_trial:
                raise RuntimeError(
                    "persistent divergence at the damping ceiling; "
                    f"{len(costs)} accepted steps, last cost {costs[-1]:.6g}"
                )
            status = "stalled"
            break
        if small_drops >= 3:
            status = "cost_converged"
            break
        r, j = residual_and_jac(theta, True)
    return theta, np.asarray(costs), it, status


class _ParamPack:
    """Flatten/unflatten the free parameters of a PolyMap-E PnlssModel."""

    def __init__(self, model: PnlssModel):
        self.n = model.state_dim
        self.ne = 0 if model.e_map is None else model.e_map.coefficients.size
        self.nf = 0 if model.f_map is None else model.f_map.coefficients.size
        n = self.n
        sizes = [n * n, n, n, 1, self.ne, self.nf, n]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self.total = int(self.offsets[-1])

    def pack(self, m: PnlssModel) -> np.ndarray:
        parts = [m.a.ravel(), m.b, m.c, [m.d]]
        if m.e_map is not None:
            parts.append(m.e_map.coefficients.ravel())
        if m.f_map is not None:
            parts.append(m.f_map.coefficients.ravel())
        parts.append(m.x0)
        return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])

    def unpack(self, theta: np.ndarray, template: PnlssModel) -> PnlssModel:
        o = self.offsets
        n = self.n
        e_map = template.e_map
        if e_map is not None:
            e_map = PolyMap(e_map.basis, theta[o[4]:o[5]].reshape(e_map.coefficients.shape))
        f_map = template.f_map
        if f_map is not None:
            f_map = PolyMap(f_map.basis, theta[o[5]:o[6]].reshape(f_map.coefficients.shape))
        return PnlssModel(
            a=theta[o[0]:o[1]].reshape(n, n),
            b=theta[o[1]:o[2]],
            c=theta[o[2]:o[3]],
            d=float(theta[o[3]]),
            e_map=e_map,
            f_map=f_map,
            x0=theta[o[6]:o[7]],
        )


def _output_jacobian_polymap(model: PnlssModel, u: np.ndarray):
    """(y, x_traj, dy/dtheta) for a PolyMap-E model via the sensitivity
    recursion; returns (y, xs, None, True) when the simulation diverges."""
    sim = simulate_pnlss(model, u)
    if sim.diverged:
        return sim.y, sim.x_traj, None, True
    pack = _ParamPack(model)
    n = model.state_dim
    t_len = len(u)
    xs = sim.x_traj
    z = np.concatenate([xs, u[:, None]], axis=1)

    if model.e_map is not None:
        phi_e = eval_monomials(model.e_map.basis, z)
        dphi_e = monomial_jacobian(model.e_map.basis, z)
        e_x = np.einsum("om,tmv->tov", model.e_map.coefficients, dphi_e[:, :, :n])
    else:
        phi_e = None
        e_x = np.zeros((t_len, n, n))
    if model.f_map is not None:
        phi_f = eval_monomials(model.f_map.basis, z)
        dphi_f = monomial_jacobian(model.f_map.basis, z)
        f_x = np.einsum("om,tmv->tov", model.f_map.coefficients, dphi_f[:, :, :n])[:, 0, :]
    else:
        phi_f = None
        f_x = np.zeros((t_len, n))

    o = pack.offsets
    direct = np.zeros((t_len, n, pack.total))
    for i in range(n):
        direct[:, i, o[0] + i * n : o[0] + (i + 1) * n] = xs
        direct[:, i, o[1] + i] = u
    if model.e_map is not None:
        m_e = phi_e.shape[1]
        for i in range(n):
            direct[:, i, o[4] + i * m_e : o[4] + (i + 1) * m_e] = phi_e

    jx = _state_sensitivities(model.a, e_x, direct, o[6], n)
    cy = model.c[None, :] + f_x
    jac = np.einsum("tn,tnp->tp", cy, jx)
    jac[:, o[2]:o[3]] += xs
    jac[:, o[3]] += u
    if model.f_map is not None:
        jac[:, o[5]:o[6]] += phi_f
    return sim.y, xs, jac, False


def _state_sensitivities(a: np.ndarray, e_x: np.ndarray, direct: np.ndarray,
                         x0_offset: int, n: int) -> np.ndarray:
    """Run J_x(t+1) = (A + E_x(t)) J_x(t) + direct(t) with J_x(0) = I on the
    x0 block."""
    t_len, _, n_theta = direct.shape
    m_t = a[None, :, :] + e_x
    jx = np.zeros((t_len, n, n_theta))
    cur = np.zeros((n, n_theta))
    cur[:, x0_offset : x0_offset + n] = np.eye(n)
    for t in range(t_len):
        jx[t] = cur
        cur = m_t[t] @ cur + direct[t]
    return jx


def _excited_bins(rec: SignalRecord, lines: np.ndarray) -> np.ndarray:
    return np.asarray(lines, dtype=int) * rec.num_periods


def _freq_residual_factory(rec: SignalRecord, lines, weights):
    bins = _excited_bins(rec, np.asarray(lines, dtype=int))
    if weights is None:
        w = np.ones(len(bins))
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != bins.shape or np.any(w <= 0):
            raise ValueError("weights must be positive, one per excited line")
    sqrt_w = np.sqrt(w)
    y_f = np.fft.rfft(rec.output)[bins]
    return bins, sqrt_w, y_f


def fit_pnlss(init: PnlssModel, rec: SignalRecord, lines: np.ndarray,
              state_degree: int | None = 3, output_degree: int | None = None,
              weights: np.ndarray | None = None, max_iterations: int = 300,
              cost_tol: float = 1e-9, grad_tol: float = 1e-8) -> tuple[PnlssModel, FitReport]:
    """Refine a PNLSS model by Levenberg-Marquardt on the frequency-domain
    simulation error ``V = sum_k |Y(k) - Yhat(k)|^2 / W(k)`` at the excited
    lines.

    Parameters
    ----------
    init : PnlssModel
        Starting point (typically from :func:`init_linear_from_bla`).  It must
        simulate the record without divergence; its E must be a PolyMap or
        absent (use :func:`fit_pnlss_decoupled` for decoupled structures).
    lines : array of int
        Excited harmonic indices of the record's period grid.
    state_degree, output_degree : int or None
        Expand E (resp. F) with all monomials in (x, u) of total degree
        2..degree when the init model lacks them; None leaves the map absent.
    weights : per-line positive weights W(k), default uniform.

    Notes
    -----
    All of A, B, C, D, E, F and x0 are free.  Accepted steps strictly decrease
    the cost; a trial point whose simulation diverges is treated as infinite
    cost (step rejected, damping increased).  Persistent divergence at the
    damping ceiling raises with a report.
    """
    model = init
    n = model.state_dim
    if isinstance(model.e_map, DecoupledFunction):
        raise TypeError("init carries a decoupled E; use fit_pnlss_decoupled")
    if state_degree is not None and model.e_map is None and state_degree >= 2:
        basis = enumerate_monomials(n + 1, 2, state_degree)
        model = replace(model, e_map=PolyMap(basis, np.zeros((n, len(basis)))))
    if output_degree is not None and model.f_map is None and output_degree >= 2:
        basis = enumerate_monomials(n + 1, 2, output_degree)
        model = replace(model, f_map=PolyMap(basis, np.zeros((1, len(basis)))))

    u = rec.input
    bins, sqrt_w, y_f = _freq_residual_factory(rec, lines, weights)
    pack = _ParamPack(model)

    def residual_and_jac(th, with_jac):
        m = pack.unpack(th, model)
        if with_jac:
            y_sim, xs, jac_t, diverged = _output_jacobian_polymap(m, u)
        else:
            sim = simulate_pnlss(m, u)
            y_sim, jac_t, diverged = sim.y, None, sim.diverged
        if diverged:
            return None, None
        r_c = (y_f - np.fft.rfft(y_sim)[bins]) / sqrt_w
        r = np.concatenate([r_c.real, r_c.imag])
        if not with_jac:
            return r, None
        j_c = -np.fft.rfft(jac_t, axis=0)[bins] / sqrt_w[:, None]
        return r, np.concatenate([j_c.real, j_c.imag], axis=0)

    theta, costs, iters, status = _lm_minimize(
        residual_and_jac, pack.pack(model), max_iterations, cost_tol, grad_tol)
    final = pack.unpack(theta, model)
    return final, _final_report(final, rec, bins, sqrt_w, y_f, costs, iters, status)


def fit_pnlss_decoupled(init: PnlssModel, rec: SignalRecord, lines: np.ndarray,
                        weights: np.ndarray | None = None, max_iterations: int = 300,
                        cost_tol: float = 1e-9, grad_tol: float = 1e-8) -> tuple[PnlssModel, FitReport]:
    """Re-optimize a PNLSS model whose state nonlinearity is a decoupled
    ``W g(V^T (x, u))`` structure.

    Free parameters: A, B, C, D, x0 plus the decoupled W, V and branch
    coefficients (F, if present, stays fixed; reduced models in this workflow
    keep the output equation linear).  Same LM engine and cost as
    :func:`fit_pnlss`.
    """
    if not isinstance(init.e_map, DecoupledFunction):
        raise TypeError("init.e_map must be a DecoupledFunction")
    model = init
    n = model.state_dim
    if model.f_map is not None:
        raise NotImplementedError("decoupled refit assumes a linear output equation")
    dec = model.e_map
    r_branches = dec.r
    deg = max(len(c) for c in dec.branches) - 1
    coeffs0 = np.zeros((r_branches, deg + 1))
    for i, c in enumerate(dec.branches):
        coeffs0[i, : len(c)] = c

    n_lin = n * n + 3 * n + 1  # A, B, C, D, x0
    off_a, off_b, off_c = 0, n * n, n * n + n
    off_d = n * n + 2 * n
    off_x0 = off_d + 1
    off_w = n_lin
    off_v = off_w + n * r_branches
    off_g = off_v + (n + 1) * r_branches
    total = off_g + r_branches * (deg + 1)

    def pack(m: PnlssModel) -> np.ndarray:
        d = m.e_map
        cf = np.zeros((r_branches, deg + 1))
        for i, c in enumerate(d.branches):
            cf[i, : len(c)] = c
        return np.concatenate([
            m.a.ravel(), m.b, m.c, [m.d], m.x0,
            d.w.ravel(), d.v.ravel(), cf.ravel(),
        ])

    def unpack(th: np.ndarray) -> PnlssModel:
        d = DecoupledFunction(
            th[off_w:off_v].reshape(n, r_branches),
            th[off_v:off_g].reshape(n + 1, r_branches),
            tuple(th[off_g:].reshape(r_branches, deg + 1)),
        )
        return PnlssModel(
            a=th[off_a:off_b].reshape(n, n), b=th[off_b:off_c],
            c=th[off_c:off_d], d=float(th[off_d]),
            e_map=d, f_map=None, x0=th[off_x0:off_x0 + n],
        )

    u = rec.input
    t_len = len(u)
    bins, sqrt_w, y_f = _freq_residual_factory(rec, lines, weights)

    def residual_and_jac(th, with_jac):
        m = unpack(th)
        sim = simulate_pnlss(m, u)
        if sim.diverged:
            return None, None
        r_c = (y_f - np.fft.rfft(sim.y)[bins]) / sqrt_w
        r = np.concatenate([r_c.real, r_c.imag])
        if not with_jac:
            return r, None
        d = m.e_map
        xs = sim.x_traj
        z = np.concatenate([xs, u[:, None]], axis=1)          # (T, n+1)
        xproj = z @ d.v                                       # (T, r)
        powers = np.stack([xproj**j for j in range(deg + 1)], axis=2)
        cf = np.stack(d.branches)                             # (r, deg+1)
        g = np.einsum("trj,rj->tr", powers, cf)
        dg = np.zeros_like(xproj)
        for jp in range(1, deg + 1):
            dg += jp * cf[:, jp][None, :] * xproj ** (jp - 1)
        # E_x = W diag(dg) V_x^T
        e_x = np.einsum("oi,ti,vi->tov", d.w, dg, d.v[:n, :])
        direct = np.zeros((t_len, n, total))
        for i in range(n):
            direct[:, i, off_a + i * n : off_a + (i + 1) * n] = xs
            direct[:, i, off_b + i] = u
            direct[:, i, off_w + i * r_branches : off_w + (i + 1) * r_branches] = g
        # dE/dV[j, l] = W[:, l] * dg_l * z_j   (flat index j*r + l)
        dv = np.einsum("oi,ti,tj->toji", d.w, dg, z).reshape(t_len, n, (n + 1) * r_branches)
        direct[:, :, off_v:off_g] = dv
        dgc = np.einsum("oi,tij->toij", d.w, powers).reshape(t_len, n, r_branches * (deg + 1))
        direct[:, :, off_g:] = dgc
        jx = _state_sensitivities(m.a, e_x, direct, off_x0, n)
        jac_t = np.einsum("n,tnp->tp", m.c, jx)
        jac_t[:, off_c:off_d] += xs
        jac_t[:, off_d] += u
        j_c = -np.fft.rfft(jac_t, axis=0)[bins] / sqrt_w[:, None]
        return r, np.concatenate([j_c.real, j_c.imag], axis=0)

    theta, costs, iters, status = _lm_minimize(
        residual_and_jac, pack(model), max_iterations, cost_tol, grad_tol,
        scaled_damping=True)
    final = unpack(theta)
    return final, _final_report(final, rec, bins, sqrt_w, y_f, costs, iters, status)


def single_branch_init(model: PnlssModel, z_traj: np.ndarray,
                       branch_degree: int = 5,
                       num_directions: int = 720) -> PnlssModel:
    """Best single-projection replacement of a PolyMap state nonlinearity.

    Searches unit directions ``v`` over (x, u), least-squares fitting
    ``E(z) ~ const + L z + P * [x^2 .. x^d]`` with ``x = v . z`` on the
    supplied trajectory points, takes the best direction, collapses the power
    block to rank one, and absorbs the linear remainder into A and B.  The
    result is a PnlssModel with a one-branch DecoupledFunction state map,
    meant as the starting point for :func:`fit_pnlss_decoupled`.
    """
    if not isinstance(model.e_map, PolyMap):
        raise TypeError("model.e_map must be a PolyMap")
    n = model.state_dim
    z = np.atleast_2d(np.asarray(z_traj, dtype=float))
    if z.shape[1] != n + 1:
        raise ValueError(f"trajectory points must have {n + 1} columns")
    e_vals = model.e_map.coefficients @ eval_monomials(model.e_map.basis, z).T  # (n, T)
    e_vals = e_vals.T
    base = np.concatenate([np.ones((len(z), 1)), z], axis=1)
    rng = np.random.default_rng(0)

    def direction_fit(v):
        x = z @ v
        k = np.concatenate(
            [base, np.stack([x**j for j in range(2, branch_degree + 1)], axis=1)], axis=1
        )
        sol, *_ = np.linalg.lstsq(k, e_vals, rcond=None)
        return float(np.sqrt(np.mean((e_vals - k @ sol) ** 2))), sol

    dirs = rng.standard_normal((num_directions, n + 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    best = (np.inf, None, None)
    for v in dirs:
        rms, sol = direction_fit(v)
        if rms < best[0]:
            best = (rms, v, sol)
    # shrinking local search refines the winning direction
    for radius in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
        for _ in range(40):
            v = best[1] + radius * rng.standard_normal(n + 1)
            v /= np.linalg.norm(v)
            rms, sol = direction_fit(v)
            if rms < best[0]:
                best = (rms, v, sol)
    _, v, sol = best
    const = sol[0]                       # (n,) leftover offset
    lin = sol[1 : n + 2].T               # (n, n+1)
    powers = sol[n + 2 :].T              # (n, d-1) coefficients of x^2..x^d
    u_svd, s_svd, vt_svd = np.linalg.svd(powers, full_matrices=False)
    w = u_svd[:, 0]
    coeffs = np.zeros(branch_degree + 1)
    coeffs[2:] = s_svd[0] * vt_svd[0]
    coeffs[0] = float(w @ const)         # rank-1 share of the offset
    dec = DecoupledFunction(w[:, None], v[:, None], (coeffs,))
    return replace(
        model,
        a=model.a + lin[:, :n],
        b=model.b + lin[:, n],
        e_map=dec,
    )


def _final_report(model: PnlssModel, rec: SignalRecord, bins, sqrt_w, y_f,
                  costs, iters, status) -> FitReport:
    sim = simulate_pnlss(model, rec.input)
    err_line = np.abs(y_f - np.fft.rfft(sim.y)[bins]) / sqrt_w
    rms_time = float(np.sqrt(np.mean((rec.output - sim.y) ** 2)))
    return FitReport(
        cost_trajectory=np.asarray(costs),
        final_rms_time=rms_time,
        final_error_per_line=err_line,
        iterations=iters,
        status=status,
        train_states=sim.x_traj,
    )


def state_coverage(report: FitReport, sim: PnlssSimResult,
                   radius_quantile: float = 0.99):
    """Extrapolation check of a simulation against the fit's state domain."""
    from .validate import domain_coverage

    return domain_coverage(report.train_states, sim.x_traj, radius_quantile)
