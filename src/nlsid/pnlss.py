"""Polynomial nonlinear state-space identification.

Two-step scheme: a discrete-time linear state-space model is fitted to the
nonparametric BLA by frequency-domain least squares, then polynomial terms in
(states, input) are added to the state update (and optionally the output) and
all parameters, including the initial state, are refined by Levenberg-
Marquardt on the frequency-domain simulation error at the excited lines.

The state nonlinearity may also be a decoupled form ``W g(V^T (x, u))`` (see
:mod:`nlsid.decouple`), which is only another parametrisation of the same
state equation.  :func:`fit_pnlss` refits either kind, with or without an
output nonlinearity, through the maps' shared interface (flat parameters and
derivatives in (x, u) and in the parameters); this is how reduced models are
re-optimized in the model-pruning workflow.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, field, replace
from math import isfinite
from operator import mul

import numpy as np
from scipy import signal as sp_signal

from .bla import BlaModel
from .decouple import DecoupledFunction
from .lm import levenberg_marquardt
from .polybasis import MonomialPlan, PolyMap, enumerate_monomials, eval_monomials
from .signals import SignalRecord
from .simulators import DIVERGENCE_LIMIT

COST_TOL = 1e-9        # LM stops after three accepted steps below this relative drop
GRAD_TOL = 1e-8        # ... or once the gradient's largest entry is below this
NUM_DIRECTIONS = 720   # random unit directions tried by single_branch_init
CHUNK = 64             # points or directions per batched step of single_branch_init


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


def _offsets(model: PnlssModel) -> np.ndarray:
    """Block offsets of the parameter vector ``[A, B, C, D, E, F, x0]``."""
    n = model.state_dim
    sizes = [n * n, n, n, 1, *(0 if m is None else len(m.params)
                               for m in (model.e_map, model.f_map)), n]
    return np.concatenate([[0], np.cumsum(sizes)]).astype(int)


def _pack(model: PnlssModel) -> np.ndarray:
    maps = [m.params for m in (model.e_map, model.f_map) if m is not None]
    return np.concatenate([model.a.ravel(), model.b, model.c, [model.d], *maps, model.x0])


def _unpack(theta: np.ndarray, template: PnlssModel) -> PnlssModel:
    """The model of ``theta``, with the structure (map kinds, bases, branch
    counts) of ``template``."""
    o = _offsets(template)
    n = template.state_dim
    e_map, f_map = template.e_map, template.f_map
    return PnlssModel(
        a=theta[o[0]:o[1]].reshape(n, n),
        b=theta[o[1]:o[2]],
        c=theta[o[2]:o[3]],
        d=float(theta[o[3]]),
        e_map=None if e_map is None else e_map.with_params(theta[o[4]:o[5]]),
        f_map=None if f_map is None else f_map.with_params(theta[o[5]:o[6]]),
        x0=theta[o[6]:o[7]],
    )


def _output_jacobian(model: PnlssModel, x_traj: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``dy(t)/dtheta`` along a simulated state trajectory, by the sensitivity
    recursion on the maps' derivatives in (x, u) and in their parameters."""
    n = model.state_dim
    t_len = len(u)
    o = _offsets(model)
    z = np.concatenate([x_traj, u[:, None]], axis=1)
    e_map, f_map = model.e_map, model.f_map
    direct = np.zeros((t_len, n, o[-1]))
    for i in range(n):
        direct[:, i, o[0] + i * n : o[0] + (i + 1) * n] = x_traj
        direct[:, i, o[1] + i] = u
    if e_map is None:
        e_x = np.zeros((t_len, n, n))
    else:
        e_x = e_map.d_vars(z)[:, :, :n]
        direct[:, :, o[4]:o[5]] = e_map.d_params(z)
    f_x = np.zeros((t_len, n)) if f_map is None else f_map.d_vars(z)[:, 0, :n]
    jx = _state_sensitivities(model.a, e_x, direct, o[6], n)
    jac = np.einsum("tn,tnp->tp", model.c[None, :] + f_x, jx)
    jac[:, o[2]:o[3]] += x_traj
    jac[:, o[3]] += u
    if f_map is not None:
        jac[:, o[5]:o[6]] += f_map.d_params(z)[:, 0, :]
    return jac


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


def _freq_residual_factory(rec: SignalRecord, lines, weights):
    bins = np.asarray(lines, dtype=int) * rec.num_periods
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
              weights: np.ndarray | None = None,
              max_iterations: int = 300) -> tuple[PnlssModel, FitReport]:
    """Refine a PNLSS model by Levenberg-Marquardt on the frequency-domain
    simulation error ``V = sum_k |Y(k) - Yhat(k)|^2 / W(k)`` at the excited
    lines.

    Parameters
    ----------
    init : PnlssModel
        Starting point (typically from :func:`init_linear_from_bla`, or a
        reduced model from :func:`single_branch_init`).  It must simulate the
        record without divergence.  Its E may be a PolyMap, a decoupled
        ``W g(V^T (x, u))`` or absent, and its F a PolyMap or absent, in any
        combination.
    lines : array of int
        Excited harmonic indices of the record's period grid.
    state_degree, output_degree : int or None
        Expand E (resp. F) with all monomials in (x, u) of total degree
        2..degree when the init model lacks them; None leaves the map absent.
    weights : per-line positive weights W(k), default uniform.

    Notes
    -----
    All of A, B, C, D, x0 and the parameters of E and F (PolyMap
    coefficients; decoupled W, V and branch coefficients) are free.  A
    decoupled E gets Marquardt's scaled damping ``diag(J^T J)``, since its
    parameter blocks carry very different scales; otherwise the damping is
    ``lam * I``.  Accepted steps strictly decrease the cost; a trial point
    whose simulation diverges is treated as infinite cost (step rejected,
    damping increased).  Persistent divergence at the damping ceiling raises
    with a report.
    """
    model = init
    n = model.state_dim
    if state_degree is not None and model.e_map is None and state_degree >= 2:
        basis = enumerate_monomials(n + 1, 2, state_degree)
        model = replace(model, e_map=PolyMap(basis, np.zeros((n, len(basis)))))
    if output_degree is not None and model.f_map is None and output_degree >= 2:
        basis = enumerate_monomials(n + 1, 2, output_degree)
        model = replace(model, f_map=PolyMap(basis, np.zeros((1, len(basis)))))
    return _fit(model, rec, lines, weights, max_iterations)


def fit_pnlss_decoupled(init: PnlssModel, rec: SignalRecord, lines: np.ndarray,
                        weights: np.ndarray | None = None,
                        max_iterations: int = 300) -> tuple[PnlssModel, FitReport]:
    """:func:`fit_pnlss` for a model whose E is a decoupled
    ``W g(V^T (x, u))``, as in the model-pruning workflow; it never adds maps.
    """
    if not isinstance(init.e_map, DecoupledFunction):
        raise TypeError("init.e_map must be a DecoupledFunction")
    return _fit(init, rec, lines, weights, max_iterations)


def _fit(model: PnlssModel, rec: SignalRecord, lines, weights,
         max_iterations: int) -> tuple[PnlssModel, FitReport]:
    u = rec.input
    bins, sqrt_w, y_f = _freq_residual_factory(rec, lines, weights)

    def residual(theta):
        m = _unpack(theta, model)
        sim = simulate_pnlss(m, u)
        if sim.diverged:
            return None, None
        r_c = (y_f - np.fft.rfft(sim.y)[bins]) / sqrt_w
        return np.concatenate([r_c.real, r_c.imag]), (m, sim)

    def jacobian(theta, state):
        m, sim = state
        j_c = -np.fft.rfft(_output_jacobian(m, sim.x_traj, u), axis=0)[bins] / sqrt_w[:, None]
        return np.concatenate([j_c.real, j_c.imag], axis=0)

    # the engine hands back the state of its final point: the report reads
    # that simulation instead of running the final model again
    _, costs, iters, status, (final, sim) = levenberg_marquardt(
        residual, jacobian, _pack(model), max_iterations, COST_TOL, GRAD_TOL,
        scaled_damping=isinstance(model.e_map, DecoupledFunction))
    return final, FitReport(
        cost_trajectory=costs,
        final_rms_time=float(np.sqrt(np.mean((rec.output - sim.y) ** 2))),
        final_error_per_line=np.abs(y_f - np.fft.rfft(sim.y)[bins]) / sqrt_w,
        iterations=iters,
        status=status,
        train_states=sim.x_traj,
    )


def single_branch_init(model: PnlssModel, z_traj: np.ndarray,
                       branch_degree: int = 5) -> PnlssModel:
    """Best single-projection replacement of a PolyMap state nonlinearity.

    Searches unit directions ``v`` over (x, u), least-squares fitting
    ``E(z) ~ const + L z + P * [x^2 .. x^d]`` with ``x = v . z`` on the
    supplied trajectory points, takes the best direction, collapses the power
    block to rank one, and absorbs the linear remainder into A and B.  The
    result is a PnlssModel with a one-branch DecoupledFunction state map,
    meant as the starting point of a refit by :func:`fit_pnlss` (or
    :func:`fit_pnlss_decoupled`), which may keep an output nonlinearity F.

    The search tries ``NUM_DIRECTIONS`` seeded random directions, then a
    shrinking local search around the best one: per radius, 40 seeded steps,
    each taken when its direction fits better than the best so far.  It
    scores a direction without touching the trajectory again.  The graded
    monomial table of z up to degree d, whose first columns are ``[1, z]``,
    is factored once as ``Q R`` (only R and ``Q^T E`` are formed, a chunk of
    points at a time).  Since ``(v . z)^j`` is the sum over
    ``|a| = j`` of ``multinom(a) v^a z^a``, the power columns of ``v`` are
    ``Q R c(v)`` with ``c(v)`` those coefficients; with ``[1, z]`` fitted
    exactly in the leading rows, the fit error is the part of ``E`` outside
    span(Q) plus the least-squares residual of the rows of ``Q^T E`` below
    ``[1, z]`` against ``R c(v)``: a problem as small as the monomial count.
    Directions are scored in batches; the local search scores a radius's
    remaining steps from the current best and moves to the first that beats
    it, so it takes the same steps as one scored after the other.  The
    returned model is fitted on the trajectory at the winning direction.
    """
    if not isinstance(model.e_map, PolyMap):
        raise TypeError("model.e_map must be a PolyMap")
    if branch_degree < 2:
        raise ValueError(f"branch_degree must be >= 2 (a power block), got {branch_degree}")
    n = model.state_dim
    z = np.atleast_2d(np.asarray(z_traj, dtype=float))
    if z.shape[1] != n + 1:
        raise ValueError(f"trajectory points must have {n + 1} columns")
    e_vals = model.e_map.coefficients @ eval_monomials(model.e_map.basis, z).T  # (n, T)
    e_vals = e_vals.T
    rng = np.random.default_rng(0)
    score = _direction_scorer(z, e_vals, branch_degree)

    dirs = rng.standard_normal((NUM_DIRECTIONS, n + 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scores = score(dirs)
    first = int(np.argmin(scores))  # the first of equal scores, as a running minimum
    best_score, best_v = scores[first], dirs[first]
    # shrinking local search refines the winning direction
    for radius in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
        steps = [rng.standard_normal(n + 1) for _ in range(40)]
        while steps:
            trials = []
            for step in steps:
                v = best_v + radius * step
                v /= np.linalg.norm(v)
                trials.append(v)
            scores = score(np.array(trials))
            better = np.flatnonzero(scores < best_score)
            if not len(better):
                break
            k = better[0]
            best_score, best_v = scores[k], trials[k]
            steps = steps[k + 1 :]

    x = z @ best_v
    k_mat = np.concatenate([np.ones((len(z), 1)), z,
                            np.stack([x**j for j in range(2, branch_degree + 1)], axis=1)],
                           axis=1)
    sol = np.linalg.lstsq(k_mat, e_vals, rcond=None)[0]
    const = sol[0]                       # (n,) leftover offset
    lin = sol[1 : n + 2].T               # (n, n+1)
    powers = sol[n + 2 :].T              # (n, d-1) coefficients of x^2..x^d
    u_svd, s_svd, vt_svd = np.linalg.svd(powers, full_matrices=False)
    w = u_svd[:, 0]
    coeffs = np.zeros(branch_degree + 1)
    coeffs[2:] = s_svd[0] * vt_svd[0]
    coeffs[0] = float(w @ const)         # rank-1 share of the offset
    dec = DecoupledFunction(w[:, None], best_v[:, None], (coeffs,))
    return replace(
        model,
        a=model.a + lin[:, :n],
        b=model.b + lin[:, n],
        e_map=dec,
    )


def _direction_scorer(z: np.ndarray, e_vals: np.ndarray, degree: int):
    """Fit RMS of ``e_vals ~ [1, z, x^2 .. x^degree]`` with ``x = v . z``, as a
    function of a batch of directions (n_dirs, n_vars) -> (n_dirs,), on one
    QR of the monomial table of ``z`` (see :func:`single_branch_init`)."""
    n_vars = z.shape[1]
    plan = MonomialPlan(n_vars, degree)
    m = plan.size
    # the triangular factor of [table, E] holds R, Q^T E and, below them, E
    # outside span(Q); it is built CHUNK points at a time and Q never formed
    r_aug = np.zeros((0, m + e_vals.shape[1]))
    for start in range(0, len(z), CHUNK):
        rows = np.concatenate([plan.table(z[start : start + CHUNK]),
                               e_vals[start : start + CHUNK]], axis=1)
        r_aug = np.linalg.qr(np.concatenate([r_aug, rows]), mode="r")
    r, g = r_aug[:m, :m], r_aug[:m, m:]
    rest = float(np.sum(r_aug[m:, m:] ** 2))  # the same for every direction
    size = e_vals.size
    degrees = np.array(plan.exponents).sum(axis=1)
    multinom = np.array([math.factorial(sum(e)) / math.prod(map(math.factorial, e))
                         for e in plan.exponents])
    below = slice(n_vars + 1, None)  # rows of Q^T below the [1, z] block
    g_low = g[below]
    blocks = [(degrees == j, r[below, degrees == j]) for j in range(2, degree + 1)]

    def score(dirs: np.ndarray) -> np.ndarray:
        out = np.empty(len(dirs))
        for start in range(0, len(dirs), CHUNK):
            coef = plan.table(dirs[start : start + CHUNK]) * multinom
            # (chunk, rows, degree - 1): R times the coefficients of each power
            block = np.stack([coef[:, cols] @ r_j.T for cols, r_j in blocks], axis=2)
            qb = np.linalg.qr(block)[0]
            resid = g_low - qb @ (qb.transpose(0, 2, 1) @ g_low)
            out[start : start + CHUNK] = np.sum(resid**2, axis=(1, 2))
        return np.sqrt((rest + out) / size)

    return score


def state_coverage(report: FitReport, sim: PnlssSimResult,
                   radius_quantile: float = 0.99):
    """Extrapolation check of a simulation against the fit's state domain."""
    from .validate import domain_coverage

    return domain_coverage(report.train_states, sim.x_traj, radius_quantile)
