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
derivatives in (x, u) and in the parameters).  A model is reduced by one
decoupling of its state polynomial on its own state trajectory and one
refit; the branch constants are not free parameters, so the refit cannot
trade them against an output offset the excited lines do not see.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bla import BlaModel, _rational_fit_sk
from .decouple import DecoupledFunction, _initial_decoupling
from .lm import levenberg_marquardt
from .polybasis import (MonomialPlan, PolyMap, SimResult, _run_kernel, enumerate_monomials,
                        step_kernel)
# eval_monomials stays a name of this module: the benchmark's tracer wraps it here
from .polybasis import eval_monomials  # noqa: F401
from .signals import SignalRecord

COST_TOL = 1e-9        # LM stops after three accepted steps below this relative drop
GRAD_TOL = 1e-8        # ... or once the gradient's largest entry is below this
SENS_BLOCK = 32        # samples per block of the sensitivity recursion (16..128 time alike)


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
        z = np.exp(1j * np.asarray(omega, dtype=float))[:, None, None]
        # b as a (1, n, 1) column stack, which numpy < 2 also reads as matrices;
        # (n,) @ (L, n, 1) sums each line as a per-line loop does, x @ c does not
        x = np.linalg.solve(z * np.eye(self.state_dim) - self.a, self.b[None, :, None])
        return (self.c @ x)[:, 0] + self.d

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


def simulate_pnlss(model: PnlssModel, u: np.ndarray) -> SimResult:
    """Simulate the model from its start state ``x0``; divergence truncates
    with a status, not an error.

    With ``z = (x, u)``, the output and every state update are each one dot
    product with the table ``[1, z, monomials of z]`` of a
    :class:`MonomialPlan`; a decoupled E appends its branch outputs
    ``g_i(v_i . z)`` to the table, one Horner pass per branch, and W joins
    the state rows.  The step is compiled once per model structure by
    :func:`~nlsid.polybasis.step_kernel`; each dot product chains only the
    columns its row uses (the A, B, C, D columns, the E and F basis positions
    and the W columns).  Coefficients reach it through ``.tolist()``, as a
    numpy scalar would slow every product and warn on overflow.

    The simulation stops at the first sample whose output or state is not
    within ``DIVERGENCE_LIMIT`` in magnitude (a NaN or an infinity fails
    that test too); the output from there on holds its last value before.
    """
    u = np.asarray(u, dtype=float)
    n = model.state_dim
    e_map, f_map = model.e_map, model.f_map
    poly_degrees = [m.basis.degree_max for m in (e_map, f_map) if isinstance(m, PolyMap)]
    plan = MonomialPlan(n + 1, max(poly_degrees, default=1))
    linear = list(range(1, n + 2))
    state_cols, out_cols = linear, linear
    decoupled = isinstance(e_map, DecoupledFunction)
    x_rows = np.zeros((n, plan.size + (e_map.r if decoupled else 0)))
    x_rows[:, 1 : n + 2] = np.column_stack([model.a, model.b])
    y_row = np.zeros(plan.size)
    y_row[1 : n + 2] = [*model.c, model.d]
    branch_params, branch_degrees = [], ()
    if isinstance(e_map, PolyMap):
        positions = plan.positions(e_map.basis)
        x_rows[:, positions] += e_map.coefficients
        state_cols = sorted({*linear, *positions})
    elif decoupled:
        x_rows[:, plan.size :] = e_map.w
        state_cols = [*linear, *range(plan.size, plan.size + e_map.r)]
        branch_params = np.hstack([e_map.v.T, e_map.branches[:, ::-1]]).ravel().tolist()
        branch_degrees = (e_map.branches.shape[1] - 1,) * e_map.r
    if f_map is not None:
        positions = plan.positions(f_map.basis)
        y_row[positions] += f_map.coefficients[0]
        out_cols = sorted({*linear, *positions})
    kernel = step_kernel(n, 1, plan.levels, tuple(out_cols), (tuple(state_cols),) * n,
                         branch_degrees)
    params = [*y_row[out_cols].tolist(), *x_rows[:, state_cols].ravel().tolist(), *branch_params]
    return _run_kernel(kernel, u.tolist(), model.x0.tolist(), params, np.zeros(len(u)), 0)


def _reflect_unstable(den: np.ndarray) -> tuple[np.ndarray, bool]:
    roots = np.roots(den)
    bad = np.abs(roots) >= 1.0
    if not np.any(bad):
        return den, False
    roots[bad] = 1.0 / np.conj(roots[bad])
    return np.real(np.poly(roots)), True


def _tf2ss(num, den) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Controller canonical form ``(A, B, C, D)`` of ``num(z) / den(z)``
    (descending powers, ``den[0]`` nonzero), built as scipy's ``tf2ss``
    builds it: both polynomials are divided by ``den[0]``, and leading
    numerator coefficients of magnitude at most 1e-14 are dropped (the last
    one is kept)."""
    den = np.asarray(den, dtype=float)
    num = np.asarray(num, dtype=float) / den[0]
    den = den / den[0]
    significant = np.flatnonzero(~(np.abs(num) <= 1e-14))
    num = num[significant[0] if len(significant) else len(num) - 1 :]
    k = len(den)
    if len(num) > k:
        raise ValueError("improper transfer function: numerator longer than denominator")
    num = np.concatenate([np.zeros(k - len(num)), num])
    d = num[None, :1]
    if k == 1:
        return np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), d
    a = np.vstack([-den[1:], np.eye(k - 2, k - 1)])
    c = (num[1:] - num[0] * den[1:])[None, :]
    return a, np.eye(k - 1, 1), c, d


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
    a, b, c, d = _tf2ss(num, den)
    model = PnlssModel(a=a, b=b.ravel(), c=c.ravel(), d=float(d[0, 0]),
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
    """Run ``J(t+1) = M(t) J(t) + direct(t)``, ``M(t) = A + E_x(t)``, with
    ``J(0) = I`` on the x0 block; shape (T, n, n_theta).

    The record is cut into blocks of ``SENS_BLOCK`` samples.  Within block
    ``b``, starting at sample ``s``, ``J(s + k) = Phi_b(k) J(s) + P_b(k)``:
    the transition products ``Phi_b(k) = M(s + k - 1) ... M(s)`` and the
    response ``P_b(k)`` from a zero start are run for all blocks at once, k
    step by step.  Only the block starts ``J(s)`` are then carried one block
    after the other, and ``Phi_b J(s)`` is added in one batched product.
    The samples after the last whole block follow from the last start one by
    one.  Each sample takes a different rounding path than the plain
    recursion, so ``J`` agrees with it to rounding, not bit for bit.
    """
    t_len, _, n_theta = direct.shape
    m_t = a[None, :, :] + e_x
    jx = np.empty((t_len, n, n_theta))
    block = SENS_BLOCK
    blocks = t_len // block
    whole = blocks * block
    m_b = m_t[:whole].reshape(blocks, block, n, n)
    d_b = direct[:whole].reshape(blocks, block, n, n_theta)
    p_b = jx[:whole].reshape(blocks, block, n, n_theta)  # a view: P is built in place
    phi = np.empty((blocks, block, n, n))
    p_b[:, 0] = 0.0
    phi[:, 0] = np.eye(n)
    for k in range(block - 1):
        p_b[:, k + 1] = m_b[:, k] @ p_b[:, k] + d_b[:, k]
        phi[:, k + 1] = m_b[:, k] @ phi[:, k]
    p_end = m_b[:, -1] @ p_b[:, -1] + d_b[:, -1]
    phi_end = m_b[:, -1] @ phi[:, -1]
    starts = np.empty((blocks + 1, n, n_theta))
    cur = np.zeros((n, n_theta))
    cur[:, x0_offset : x0_offset + n] = np.eye(n)
    starts[0] = cur
    for b in range(blocks):
        cur = phi_end[b] @ cur + p_end[b]
        starts[b + 1] = cur
    # Phi_b(k) J(s) for all k of a block is one (block * n, n) @ (n, n_theta) product
    p_b += (phi.reshape(blocks, block * n, n) @ starts[:-1]).reshape(p_b.shape)
    for t in range(whole, t_len):
        jx[t] = cur
        cur = m_t[t] @ cur + direct[t]
    return jx


def fit_pnlss(init: PnlssModel, rec: SignalRecord, lines: np.ndarray,
              state_degree: int | None = 3, output_degree: int | None = None,
              max_iterations: int = 300) -> tuple[PnlssModel, FitReport]:
    """Refine a PNLSS model by Levenberg-Marquardt on the frequency-domain
    simulation error ``V = sum_k |Y(k) - Yhat(k)|^2`` at the excited lines.

    Parameters
    ----------
    init : PnlssModel
        Starting point (typically from :func:`init_linear_from_bla`, or a
        model whose E was decoupled by :func:`nlsid.decouple.decouple_approx`
        or :func:`single_branch_init`).  It must simulate the
        record without divergence.  Its E may be a PolyMap, a decoupled
        ``W g(V^T (x, u))`` or absent, and its F a PolyMap or absent, in any
        combination.
    lines : array of int
        Excited harmonic indices of the record's period grid.
    state_degree, output_degree : int or None
        Expand E (resp. F) with all monomials in (x, u) of total degree
        2..degree when the init model lacks them; None leaves the map absent.

    Notes
    -----
    All of A, B, C, D, x0 and the parameters of E and F (PolyMap
    coefficients; decoupled W, V and branch coefficients of degree 1 and up)
    are free.  The branch constants of a decoupled E are not free: the refit
    returns them bit for bit (zero for a decoupled state polynomial, and
    whatever a model file holds otherwise).  A decoupled E gets Marquardt's scaled damping ``diag(J^T J)``, since its
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
    return _fit(model, rec, lines, max_iterations)


def fit_pnlss_decoupled(init: PnlssModel, rec: SignalRecord, lines: np.ndarray,
                        max_iterations: int = 300) -> tuple[PnlssModel, FitReport]:
    """:func:`fit_pnlss` for a model whose E is a decoupled
    ``W g(V^T (x, u))``, such as a reduced model; it never adds maps.
    """
    if not isinstance(init.e_map, DecoupledFunction):
        raise TypeError("init.e_map must be a DecoupledFunction")
    return _fit(init, rec, lines, max_iterations)


def _fit(model: PnlssModel, rec: SignalRecord, lines,
         max_iterations: int) -> tuple[PnlssModel, FitReport]:
    u = rec.input
    bins = np.asarray(lines, dtype=int) * rec.num_periods
    y_f = np.fft.rfft(rec.output)[bins]

    def residual(theta):
        m = _unpack(theta, model)
        sim = simulate_pnlss(m, u)
        if sim.diverged:
            return None, None
        r_c = y_f - np.fft.rfft(sim.y)[bins]
        return np.concatenate([r_c.real, r_c.imag]), (m, sim)

    def jacobian(theta, state):
        m, sim = state
        j_c = -np.fft.rfft(_output_jacobian(m, sim.x_traj, u), axis=0)[bins]
        return np.concatenate([j_c.real, j_c.imag], axis=0)

    # the engine hands back the state of its final point: the report reads
    # that simulation instead of running the final model again
    _, costs, iters, status, (final, sim) = levenberg_marquardt(
        residual, jacobian, _pack(model), max_iterations, COST_TOL, GRAD_TOL,
        scaled_damping=isinstance(model.e_map, DecoupledFunction))
    return final, FitReport(
        cost_trajectory=costs,
        final_rms_time=float(np.sqrt(np.mean((rec.output - sim.y) ** 2))),
        final_error_per_line=np.abs(y_f - np.fft.rfft(sim.y)[bins]),
        iterations=iters,
        status=status,
    )


def single_branch_init(model: PnlssModel, z_traj: np.ndarray,
                       branch_degree: int = 5) -> PnlssModel:
    """One-branch replacement of a PolyMap state nonlinearity: the model
    with E replaced by its rank-1 decoupling start on the trajectory points
    ``z_traj`` over (x, u).

    W and V come from the rank-1 CPD of E's Jacobians at the points, and the
    branch coefficients of degree 1 to ``branch_degree`` from least squares
    on E's values there (the start of :func:`nlsid.decouple.decouple_approx`,
    without its refinement).  The branch constant is zero, since a state
    polynomial has no constant term.  The result is meant as the starting
    point of a refit by :func:`fit_pnlss`, which may keep an output
    nonlinearity F.
    """
    if not isinstance(model.e_map, PolyMap):
        raise TypeError("model.e_map must be a PolyMap")
    if branch_degree < 2:
        raise ValueError(f"branch_degree must be >= 2 (a nonlinear branch), got {branch_degree}")
    z = np.atleast_2d(np.asarray(z_traj, dtype=float))
    if z.shape[1] != model.state_dim + 1:
        raise ValueError(f"trajectory points must have {model.state_dim + 1} columns")
    dec, _ = _initial_decoupling(model.e_map, 1, branch_degree, z, model.e_map.values(z), 0)
    return replace(model, e_map=dec)
