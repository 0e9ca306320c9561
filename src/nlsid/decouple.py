"""Decoupling of multivariate polynomial vector functions.

A coupled polynomial map ``q = f(p)`` is rewritten as ``q = W g(V^T p)`` with
``r`` univariate polynomial branches ``g_i``.  The construction samples the
Jacobian of ``f`` on a point cloud, stacks the evaluations into a three-way
tensor, and computes a canonical polyadic decomposition by alternating least
squares, in one run from a HOSVD start; its first two factor modes give W
and V, a linear least-squares fit gives the branches.  One routine,
:func:`decouple_approx`, fits all factors jointly from there by
Levenberg-Marquardt on the function residuals, from a few seeded starts;
the exact decoupling is its one attempt without restarts.

The branch constants are set once, from ``f(0)``, and are not free
parameters of the refinement or of a PNLSS refit (see
:attr:`DecoupledFunction.params`): a map without a constant term, such as a
PNLSS state polynomial, decouples with constants of exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lm import levenberg_marquardt
from .polybasis import (MonomialPlan, PolyMap, enumerate_monomials, eval_polymap,
                        jacobian_polymap)


@dataclass(frozen=True)
class DecoupledFunction:
    """``q = W g(V^T p)`` with univariate polynomial branches.

    Row ``branches[i]`` holds the ascending coefficients of ``g_i``, the
    constant at least; rows given with different lengths are zero-padded to
    the longest.  After canonicalization the V and W columns have unit norm,
    branch scales live in the coefficients, and branches are sorted by
    descending coefficient norm.
    """

    w: np.ndarray  # (n_q, r)
    v: np.ndarray  # (n_p, r)
    branches: np.ndarray  # (r, degree + 1)

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.w, dtype=float))
        v = np.atleast_2d(np.asarray(self.v, dtype=float))
        rows = [np.asarray(c, dtype=float) for c in self.branches]
        if w.shape[1] != v.shape[1] or w.shape[1] != len(rows):
            raise ValueError("W, V and branches must agree on the branch count r")
        if w.shape[1] < 1:
            raise ValueError("need at least one branch (r >= 1)")
        if min(len(c) for c in rows) < 1:
            raise ValueError("every branch needs at least its constant coefficient")
        # rows of any lengths, zero-padded to the longest: a zero top
        # coefficient leaves every Horner pass at the bits of the shorter row
        branches = np.zeros((len(rows), max(len(c) for c in rows)))
        for i, c in enumerate(rows):
            branches[i, : len(c)] = c
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "branches", branches)

    @property
    def r(self) -> int:
        return self.w.shape[1]

    @property
    def n_inputs(self) -> int:
        return self.v.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.w.shape[0]

    def branch_degrees(self) -> tuple[int, ...]:
        """Effective degree per branch: largest power whose coefficient is
        above ``BRANCH_REL_TOL`` of the largest (at least 1 by convention)."""
        c = np.abs(self.branches)
        above = c[:, 1:] > BRANCH_REL_TOL * np.max(c, axis=1, initial=0.0)[:, None]
        return tuple(int(np.flatnonzero(row)[-1]) + 1 if row.any() else 1 for row in above)

    def to_dict(self) -> dict:
        return {"W": self.w.tolist(), "V": self.v.tolist(), "branches": self.branches.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "DecoupledFunction":
        return cls(d["W"], d["V"], d["branches"])

    # State-map interface, shared with polybasis.PolyMap: the PNLSS fit and
    # the refinement below read and write a map only through these.

    @property
    def params(self) -> np.ndarray:
        """Free parameters as one flat vector: W, V and the branch
        coefficients of degree 1 and up, each row by row.

        The branch constants are part of the map but not free: a constant
        ``c0`` only shifts the output by ``W c0``, which a fit on lines
        without DC barely sees, so a refit keeps the constants it starts
        from (zero for the decoupling of a map without a constant term).
        """
        return np.concatenate([self.w.ravel(), self.v.ravel(),
                               self.branches[:, 1:].ravel()])

    def with_params(self, theta: np.ndarray) -> "DecoupledFunction":
        """The map with :attr:`params` replaced and its own branch constants."""
        (n_q, r), n_p = self.w.shape, self.n_inputs
        theta = np.asarray(theta, dtype=float)
        coeffs = theta[(n_q + n_p) * r :].reshape(r, -1)
        return DecoupledFunction(theta[: n_q * r].reshape(n_q, r),
                                 theta[n_q * r : (n_q + n_p) * r].reshape(n_p, r),
                                 np.concatenate([self.branches[:, :1], coeffs], axis=1))

    def values(self, p: np.ndarray) -> np.ndarray:
        """Values at a batch of points, shape (T, n_outputs)."""
        return eval_decoupled(self, p)

    def branch_values(self, p: np.ndarray) -> np.ndarray:
        """Branch outputs ``g_i(v_i . p)`` at a batch of points, shape (T, r).

        Made elementwise in the order of the simulation loop of
        :func:`nlsid.pnlss.simulate_pnlss`: ``x = v . p`` summed left to
        right, then ``g(x)`` by Horner from the top coefficient, so both see
        the same branch outputs bit for bit.
        """
        x = self._branch_inputs(p)
        g = np.zeros_like(x)
        for c in self.branches.T[::-1]:
            g = g * x + c
        return g

    def _branch_inputs(self, p: np.ndarray) -> np.ndarray:
        """Branch inputs ``x = V^T p`` (T, r), summed left to right."""
        x = p[:, 0, None] * self.v[0]
        for k in range(1, self.n_inputs):
            x = x + p[:, k, None] * self.v[k]
        return x

    def _branch_terms(self, p: np.ndarray):
        """The powers ``x^j`` of the branch inputs (T, r, deg + 1) and the
        branch slopes ``g'(x)`` (T, r)."""
        cf = self.branches
        x = self._branch_inputs(p)
        powers = np.ones(x.shape + (cf.shape[1],))
        dg = np.zeros_like(x)
        for j in range(1, cf.shape[1]):
            dg += j * cf[:, j][None, :] * powers[:, :, j - 1]
            powers[:, :, j] = powers[:, :, j - 1] * x
        return powers, dg

    def d_vars(self, p: np.ndarray) -> np.ndarray:
        """Derivatives ``W diag(g'(x)) V^T`` in the inputs, shape (T, n_outputs, n_inputs)."""
        _, dg = self._branch_terms(p)
        return np.einsum("oi,ti,vi->tov", self.w, dg, self.v)

    def d_params(self, p: np.ndarray) -> np.ndarray:
        """Derivatives in :attr:`params`, shape (T, n_outputs, n_params)."""
        powers, dg = self._branch_terms(p)
        t_len = len(p)
        n_q, r = self.w.shape
        jw = np.zeros((t_len, n_q, n_q * r))
        g = self.branch_values(p)
        for o in range(n_q):
            jw[:, o, o * r : (o + 1) * r] = g
        # dq/dV[j, i] = W[:, i] g_i'(x_i) p_j, at flat index j * r + i
        jv = np.einsum("oi,ti,tj->toji", self.w, dg, p).reshape(t_len, n_q, -1)
        jc = np.einsum("oi,tij->toij", self.w, powers[:, :, 1:]).reshape(t_len, n_q, -1)
        return np.concatenate([jw, jv, jc], axis=2)


def eval_decoupled(d: DecoupledFunction, p: np.ndarray) -> np.ndarray:
    """Evaluate ``W g(V^T p)`` at one point (n_p,) or a batch (T, n_p)."""
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    pts = p[None, :] if single else p
    if pts.shape[1] != d.n_inputs:
        raise ValueError(f"expected {d.n_inputs} inputs, got {pts.shape[1]}")
    q = d.branch_values(pts) @ d.w.T
    return q[0] if single else q


@dataclass(frozen=True)
class CpdResult:
    """Factors of one ALS run, its relative error per sweep, and why it
    stopped (see :func:`cpd_als`): ``"converged"``, ``"stalled"``,
    ``"plateau"`` or ``"cap"``."""

    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    rel_error: float
    error_history: np.ndarray
    converged: bool
    stop: str

    @property
    def sweeps(self) -> int:
        return len(self.error_history)


CPD_MAX_SWEEPS = 2000
CPD_REL_TOL = 1e-10     # stop once a sweep lowers the relative error by less
CPD_CONVERGED = 1e-8    # relative error at or below which the CPD is exact
CPD_WINDOW = 100        # sweeps over which a plateau is measured ...
CPD_PLATEAU = 1e-3      # ... and the share of the error it must fall by there
CLOUD_DOMAIN = (-1.0, 1.0)  # every variable's range in a sampled point cloud
BRANCH_REL_TOL = 1e-6   # a branch coefficient counts above this share of the largest
START_ITERATIONS = 30   # LM iterations that fit a restart's start on its own cloud
REFINE_ITERATIONS = 200  # LM iterations of the refinement on the cloud of the seed


def cpd_als(tensor: np.ndarray, rank: int, seed: int = 0) -> CpdResult:
    """Rank-``rank`` canonical polyadic decomposition of a 3-way tensor by ALS.

    One run from a HOSVD start: the leading left singular vectors of each
    unfolding, padded with seeded noise where a mode is thinner than the
    rank.  Every sweep updates the three factors and computes the relative
    error once.  The run stops

    * when a sweep lowers the error by less than ``CPD_REL_TOL`` of itself
      (a rise counts too): ``"converged"`` at or below ``CPD_CONVERGED``,
      where an exact decomposition only jitters at the rounding floor, and
      ``"stalled"`` above it;
    * on a plateau: after more than ``CPD_WINDOW`` sweeps, while the error
      is above ``CPD_CONVERGED``, when it fell by less than ``CPD_PLATEAU``
      of itself over the last ``CPD_WINDOW`` sweeps.  A rank the tensor
      cannot reach creeps down there for thousands of sweeps without moving
      the fit; a run at the true rank that crosses a swamp (a slow stretch
      of tens of sweeps) still drops by far more over the window;
    * or at ``"cap"``, after ``CPD_MAX_SWEEPS``.

    ``converged`` means the relative error reached ``CPD_CONVERGED``; a rank
    the tensor cannot reach exactly reports ``converged=False`` with the fit
    it reached.
    """
    norm = np.linalg.norm(tensor)
    if norm == 0.0:
        return CpdResult(tuple(np.zeros((s, rank)) for s in tensor.shape), 0.0, np.zeros(1),
                         True, "converged")
    rng = np.random.default_rng(seed)
    unfoldings = [_unfold(tensor, m) for m in range(3)]
    factors = []
    for mode in range(3):
        u_sv = np.linalg.svd(unfoldings[mode], full_matrices=False)[0]
        take = min(rank, u_sv.shape[1])
        factors.append(np.concatenate(
            [u_sv[:, :take], 0.1 * rng.standard_normal((tensor.shape[mode], rank - take))],
            axis=1))
    # each factor's Gram matrix is formed once per update of that factor
    grams = [m.T @ m for m in factors]
    eye = np.eye(rank)
    errors = []
    prev = np.inf
    stop = "cap"
    for sweep in range(CPD_MAX_SWEEPS):
        for mode in range(3):
            a, b = (m for m in range(3) if m != mode)
            kr = _khatri_rao(factors[a], factors[b])
            gram = grams[a] * grams[b]
            rhs = unfoldings[mode] @ kr
            factors[mode] = np.linalg.solve(
                gram + 1e-14 * eye * max(np.trace(gram), 1.0), rhs.T
            ).T
            grams[mode] = factors[mode].T @ factors[mode]
        err = _cpd_error(unfoldings[0], factors, norm)
        errors.append(err)
        if prev - err < CPD_REL_TOL * max(prev, 1e-300):
            stop = "converged" if err <= CPD_CONVERGED else "stalled"
            break
        if (sweep >= CPD_WINDOW and err > CPD_CONVERGED
                and errors[-1 - CPD_WINDOW] - err < CPD_PLATEAU * err):
            stop = "plateau"
            break
        prev = err
    return CpdResult(tuple(factors), errors[-1], np.asarray(errors),
                     errors[-1] <= CPD_CONVERGED, stop)


def _unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def _khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # column-wise Kronecker: rows ordered to match C-order unfolding
    r = a.shape[1]
    return (a[:, None, :] * b[None, :, :]).reshape(-1, r)


def _cpd_error(unfold0: np.ndarray, factors, norm: float) -> float:
    recon = factors[0] @ _khatri_rao(factors[1], factors[2]).T
    return float(np.linalg.norm(unfold0 - recon) / norm)


@dataclass(frozen=True)
class DecoupleResult:
    """Decoupled function plus the fit diagnostics the caller should check."""

    function: DecoupledFunction
    residual_max: float
    residual_rms: float
    cpd_converged: bool
    cpd_error: float
    cpd_sweeps: int
    cpd_stop: str


def _cloud(seed: int, count: int, n_vars: int, points: np.ndarray | None) -> np.ndarray:
    """``count`` seeded points: uniform in the box ``CLOUD_DOMAIN``, or a
    random subset of the caller's ``points`` (all of them when there are no
    more than ``count``)."""
    rng = np.random.default_rng(seed)
    if points is None:
        return rng.uniform(*CLOUD_DOMAIN, size=(count, n_vars))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != n_vars:
        raise ValueError(f"points must have {n_vars} columns")
    if len(pts) > count:
        pts = pts[rng.choice(len(pts), count, replace=False)]
    return pts


def canonicalize(d: DecoupledFunction) -> DecoupledFunction:
    """Normalize the scaling/sign/permutation gauge freedom.

    V and W columns are scaled to unit norm (scales absorbed into the branch
    coefficients), signs are fixed so each V column's largest entry and each
    branch's largest coefficient are positive, and branches are sorted by
    descending coefficient norm.
    """
    w, v, coeffs = d.w.copy(), d.v.copy(), d.branches.copy()
    powers = np.arange(coeffs.shape[1])
    for i in range(d.r):
        sv = np.linalg.norm(v[:, i])
        if sv > 0:
            v[:, i] /= sv
            coeffs[i] *= sv ** powers
        lead = np.argmax(np.abs(v[:, i]))
        if v[lead, i] < 0:
            v[:, i] = -v[:, i]
            coeffs[i] *= (-1.0) ** powers  # g(x) -> g(-x)
        sw = np.linalg.norm(w[:, i])
        if sw > 0:
            w[:, i] /= sw
            coeffs[i] *= sw
        if len(powers) and coeffs[i, np.argmax(np.abs(coeffs[i]))] < 0:
            coeffs[i] = -coeffs[i]
            w[:, i] = -w[:, i]
    order = np.argsort([-np.linalg.norm(c) for c in coeffs], kind="stable")
    return DecoupledFunction(w[:, order], v[:, order], coeffs[order])


def decouple_exact(f: PolyMap, r: int, num_points: int = 500, seed: int = 0,
                   branch_degree: int | None = None,
                   points: np.ndarray | None = None) -> DecoupleResult:
    """Exact tensor-based decoupling of a polynomial map: one attempt of
    :func:`decouple_approx`, without restarts.

    At a rank the map reaches, the CPD start is already exact up to rounding,
    so its Levenberg-Marquardt run stops after a few iterations.
    """
    return decouple_approx(f, r, branch_degree, num_points, seed, restarts=0, points=points)


def decouple_approx(f: PolyMap, r: int, branch_degree: int | None = None,
                    num_points: int = 500, seed: int = 0, restarts: int = 2,
                    points: np.ndarray | None = None) -> DecoupleResult:
    """Rank-r decoupling, from ``restarts + 1`` CPD starts.

    Evaluates the Jacobian of ``f`` at ``num_points`` seeded random points,
    stacks the matrices into an ``n_q x n_p x T`` tensor, reads W and V off
    its rank-r CPD (one ALS run, :func:`cpd_als`) and fits the univariate
    branches, of ``branch_degree`` (default the degree of ``f``), by least
    squares on the function values.  W, V and the branch coefficients are
    then refined together by one Levenberg-Marquardt run of at most
    ``REFINE_ITERATIONS`` on the function residuals over the cloud of
    ``seed``.  Attempt ``k`` draws its own cloud of seed ``seed + 101 * k``
    for its start; a restart (``k > 0``) first fits that start on its own
    cloud, for ``START_ITERATIONS``.  The attempt with the lowest cost wins;
    divergence inside LM just returns the best iterate.

    The cloud is uniform in the box ``CLOUD_DOMAIN``; alternatively
    ``points`` supplies the cloud directly, e.g. states visited by a model, so
    the decoupled form is accurate on the operating region.

    The result is canonicalized (see :func:`canonicalize`) and its residuals
    are evaluated on a held-out cloud of seed ``seed + 9999``.
    The ``cpd_*`` fields are those of the CPD that started the winning
    attempt, so a rank the map cannot reach exactly reports
    ``cpd_converged=False``; it is never raised.  They describe the CPD of
    the Jacobians, not the fit of the values: read ``residual_max`` for that.
    """
    pts = _cloud(seed, num_points, f.n_vars, points)
    f_vals = eval_polymap(f, pts)
    best: tuple[float, DecoupledFunction, CpdResult] | None = None
    for attempt in range(restarts + 1):
        s = seed + 101 * attempt
        cloud = _cloud(s, num_points, f.n_vars, points) if attempt else pts
        vals = eval_polymap(f, cloud) if attempt else f_vals
        start, cpd = _initial_decoupling(f, r, branch_degree, cloud, vals, s)
        if attempt:
            _, start = _lm_refine(start, cloud, vals, START_ITERATIONS)
        cost, func = _lm_refine(start, pts, f_vals, REFINE_ITERATIONS)
        if best is None or cost < best[0]:
            best = (cost, func, cpd)
    _, func, cpd = best
    held = _cloud(seed + 9999, max(num_points, 256), f.n_vars, points)
    return _result(f, func, cpd, held)


def _initial_decoupling(f: PolyMap, r: int, degree: int | None, pts: np.ndarray,
                        f_vals: np.ndarray, seed: int) -> tuple[DecoupledFunction, CpdResult]:
    """Rank-r start on ``pts``, where ``f`` has the values ``f_vals``: unit-norm
    W and V from the CPD of the stacked Jacobians of ``f``, and branches of
    ``degree`` (default that of ``f``) by least squares.

    The branch constants, which no refinement moves, are those that give
    ``f(0)`` at the origin, ``c0 = lstsq(W, f(0))``: exactly zero for a map
    without a constant term.  The other coefficients are fitted to
    ``f - W c0``."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if f.basis.degree_max < 1:
        raise ValueError("f must have degree >= 1 to carry Jacobian information")
    degree = f.basis.degree_max if degree is None else degree
    tensor = np.moveaxis(jacobian_polymap(f, pts), 0, 2)  # (n_q, n_p, T)
    cpd = cpd_als(tensor, r, seed=seed)
    # unit-norm directions; scales are re-estimated by the branch fit
    w, v = (m / np.maximum(np.linalg.norm(m, axis=0), 1e-300) for m in cpd.factors[:2])
    c0 = np.linalg.lstsq(w, eval_polymap(f, np.zeros(f.n_vars)), rcond=None)[0]
    # the values are linear in the other coefficients, so their block of
    # d_params is the design matrix of the coefficients' least squares
    zeros = np.zeros((r, degree + 1))
    design = DecoupledFunction(w, v, zeros).d_params(pts)[:, :, w.size + v.size :]
    coeffs = np.linalg.lstsq(design.reshape(-1, r * degree), (f_vals - w @ c0).ravel(),
                             rcond=None)[0]
    return DecoupledFunction(w, v, np.column_stack([c0, coeffs.reshape(r, degree)])), cpd


def _result(f: PolyMap, func: DecoupledFunction, cpd: CpdResult,
            test: np.ndarray) -> DecoupleResult:
    """Canonical ``func`` with its residual on the held-out ``test``."""
    func = canonicalize(func)
    resid = eval_polymap(f, test) - eval_decoupled(func, test)
    return DecoupleResult(
        function=func,
        residual_max=float(np.max(np.abs(resid))),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        cpd_converged=cpd.converged,
        cpd_error=cpd.rel_error,
        cpd_sweeps=cpd.sweeps,
        cpd_stop=cpd.stop,
    )


def _lm_refine(func: DecoupledFunction, pts: np.ndarray, f_vals: np.ndarray,
               max_iterations: int) -> tuple[float, DecoupledFunction]:
    """Joint Levenberg-Marquardt fit of W, V and the branch coefficients on
    the residuals ``W g(V^T p) - f(p)``."""

    def residual(theta):
        # an overflowing trial has a non-finite cost, so it is rejected like
        # any trial that does not lower the cost, and never raises
        trial = func.with_params(theta)
        return (trial.values(pts) - f_vals).ravel(), trial

    def jacobian(theta, trial):
        return trial.d_params(pts).reshape(-1, len(theta))

    _, costs, _, _, final = levenberg_marquardt(residual, jacobian, func.params,
                                                max_iterations, cost_tol=1e-12,
                                                grad_tol=1e-12, scaled_damping=True)
    return float(costs[-1]), final


def to_polymap(d: DecoupledFunction) -> PolyMap:
    """Expand ``W g(V^T p)`` into an explicit multivariate PolyMap.

    Exact by the multinomial theorem (:meth:`MonomialPlan.expansion`); the
    result spans total degrees 0 through the degree of ``d.branches``.  This
    is the adapter that lets a decoupled state polynomial replace the coupled
    map inside a state-space model.
    """
    basis = enumerate_monomials(d.n_inputs, 0, d.branches.shape[1] - 1)
    plan = MonomialPlan(d.n_inputs, basis.degree_max)
    # the basis is a prefix of the plan, which always holds degree 1
    m = len(basis)
    return PolyMap(basis, d.w @ (d.branches[:, plan.degrees[:m]] * plan.expansion(d.v.T)[:, :m]))
