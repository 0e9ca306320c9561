"""Decoupling of multivariate polynomial vector functions.

A coupled polynomial map ``q = f(p)`` is rewritten as ``q = W g(V^T p)`` with
``r`` univariate polynomial branches ``g_i``.  The construction samples the
Jacobian of ``f`` on a point cloud, stacks the evaluations into a three-way
tensor, and computes a canonical polyadic decomposition by alternating least
squares, in one run from a HOSVD start; the first two factor modes deliver W
and V, the branches follow from a linear fit, and a short joint
Levenberg-Marquardt polish finishes the start.  The exact and the approximate
(reduced-rank) decouplings share that start; the approximate one refines all
factors jointly on weighted function residuals, from a few seeded starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .lm import levenberg_marquardt
from .polybasis import PolyMap, enumerate_monomials, eval_polymap, jacobian_polymap


@dataclass(frozen=True)
class DecoupledFunction:
    """``q = W g(V^T p)`` with univariate polynomial branches.

    ``branches[i]`` holds ascending coefficients of ``g_i``.  After
    canonicalization the V and W columns have unit norm, branch scales live in
    the coefficients, and branches are sorted by descending coefficient norm.
    """

    w: np.ndarray  # (n_q, r)
    v: np.ndarray  # (n_p, r)
    branches: tuple[np.ndarray, ...]

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.w, dtype=float))
        v = np.atleast_2d(np.asarray(self.v, dtype=float))
        if w.shape[1] != v.shape[1] or w.shape[1] != len(self.branches):
            raise ValueError("W, V and branches must agree on the branch count r")
        if w.shape[1] < 1:
            raise ValueError("need at least one branch (r >= 1)")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        object.__setattr__(
            self, "branches", tuple(np.asarray(b, dtype=float) for b in self.branches)
        )

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
        out = []
        for c in self.branches:
            scale = np.max(np.abs(c)) if len(c) else 0.0
            deg = 1
            for j in range(len(c) - 1, 0, -1):
                if abs(c[j]) > BRANCH_REL_TOL * scale:
                    deg = j
                    break
            out.append(deg)
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "W": self.w.tolist(),
            "V": self.v.tolist(),
            "branches": [b.tolist() for b in self.branches],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecoupledFunction":
        return cls(
            np.asarray(d["W"], dtype=float),
            np.asarray(d["V"], dtype=float),
            tuple(np.asarray(b, dtype=float) for b in d["branches"]),
        )

    # State-map interface, shared with polybasis.PolyMap: the PNLSS fit and
    # the refinement below read and write a map only through these.

    def _coefficient_matrix(self) -> np.ndarray:
        """Branch coefficients as rows of one (r, deg + 1) matrix, zero-padded
        to the longest branch."""
        cf = np.zeros((self.r, max(len(c) for c in self.branches)))
        for i, c in enumerate(self.branches):
            cf[i, : len(c)] = c
        return cf

    @property
    def params(self) -> np.ndarray:
        """Free parameters as one flat vector: W, V and the padded branch
        coefficients, each row by row."""
        return np.concatenate([self.w.ravel(), self.v.ravel(),
                               self._coefficient_matrix().ravel()])

    def with_params(self, theta: np.ndarray) -> "DecoupledFunction":
        """The map with :attr:`params` replaced; branches come back padded."""
        (n_q, r), n_p = self.w.shape, self.n_inputs
        theta = np.asarray(theta, dtype=float)
        return DecoupledFunction(theta[: n_q * r].reshape(n_q, r),
                                 theta[n_q * r : (n_q + n_p) * r].reshape(n_p, r),
                                 tuple(theta[(n_q + n_p) * r :].reshape(r, -1)))

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
        x = p[:, 0, None] * self.v[0]
        for k in range(1, self.n_inputs):
            x = x + p[:, k, None] * self.v[k]
        cf = self._coefficient_matrix()  # zero top coefficients leave g at zero
        g = np.zeros_like(x)
        for j in range(cf.shape[1] - 1, -1, -1):
            g = g * x + cf[:, j]
        return g

    def _branch_terms(self, p: np.ndarray):
        """Padded coefficients, the powers ``x^j`` of the branch inputs
        ``x = V^T p`` (T, r, deg + 1) and the branch slopes ``g'(x)`` (T, r)."""
        cf = self._coefficient_matrix()
        x = p @ self.v
        powers = np.stack([x**j for j in range(cf.shape[1])], axis=2)
        dg = np.zeros_like(x)
        for j in range(1, cf.shape[1]):
            dg += j * cf[:, j][None, :] * powers[:, :, j - 1]
        return cf, powers, dg

    def d_vars(self, p: np.ndarray) -> np.ndarray:
        """Derivatives ``W diag(g'(x)) V^T`` in the inputs, shape (T, n_outputs, n_inputs)."""
        _, _, dg = self._branch_terms(p)
        return np.einsum("oi,ti,vi->tov", self.w, dg, self.v)

    def d_params(self, p: np.ndarray) -> np.ndarray:
        """Derivatives in :attr:`params`, shape (T, n_outputs, n_params)."""
        cf, powers, dg = self._branch_terms(p)
        t_len = len(p)
        n_q, r = self.w.shape
        jw = np.zeros((t_len, n_q, n_q * r))
        g = np.einsum("trj,rj->tr", powers, cf)
        for o in range(n_q):
            jw[:, o, o * r : (o + 1) * r] = g
        # dq/dV[j, i] = W[:, i] g_i'(x_i) p_j, at flat index j * r + i
        jv = np.einsum("oi,ti,tj->toji", self.w, dg, p).reshape(t_len, n_q, -1)
        jc = np.einsum("oi,tij->toij", self.w, powers).reshape(t_len, n_q, -1)
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
    errors = []
    prev = np.inf
    stop = "cap"
    for sweep in range(CPD_MAX_SWEEPS):
        for mode in range(3):
            others = [factors[m] for m in range(3) if m != mode]
            kr = _khatri_rao(others[0], others[1])
            gram = (others[0].T @ others[0]) * (others[1].T @ others[1])
            rhs = unfoldings[mode] @ kr
            factors[mode] = np.linalg.solve(
                gram + 1e-14 * np.eye(rank) * max(np.trace(gram), 1.0), rhs.T
            ).T
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
    converged: bool
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
    w = d.w.copy()
    v = d.v.copy()
    coeffs = [c.copy() for c in d.branches]
    r = d.r
    for i in range(r):
        sv = np.linalg.norm(v[:, i])
        if sv > 0:
            v[:, i] /= sv
            coeffs[i] = coeffs[i] * sv ** np.arange(len(coeffs[i]))
        lead = np.argmax(np.abs(v[:, i]))
        if v[lead, i] < 0:
            v[:, i] = -v[:, i]
            signs = (-1.0) ** np.arange(len(coeffs[i]))
            coeffs[i] = coeffs[i] * signs  # g(x) -> g(-x)
        sw = np.linalg.norm(w[:, i])
        if sw > 0:
            w[:, i] /= sw
            coeffs[i] = coeffs[i] * sw
        if len(coeffs[i]):
            lead_c = np.argmax(np.abs(coeffs[i]))
            if coeffs[i][lead_c] < 0:
                coeffs[i] = -coeffs[i]
                w[:, i] = -w[:, i]
    order = np.argsort([-np.linalg.norm(c) for c in coeffs], kind="stable")
    return DecoupledFunction(w[:, order], v[:, order], tuple(coeffs[i] for i in order))


def decouple_exact(f: PolyMap, r: int, num_points: int = 500, seed: int = 0,
                   branch_degree: int | None = None,
                   points: np.ndarray | None = None) -> DecoupleResult:
    """Exact tensor-based decoupling of a polynomial map.

    Evaluates the Jacobian of ``f`` at ``num_points`` seeded random points,
    stacks the matrices into an ``n_q x n_p x T`` tensor, reads W and V off
    its rank-r CPD (one ALS run, :func:`cpd_als`), fits the univariate
    branches by least squares on the function values, and polishes all
    factors by a short joint Levenberg-Marquardt run.

    The cloud is uniform in the box ``CLOUD_DOMAIN``; alternatively
    ``points`` supplies the cloud directly, e.g. states visited by a model, so
    the decoupled form is accurate on the operating region.

    The result is canonicalized (see :func:`canonicalize`) and its residual
    ``max |f(p) - W g(V^T p)|`` is evaluated on a fresh test cloud.  CPD
    stagnation is reported through ``converged=False``, never raised.
    """
    pts = _cloud(seed, num_points, f.n_vars, points)
    func, cpd = _initial_decoupling(f, r, branch_degree, pts, seed)
    test = _cloud(seed + 1, max(num_points, 256), f.n_vars, points)
    return _result(f, func, cpd, test, np.ones(f.n_outputs))


def decouple_approx(f: PolyMap, r: int, branch_degree: int | None = None,
                    weight: np.ndarray | None = None, num_points: int = 500,
                    seed: int = 0, max_iterations: int = 200,
                    restarts: int = 2, points: np.ndarray | None = None) -> DecoupleResult:
    """Approximate rank-r decoupling with joint Levenberg-Marquardt refinement.

    Each of ``restarts + 1`` attempts builds the start of
    :func:`decouple_exact` on the positively weighted outputs, over its own
    cloud of seed ``seed + 101 * attempt``, then refines W, V and the branch
    coefficients together on weighted function residuals over the cloud of
    ``seed`` (or caller-supplied ``points``).  The attempt with the lowest
    cost wins; divergence inside LM just returns the best iterate.
    The reported residuals use a held-out cloud.  ``weight`` is per-output; a
    zero weight removes that output from the objective exactly.
    ``converged`` and the ``cpd_*`` fields are those of the CPD that started the
    winning attempt, so a rank the map cannot reach exactly reports
    ``converged=False``.
    """
    w_out = np.ones(f.n_outputs) if weight is None else np.asarray(weight, dtype=float)
    if w_out.shape != (f.n_outputs,) or np.any(w_out < 0):
        raise ValueError("weight must be a nonnegative vector, one entry per output")
    pts = _cloud(seed, num_points, f.n_vars, points)
    f_vals = eval_polymap(f, pts)
    # zero-weight outputs are excluded end to end: the CPD initialization only
    # ever sees the active rows, and their W rows stay at zero through the LM
    active = np.flatnonzero(w_out > 0)
    if len(active) == 0:
        raise ValueError("at least one output must carry positive weight")
    f_active = PolyMap(f.basis, f.coefficients[active])
    best: tuple[float, DecoupledFunction, CpdResult] | None = None
    for attempt in range(restarts + 1):
        s = seed + 101 * attempt
        init, cpd = _initial_decoupling(f_active, r, branch_degree,
                                        _cloud(s, num_points, f.n_vars, points), s)
        w_full = np.zeros((f.n_outputs, r))
        w_full[active] = init.w
        start = DecoupledFunction(w_full, init.v, init.branches)
        cost, func = _lm_refine(start, pts, f_vals, w_out, max_iterations)
        if best is None or cost < best[0]:
            best = (cost, func, cpd)
    _, func, cpd = best
    held = _cloud(seed + 9999, max(num_points, 256), f.n_vars, points)
    return _result(f, func, cpd, held, w_out)


def _initial_decoupling(f: PolyMap, r: int, degree: int | None, pts: np.ndarray,
                        seed: int) -> tuple[DecoupledFunction, CpdResult]:
    """Rank-r start on ``pts``: W and V from the CPD of the stacked Jacobians
    of ``f``, branches of ``degree`` (default that of ``f``) by alternating
    least squares, then a 30-iteration joint LM polish."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if f.basis.degree_max < 1:
        raise ValueError("f must have degree >= 1 to carry Jacobian information")
    degree = f.basis.degree_max if degree is None else degree
    tensor = np.moveaxis(jacobian_polymap(f, pts), 0, 2)  # (n_q, n_p, T)
    cpd = cpd_als(tensor, r, seed=seed)
    # unit-norm directions; scales are re-estimated by the branch fit
    w, v = (m / np.maximum(np.linalg.norm(m, axis=0), 1e-300) for m in cpd.factors[:2])
    f_vals = eval_polymap(f, pts)
    zeros = np.zeros((r, degree + 1))
    prev_err = np.inf
    for _ in range(50):  # alternate branch-coefficient and W updates to convergence
        # the values are linear in the branch coefficients, so their block of
        # d_params is the design matrix of the coefficients' least squares
        design = DecoupledFunction(w, v, zeros).d_params(pts)[:, :, -zeros.size:]
        coeffs = np.linalg.lstsq(design.reshape(-1, zeros.size), f_vals.ravel(), rcond=None)[0]
        branches = tuple(coeffs.reshape(zeros.shape))
        g_vals = DecoupledFunction(np.eye(r), v, branches).values(pts)  # g(V^T p) alone
        w = np.linalg.lstsq(g_vals, f_vals, rcond=None)[0].T
        err = float(np.linalg.norm(f_vals - g_vals @ w.T))
        if err >= prev_err * (1.0 - 1e-12):
            break
        prev_err = err
    # joint second-order polish removes the linear-convergence plateau of the
    # alternating updates (machine precision for exactly decomposable maps)
    _, func = _lm_refine(DecoupledFunction(w, v, branches), pts, f_vals,
                         np.ones(f.n_outputs), max_iterations=30)
    return func, cpd


def _result(f: PolyMap, func: DecoupledFunction, cpd: CpdResult, test: np.ndarray,
            w_out: np.ndarray) -> DecoupleResult:
    """Canonical ``func`` with its weighted residual on the held-out ``test``."""
    func = canonicalize(func)
    active = np.flatnonzero(w_out > 0)
    resid = (eval_polymap(f, test) - eval_decoupled(func, test))[:, active] * np.sqrt(w_out[active])
    return DecoupleResult(
        function=func,
        residual_max=float(np.max(np.abs(resid))),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        converged=cpd.converged,
        cpd_error=cpd.rel_error,
        cpd_sweeps=cpd.sweeps,
        cpd_stop=cpd.stop,
    )


def _lm_refine(func: DecoupledFunction, pts: np.ndarray, f_vals: np.ndarray,
               w_out: np.ndarray, max_iterations: int) -> tuple[float, DecoupledFunction]:
    """Joint Levenberg-Marquardt polish of W, V and the branch coefficients on
    the weighted residuals ``sqrt(w_out) * (W g(V^T p) - f(p))``."""
    sqrt_w = np.sqrt(w_out)

    def residual(theta):
        # an overflowing trial has a non-finite cost, so it is rejected like
        # any trial that does not lower the cost, and never raises
        trial = func.with_params(theta)
        return ((trial.values(pts) - f_vals) * sqrt_w).ravel(), trial

    def jacobian(theta, trial):
        return (trial.d_params(pts) * sqrt_w[:, None]).reshape(-1, len(theta))

    _, costs, _, _, final = levenberg_marquardt(residual, jacobian, func.params,
                                                max_iterations, cost_tol=1e-12,
                                                grad_tol=1e-12, scaled_damping=True)
    return float(costs[-1]), final


def to_polymap(d: DecoupledFunction) -> PolyMap:
    """Expand ``W g(V^T p)`` into an explicit multivariate PolyMap.

    Exact by the multinomial theorem; the result spans total degrees 0 through
    the maximum branch degree.  This is the adapter that lets a decoupled
    state polynomial replace the coupled map inside a state-space model.
    """
    n_p = d.n_inputs
    max_deg = max(len(c) - 1 for c in d.branches)
    basis = enumerate_monomials(n_p, 0, max_deg)
    index = {e: i for i, e in enumerate(basis.exponents)}
    coeff = np.zeros((d.n_outputs, len(basis)))
    for i in range(d.r):
        v = d.v[:, i]
        c = d.branches[i]
        for j, cj in enumerate(c):
            if cj == 0.0:
                continue
            # (sum_k v_k p_k)^j expanded over exponent multisets
            for combo in combinations_with_replacement(range(n_p), j):
                exp = [0] * n_p
                for k in combo:
                    exp[k] += 1
                mult = math.factorial(j)
                coef = cj
                for k, e in enumerate(exp):
                    mult //= math.factorial(e)
                    coef *= v[k] ** e
                coeff[:, index[tuple(exp)]] += d.w[:, i] * (mult * coef)
    return PolyMap(basis, coeff)
