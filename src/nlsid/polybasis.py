"""Multivariate polynomial machinery shared by the parametric model estimators.

One engine makes every monomial: a :class:`MonomialPlan` forms each monomial
of degree ``d >= 2`` as one of degree ``d - 1`` times one variable.  Its
exponents are the :class:`MonomialBasis` enumeration, its batch table gives
:func:`eval_monomials` and, read at ``e - 1_j``, :func:`monomial_jacobian`;
scaled by the multinomials, it expands powers ``(v . z)^j`` of a projection.
:func:`step_kernel` generates the one per-sample recursion, of the NARX free
run and of the PNLSS simulation alike; it makes the same products (one line
per plan entry) in the same order on Python floats, so simulations, fit
Jacobians and the decoupler see identical monomials; both simulations return
a :class:`SimResult`.  :class:`PolyMap` couples a basis with coefficients.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .simulators import DIVERGENCE_LIMIT

MAX_MONOMIALS = 10**7
CHAIN_TERMS = 100      # terms per statement of a generated dot product


def monomial_count(n_vars: int, d_min: int, d_max: int) -> int:
    """Number of monomials: sum over degrees of C(n_vars + d - 1, d)."""
    return sum(math.comb(n_vars + d - 1, d) for d in range(d_min, d_max + 1))


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered monomial basis in ``n_vars`` variables: by total degree, then
    by descending leading exponents (graded lex), stable across runs and
    serialization round-trips.  Fewer than one variable, a degree range
    outside ``0 <= degree_min <= degree_max``, or an exponent of another
    length, with a negative or non-integer entry, or of a degree outside the
    range is a ValueError."""

    n_vars: int
    degree_min: int
    degree_max: int
    exponents: tuple[tuple[int, ...], ...] = field(repr=False)

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {self.n_vars}")
        if not 0 <= self.degree_min <= self.degree_max:
            raise ValueError(f"need 0 <= d_min <= d_max, got ({self.degree_min}, "
                             f"{self.degree_max})")
        for e in self.exponents:
            if (len(e) != self.n_vars or not all(isinstance(k, int) and k >= 0 for k in e)
                    or not self.degree_min <= sum(e) <= self.degree_max):
                raise ValueError(f"exponent {list(e)} is not a monomial in {self.n_vars} "
                                 f"variables of degree {self.degree_min} to {self.degree_max}")

    def __len__(self) -> int:
        return len(self.exponents)


class MonomialPlan:
    """Evaluation plan for every monomial in ``n_vars`` variables up to
    ``degree_max``.

    The monomial table of a point ``z`` starts as ``[1, z_0, ..., z_{n-1}]``
    (degrees 0 and 1, whatever ``degree_max``); each level ``d = 2..degree_max``
    then appends ``table[parent] * z[var]`` for its ``(parent, var)`` pairs,
    ``parent`` being an entry of degree ``d - 1``.  Every monomial appears
    once, in graded lexicographic order (:attr:`exponents`), so a polynomial
    is one dot product of its coefficients, laid out by :meth:`positions`,
    with the table.  The plan for a lower degree is a prefix of the plan for
    a higher one.
    """

    def __init__(self, n_vars: int, degree_max: int):
        self.n_vars = n_vars
        self.degree_max = degree_max
        exps = [(0,) * n_vars] + [tuple(int(i == v) for i in range(n_vars))
                                  for v in range(n_vars)]
        prev = range(1, n_vars + 1)
        levels = []
        for _ in range(2, degree_max + 1):
            # extend each parent by variables at or after its last one, so
            # each exponent vector is generated by exactly one (parent, var)
            level = [(p, v) for p in prev
                     for v in range(max(i for i, e in enumerate(exps[p]) if e), n_vars)]
            start = len(exps)
            exps += [exps[p][:v] + (exps[p][v] + 1,) + exps[p][v + 1:] for p, v in level]
            levels.append(tuple(level))
            prev = range(start, len(exps))
        self.levels = tuple(levels)
        self.exponents = tuple(exps)
        self._index = {e: k for k, e in enumerate(exps)}

    @property
    def size(self) -> int:
        return len(self.exponents)

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        """Total degree of each table entry."""
        return np.array(self.exponents).sum(axis=1)

    @functools.cached_property
    def _multinomials(self) -> np.ndarray:
        return np.array([math.factorial(sum(e)) / math.prod(map(math.factorial, e))
                         for e in self.exponents])

    def expansion(self, v: np.ndarray) -> np.ndarray:
        """``multinom(a) v^a`` for each table entry ``a`` at the rows of ``v``
        (n_points, n_vars), shape (n_points, size): the coefficient of
        ``z^a`` in ``(v . z)^|a|``, so the entries of degree ``j`` expand
        ``(v . z)^j`` over the monomials of ``z``."""
        return self.table(v) * self._multinomials

    def positions(self, basis: MonomialBasis) -> list[int]:
        """Table position of each monomial of ``basis``, in basis order."""
        if basis.n_vars != self.n_vars or basis.degree_max > self.degree_max:
            raise ValueError("basis does not fit the plan")
        return [self._index[e] for e in basis.exponents]

    def table(self, z: np.ndarray) -> np.ndarray:
        """Tables of the rows of ``z`` (n_points, n_vars), shape (n_points,
        size): the per-sample recurrence on whole columns."""
        table = np.empty((len(z), self.size))
        table[:, 0] = 1.0
        table[:, 1 : self.n_vars + 1] = z
        start = self.n_vars + 1
        for level in self.levels:
            parents, variables = np.array(level).T
            table[:, start : start + len(level)] = table[:, parents] * z[:, variables]
            start += len(level)
        return table


@dataclass(frozen=True)
class SimResult:
    """A generated simulation's output, its states at each sample (zero
    before the first simulated sample and from the divergent one on), and its
    divergence status."""

    y: np.ndarray
    x_traj: np.ndarray
    diverged: bool
    divergence_index: int | None


@functools.cache
def step_kernel(n: int, m: int, levels: tuple, out_cols: tuple, state_rows: tuple,
                branch_degrees: tuple = ()):
    """The per-sample recursion of one polynomial model structure, compiled
    from generated source: the PNLSS simulation's and the NARX free run's.

    Local ``t{k}`` holds table entry ``k``: ``t0 = 1``, the ``n`` states, the
    ``m`` inputs, one product per plan entry and the branch outputs.  The
    output chains ``0.0 + q * t + ...`` left to right over ``out_cols``; a
    state chains its ``state_rows`` columns, or copies ``"y"`` or ``"t{i}"``;
    a branch appends ``g_i(v_i . (x, u))`` by Horner's rule.  The generated
    ``kernel(u, x, params, limit)`` takes the inputs (floats for one input,
    else rows), the start state and ``params``: the output's coefficients,
    each chain's, then per branch its V column and its coefficients from the
    top down.  It returns the output and state samples as raw doubles and
    whether it stopped at an output that, or a state it came from, is not
    within ``limit`` (NaN fails too).
    """
    states = [f"t{i}" for i in range(1, n + 1)]
    inputs = [f"t{i}" for i in range(n + 1, n + m + 1)]
    products = [pair for level in levels for pair in level]
    size = n + m + 1 + len(products)
    q = [f"q{j}" for j in out_cols]
    a = {i: [f"a{i}_{j}" for j in row] for i, row in enumerate(state_rows)
         if isinstance(row, tuple)}
    branches = [([f"v{i}_{k}" for k in range(n + m)], [f"c{i}_{j}" for j in range(deg + 1)])
                for i, deg in enumerate(branch_degrees)]
    params = q + [name for row in a.values() for name in row]
    for v, c in branches:
        params += v + c

    def names(items):
        # a tuple display; the empty one of a model without states
        return f"{', '.join(items)}," if items else "()"

    def chain(target, coefs, cols):
        # target = 0.0 + c * t + ..., left to right; a long sum goes on in
        # further statements, since the compiler recurses once per term
        terms = [f"{p} * t{k}" for p, k in zip(coefs, cols)]
        return [f"    {target} = " + " + ".join([target if start else "0.0",
                                                *terms[start : start + CHAIN_TERMS]])
                for start in range(0, len(terms), CHAIN_TERMS)]

    body = [f"{names(states)} = x",
            f"{names(params)} = params",
            "t0 = 1.0",
            "ys, xs = array('d'), array('d')",
            "y_append, x_extend = ys.append, xs.extend",
            f"for {inputs[0] if m == 1 else names(inputs)} in u:",
            f"    x_extend(({names(states)}))"]
    body += [f"    t{k} = t{parent} * t{var + 1}"
             for k, (parent, var) in enumerate(products, n + m + 1)]
    body += chain("y", q, out_cols)
    body += ["    y_append(y)",
             "    if not (abs(y) <= limit"
             + "".join(f" and abs({s}) <= limit" for s in states) + "):",
             "        return ys, xs, True"]
    for i, (v, c) in enumerate(branches):
        horner = f"0.0 * s + {c[0]}"
        for coef in c[1:]:
            horner = f"({horner}) * s + {coef}"
        body += chain("s", v, range(1, n + m + 1)) + [f"    t{size + i} = {horner}"]
    for i, row in a.items():
        body += chain(f"x{i}", row, state_rows[i])
    new_states = [f"x{i}" if i in a else row for i, row in enumerate(state_rows)]
    body += [f"    {names(states)} = {names(new_states)}",
             "return ys, xs, False"]
    source = "def kernel(u, x, params, limit):\n" + "\n".join("    " + line for line in body)
    namespace = {"array": array}
    exec(compile(source, f"<polynomial step n={n} m={m}>", "exec"), namespace)
    return namespace["kernel"]


def _run_kernel(kernel, u: list, x: list, params: list, y: np.ndarray, start: int) -> SimResult:
    """Run a :func:`step_kernel` from the start state ``x`` into ``y`` from
    sample ``start`` on (``y`` holds the samples before it).  Where the run
    stops, at an output or a state not within ``DIVERGENCE_LIMIT``, the
    output holds its last value before (zero at sample 0) to the end."""
    ys, xs, diverged = kernel(u, x, params, DIVERGENCE_LIMIT)
    stop = start + len(ys)
    y[start:stop] = ys
    x_traj = np.zeros((len(y), len(x)))
    x_traj[start:stop] = np.frombuffer(xs).reshape(len(ys), len(x))
    if not diverged:
        return SimResult(y, x_traj, False, None)
    t = stop - 1
    y[t:] = y[t - 1] if t > 0 else 0.0
    return SimResult(y, x_traj, True, t)


def enumerate_monomials(n_vars: int, d_min: int, d_max: int) -> MonomialBasis:
    """Enumerate all monomials in ``n_vars`` variables with total degree in
    ``[d_min, d_max]``, in the order of their :class:`MonomialPlan`.

    Raises ValueError if the range is not a :class:`MonomialBasis` range or
    the basis would exceed ``MAX_MONOMIALS`` terms.
    """
    count = monomial_count(n_vars, d_min, d_max)
    if count > MAX_MONOMIALS:
        raise ValueError(f"basis would hold {count} monomials (limit {MAX_MONOMIALS})")
    # the plan always holds degrees 0 and 1, so slice by count, not plan size
    start = monomial_count(n_vars, 0, d_min - 1)
    exps = MonomialPlan(n_vars, d_max).exponents[start : start + count]
    return MonomialBasis(n_vars, d_min, d_max, exps)


def _table(basis: MonomialBasis, x: np.ndarray) -> tuple[MonomialPlan, np.ndarray, bool]:
    """The plan of ``basis``, its table at ``x``, and whether ``x`` is one point."""
    x = np.asarray(x, dtype=float)
    pts = x[None, :] if x.ndim == 1 else x
    if pts.shape[1] != basis.n_vars:
        raise ValueError(f"expected {basis.n_vars} variables, got {pts.shape[1]}")
    plan = MonomialPlan(basis.n_vars, basis.degree_max)
    return plan, plan.table(pts), x.ndim == 1


def eval_monomials(basis: MonomialBasis, x: np.ndarray) -> np.ndarray:
    """Every basis monomial at one point ``x`` (n_vars,) or a batch
    (n_points, n_vars); shape (n_monomials,) or (n_points, n_monomials)."""
    plan, table, single = _table(basis, x)
    vals = table[:, plan.positions(basis)]
    return vals[0] if single else vals


def monomial_jacobian(basis: MonomialBasis, x: np.ndarray) -> np.ndarray:
    """Partial derivatives ``d z^e / d z_j = e_j * z^(e - 1_j)`` of every
    monomial, read off the monomial table; shape (n_monomials, n_vars) for a
    single point or (n_points, n_monomials, n_vars) for a batch."""
    plan, table, single = _table(basis, x)
    # a zero exponent reads the constant column and scales it by zero
    lowered = [[plan._index[e[:j] + (e[j] - 1,) + e[j + 1:]] if e[j] else 0
                for j in range(basis.n_vars)] for e in basis.exponents]
    jac = table[:, lowered] * np.array(basis.exponents, dtype=float)
    return jac[0] if single else jac


@dataclass(frozen=True)
class PolyMap:
    """Vector-valued multivariate polynomial ``y_i = sum_m c[i, m] * mono_m(x)``."""

    basis: MonomialBasis
    coefficients: np.ndarray  # (n_outputs, n_monomials)

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        if c.shape[1] != len(self.basis):
            raise ValueError(f"coefficient columns ({c.shape[1]}) must match "
                             f"basis size ({len(self.basis)})")
        object.__setattr__(self, "coefficients", c)

    @property
    def n_outputs(self) -> int:
        return self.coefficients.shape[0]

    @property
    def n_vars(self) -> int:
        return self.basis.n_vars

    def to_dict(self) -> dict:
        return {
            "n_vars": self.basis.n_vars,
            "d_min": self.basis.degree_min,
            "d_max": self.basis.degree_max,
            "exponents": [list(e) for e in self.basis.exponents],
            "coeffs": self.coefficients.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PolyMap":
        basis = MonomialBasis(d["n_vars"], d["d_min"], d["d_max"],
                              tuple(tuple(e) for e in d["exponents"]))
        return cls(basis, np.asarray(d["coeffs"], dtype=float))

    # State-map interface, shared with decouple.DecoupledFunction: the PNLSS
    # fit reads and writes a map only through these.

    @property
    def params(self) -> np.ndarray:
        """Free parameters as one flat vector: the coefficients, row by row."""
        return self.coefficients.ravel()

    def with_params(self, theta: np.ndarray) -> "PolyMap":
        return PolyMap(self.basis, np.asarray(theta).reshape(self.coefficients.shape))

    def values(self, z: np.ndarray) -> np.ndarray:
        """Values at a batch of points, shape (T, n_outputs)."""
        return eval_polymap(self, z)

    def d_vars(self, z: np.ndarray) -> np.ndarray:
        """Derivatives in the variables, shape (T, n_outputs, n_vars)."""
        return jacobian_polymap(self, z)

    def d_params(self, z: np.ndarray) -> np.ndarray:
        """Derivatives in :attr:`params`, shape (T, n_outputs, n_params)."""
        phi = eval_monomials(self.basis, z)
        n_out, m = self.coefficients.shape
        out = np.zeros((len(phi), n_out, n_out * m))
        for i in range(n_out):
            out[:, i, i * m : (i + 1) * m] = phi
        return out


def eval_polymap(p: PolyMap, x: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial map at ``x``.

    Accepts a single point (returns shape ``(n_outputs,)``) or a batch of
    points (returns ``(n_points, n_outputs)``).
    """
    return eval_monomials(p.basis, x) @ p.coefficients.T


def jacobian_polymap(p: PolyMap, x: np.ndarray) -> np.ndarray:
    """Analytic Jacobian d y / d x at ``x``.

    Returns shape ``(n_outputs, n_vars)`` for a single point or
    ``(n_points, n_outputs, n_vars)`` for a batch.
    """
    mjac = monomial_jacobian(p.basis, x)
    if mjac.ndim == 2:
        return p.coefficients @ mjac
    return np.einsum("om,pmv->pov", p.coefficients, mjac)
