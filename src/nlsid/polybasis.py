"""Multivariate polynomial machinery shared by the parametric model estimators.

A :class:`MonomialBasis` enumerates exponent vectors in a fixed graded
lexicographic order so that coefficient vectors serialize reproducibly.
:class:`PolyMap` couples a basis with a coefficient matrix and provides
vectorized evaluation and analytic Jacobians, in the variables and in the
coefficients.  :class:`MonomialPlan` builds every monomial of one point from
earlier ones, for the per-sample simulation loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_MONOMIALS = 10**7


def _exponents_of_degree(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of given total degree, lexicographically descending
    in the first variable (graded-lex within one degree block)."""
    if n_vars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in _exponents_of_degree(n_vars - 1, degree - first):
            out.append((first,) + rest)
    return out


def monomial_count(n_vars: int, d_min: int, d_max: int) -> int:
    """Number of monomials: sum over degrees of C(n_vars + d - 1, d)."""
    return sum(math.comb(n_vars + d - 1, d) for d in range(d_min, d_max + 1))


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered monomial basis in ``n_vars`` variables.

    Exponent vectors are sorted by total degree, then lexicographically
    (descending leading exponents), which is stable across runs and
    serialization round-trips.
    """

    n_vars: int
    degree_min: int
    degree_max: int
    exponents: tuple[tuple[int, ...], ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.exponents)

    @property
    def exponent_array(self) -> np.ndarray:
        return np.asarray(self.exponents, dtype=int).reshape(len(self.exponents), self.n_vars)


def enumerate_monomials(n_vars: int, d_min: int, d_max: int) -> MonomialBasis:
    """Enumerate all monomials in ``n_vars`` variables with total degree in
    ``[d_min, d_max]``.

    Raises
    ------
    ValueError
        If the degree range is invalid or the basis would exceed
        ``MAX_MONOMIALS`` terms.
    """
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    if not (0 <= d_min <= d_max):
        raise ValueError(f"need 0 <= d_min <= d_max, got ({d_min}, {d_max})")
    count = monomial_count(n_vars, d_min, d_max)
    if count > MAX_MONOMIALS:
        raise ValueError(f"basis would hold {count} monomials (limit {MAX_MONOMIALS})")
    exps: list[tuple[int, ...]] = []
    for d in range(d_min, d_max + 1):
        exps.extend(_exponents_of_degree(n_vars, d))
    return MonomialBasis(n_vars, d_min, d_max, tuple(exps))


def _power_table(basis: MonomialBasis, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """``pow_tab[p, j, d] = x_j^d`` up to the basis degree, so each monomial is
    a product of lookups; also whether ``x`` was a single point."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != basis.n_vars:
        raise ValueError(f"expected {basis.n_vars} variables, got {pts.shape[1]}")
    pow_tab = np.ones((pts.shape[0], basis.n_vars, basis.degree_max + 1))
    for d in range(1, basis.degree_max + 1):
        pow_tab[:, :, d] = pow_tab[:, :, d - 1] * pts
    return pow_tab, single


def eval_monomials(basis: MonomialBasis, x: np.ndarray) -> np.ndarray:
    """Evaluate every basis monomial at one point or a batch of points.

    Parameters
    ----------
    x : ndarray, shape (n_vars,) or (n_points, n_vars)

    Returns
    -------
    ndarray, shape (n_monomials,) or (n_points, n_monomials)
    """
    pow_tab, single = _power_table(basis, x)
    exps = basis.exponent_array
    vals = np.ones((pow_tab.shape[0], len(basis)))
    for j in range(basis.n_vars):
        vals *= pow_tab[:, j, exps[:, j]]
    return vals[0] if single else vals


def monomial_jacobian(basis: MonomialBasis, x: np.ndarray) -> np.ndarray:
    """Partial derivatives of every monomial w.r.t. every variable.

    Returns
    -------
    ndarray, shape (n_monomials, n_vars) for a single point or
    (n_points, n_monomials, n_vars) for a batch.
    """
    pow_tab, single = _power_table(basis, x)
    exps = basis.exponent_array
    jac = np.empty((pow_tab.shape[0], len(basis), basis.n_vars))
    for j in range(basis.n_vars):
        # d/dx_j x_j^e = e * x_j^(e-1); zero exponent kills the term
        ej = exps[:, j]
        term = ej * pow_tab[:, j, np.maximum(ej - 1, 0)]
        term[:, ej == 0] = 0.0
        for i in range(basis.n_vars):
            if i != j:
                term *= pow_tab[:, i, exps[:, i]]
        jac[:, :, j] = term
    return jac[0] if single else jac


class MonomialPlan:
    """Evaluation plan for every monomial in ``n_vars`` variables up to
    ``degree_max``, for per-sample loops over Python floats.

    The monomial table of a point ``z`` starts as ``[1, z_0, ..., z_{n-1}]``
    (degrees 0 and 1, whatever ``degree_max``); each level ``d = 2..degree_max``
    then appends ``table[parent] * z[var]`` for its ``(parent, var)`` pairs,
    ``parent`` being an entry of degree ``d - 1``.  Every monomial appears
    once, so a polynomial is one dot product of its coefficients, laid out by
    :meth:`positions`, with the table.  The plan for a lower degree is a
    prefix of the plan for a higher one.
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
        self._index = {e: k for k, e in enumerate(exps)}

    @property
    def size(self) -> int:
        return len(self._index)

    def positions(self, basis: MonomialBasis) -> list[int]:
        """Table position of each monomial of ``basis``, in basis order."""
        if basis.n_vars != self.n_vars or basis.degree_max > self.degree_max:
            raise ValueError("basis does not fit the plan")
        return [self._index[e] for e in basis.exponents]


@dataclass(frozen=True)
class PolyMap:
    """Vector-valued multivariate polynomial ``y_i = sum_m c[i, m] * mono_m(x)``."""

    basis: MonomialBasis
    coefficients: np.ndarray  # (n_outputs, n_monomials)

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        if c.shape[1] != len(self.basis):
            raise ValueError(
                f"coefficient columns ({c.shape[1]}) must match basis size ({len(self.basis)})"
            )
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
        basis = MonomialBasis(
            d["n_vars"], d["d_min"], d["d_max"], tuple(tuple(e) for e in d["exponents"])
        )
        return cls(basis, np.asarray(d["coeffs"], dtype=float))

    @classmethod
    def zeros(cls, n_outputs: int, n_vars: int, d_min: int, d_max: int) -> "PolyMap":
        basis = enumerate_monomials(n_vars, d_min, d_max)
        return cls(basis, np.zeros((n_outputs, len(basis))))

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
    vals = eval_monomials(p.basis, x)
    return vals @ p.coefficients.T


def jacobian_polymap(p: PolyMap, x: np.ndarray) -> np.ndarray:
    """Analytic Jacobian d y / d x at ``x``.

    Returns shape ``(n_outputs, n_vars)`` for a single point or
    ``(n_points, n_outputs, n_vars)`` for a batch.
    """
    mjac = monomial_jacobian(p.basis, x)
    if mjac.ndim == 2:
        return p.coefficients @ mjac
    return np.einsum("om,pmv->pov", p.coefficients, mjac)
