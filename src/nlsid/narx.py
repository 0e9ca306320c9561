"""Polynomial NARX identification by linear least squares on the equation
error, with free-run simulation (the PNLSS step's generated recursion, which
stops where an output or a fed-back lag is NaN or beyond
``DIVERGENCE_LIMIT``)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .polybasis import (MonomialPlan, PolyMap, enumerate_monomials, eval_monomials,
                        step_kernel)
from .signals import SignalRecord
from .simulators import DIVERGENCE_LIMIT


@dataclass(frozen=True)
class NarxModel:
    """One-output polynomial NARX model ``y(t) = h(phi(t))``.

    The regressor vector is ``phi(t) = [y(t-1..t-na), (u(t) if direct_term),
    u(t-1..t-nb)]`` and ``h`` is a polynomial over it (constant through
    ``degree``).  ``training_residual_rms`` stores the equation-error RMS at
    fit time.
    """

    na: int
    nb: int
    direct_term: bool
    poly: PolyMap
    regressor_layout: tuple[str, ...]
    training_residual_rms: float = 0.0

    @property
    def max_lag(self) -> int:
        return max(self.na, self.nb)

    @property
    def degree(self) -> int:
        return self.poly.basis.degree_max

    def regressors(self, y: np.ndarray, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        """phi(t) rows for the given time indices (measured outputs)."""
        cols = []
        for i in range(1, self.na + 1):
            cols.append(y[t - i])
        if self.direct_term:
            cols.append(u[t])
        for i in range(1, self.nb + 1):
            cols.append(u[t - i])
        return np.stack(cols, axis=-1)

    def to_dict(self) -> dict:
        d = self.poly.to_dict()
        d.update(
            na=self.na,
            nb=self.nb,
            direct_term=self.direct_term,
            regressor_layout=list(self.regressor_layout),
            training_residual_rms=self.training_residual_rms,
        )
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NarxModel":
        return cls(
            na=int(d["na"]),
            nb=int(d["nb"]),
            direct_term=bool(d["direct_term"]),
            poly=PolyMap.from_dict(d),
            regressor_layout=tuple(d["regressor_layout"]),
            training_residual_rms=float(d["training_residual_rms"]),
        )


def _layout(na: int, nb: int, direct_term: bool) -> tuple[str, ...]:
    names = [f"y[t-{i}]" for i in range(1, na + 1)]
    if direct_term:
        names.append("u[t]")
    names += [f"u[t-{i}]" for i in range(1, nb + 1)]
    return tuple(names)


def fit_narx(rec: SignalRecord, na: int, nb: int, degree: int,
             direct_term: bool = True) -> NarxModel:
    """Fit a polynomial NARX model by least squares on the equation error
    ``V = (1/N) sum e(t)^2``, ``e(t) = y(t) - h(phi(t))``.

    Regressor columns are standardized internally for conditioning and the
    coefficients unscaled on output.  Rank-deficient normal equations fall
    back to the minimum-norm solution with a warning.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if na < 0 or nb < 0 or (na + nb + int(direct_term)) == 0:
        raise ValueError("model needs at least one regressor")
    y = rec.output
    u = rec.input
    if len(y) == 0:
        raise ValueError("empty record")
    layout = _layout(na, nb, direct_term)
    n_reg = len(layout)
    basis = enumerate_monomials(n_reg, 0, degree)
    max_lag = max(na, nb)
    t = np.arange(max_lag, len(y))
    if len(t) < 1:
        raise ValueError("record shorter than the maximum lag")
    proto = NarxModel(na, nb, direct_term, PolyMap.zeros(1, n_reg, 0, degree), layout)
    phi = proto.regressors(y, u, t)
    k = eval_monomials(basis, phi)  # (T, n_mono)
    target = y[t]
    if len(t) <= 10 * k.shape[1]:
        warnings.warn(
            f"only {len(t)} equations for {k.shape[1]} parameters "
            "(less than a factor 10 margin)", stacklevel=2,
        )
    scale = np.linalg.norm(k, axis=0)
    scale[scale == 0.0] = 1.0
    theta_s, _, rank, _ = np.linalg.lstsq(k / scale, target, rcond=None)
    if rank < k.shape[1]:
        warnings.warn(
            f"rank-deficient regression (rank {rank} of {k.shape[1]}); "
            "returning the minimum-norm solution", stacklevel=2,
        )
    theta = theta_s / scale
    resid = target - k @ theta
    poly = PolyMap(basis, theta[None, :])
    return NarxModel(na, nb, direct_term, poly, layout,
                     training_residual_rms=float(np.sqrt(np.mean(resid**2))))


@dataclass(frozen=True)
class FreeRunResult:
    """Free-run simulation output with divergence status."""

    y: np.ndarray
    diverged: bool
    divergence_index: int | None


def simulate_free_run(model: NarxModel, u: np.ndarray,
                      y_init: np.ndarray) -> FreeRunResult:
    """Recursive simulation feeding predicted outputs back into the regressors.

    The step is :func:`~nlsid.polybasis.step_kernel`'s, with the output lags
    as states; ``y_init`` holds ``y[max_lag - na : max_lag]``.  The run stops
    at the first sample whose output, or a lag it was computed from, is NaN
    or beyond ``DIVERGENCE_LIMIT`` in magnitude: the output holds ``y(t-1)``
    from there on and the status records the index.  This is a status, not an
    exception, since unstable free runs are an expected failure mode of
    equation-error models.
    """
    u = np.asarray(u, dtype=float)
    y_init = np.asarray(y_init, dtype=float)
    na = model.na
    if len(y_init) != na:
        raise ValueError(f"y_init must supply na = {na} samples")
    y = np.zeros(len(u))
    start = model.max_lag
    y[start - na : start] = y_init
    basis = model.poly.basis
    plan = MonomialPlan(basis.n_vars, basis.degree_max)
    row = np.zeros(plan.size)
    row[plan.positions(basis)] = model.poly.coefficients[0]
    m = basis.n_vars - na
    shift = ("y", *(f"t{i}" for i in range(1, na)))[:na]  # y(t-1) <- y, y(t-i) <- y(t-i+1)
    kernel = step_kernel(na, m, plan.levels, tuple(range(plan.size)), shift)
    # input columns of phi(t) for every simulated t, one float each for one column
    u_cols = model.regressors(y, u, np.arange(start, len(u)))[:, na:]
    u_cols = (u_cols[:, 0] if m == 1 else u_cols).tolist()
    ys, _, diverged = kernel(u_cols, y_init[::-1].tolist(), row.tolist(), DIVERGENCE_LIMIT)
    y[start : start + len(ys)] = ys
    if not diverged:
        return FreeRunResult(y, False, None)
    t = start + len(ys) - 1
    y[t:] = y[t - 1] if t > 0 else 0.0
    return FreeRunResult(y, True, t)
