"""Polynomial NARX identification by linear least squares on the equation
error, with one-step prediction and free-run simulation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isfinite
from operator import mul

import numpy as np

from .polybasis import MonomialPlan, PolyMap, enumerate_monomials, eval_monomials
from .signals import SignalRecord

DIVERGENCE_LIMIT = 1e6


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


def equation_error_cost(model: NarxModel, rec: SignalRecord) -> float:
    """Mean squared one-step equation error on a record."""
    e = rec.output - predict_one_step(model, rec)
    e = e[model.max_lag:]
    return float(np.mean(e**2))


def predict_one_step(model: NarxModel, rec: SignalRecord) -> np.ndarray:
    """One-step-ahead prediction using measured past outputs.

    The first ``max_lag`` samples cannot be predicted and are returned as NaN.
    """
    y = rec.output
    u = rec.input
    if len(y) <= model.max_lag:
        raise ValueError("record shorter than the maximum lag")
    t = np.arange(model.max_lag, len(y))
    phi = model.regressors(y, u, t)
    pred = eval_monomials(model.poly.basis, phi) @ model.poly.coefficients[0]
    out = np.full(len(y), np.nan)
    out[t] = pred
    return out


@dataclass(frozen=True)
class FreeRunResult:
    """Free-run simulation output with divergence status."""

    y: np.ndarray
    diverged: bool
    divergence_index: int | None


def simulate_free_run(model: NarxModel, u: np.ndarray,
                      y_init: np.ndarray) -> FreeRunResult:
    """Recursive simulation feeding predicted outputs back into the regressors.

    Divergence (|y| > 1e6) truncates the run: remaining samples hold the last
    finite value and the status records the index.  This is a status, not an
    exception, since unstable free runs are an expected failure mode of
    equation-error models.
    """
    u = np.asarray(u, dtype=float)
    y_init = np.asarray(y_init, dtype=float)
    if len(y_init) != model.na:
        raise ValueError(f"y_init must supply na = {model.na} samples")
    n = len(u)
    y = np.zeros(n)
    start = model.max_lag
    # y_init occupies the na samples immediately preceding the first simulated one
    if model.na > 0:
        y[start - model.na : start] = y_init
    basis = model.poly.basis
    plan = MonomialPlan(basis.n_vars, basis.degree_max)
    row = np.zeros(plan.size)
    row[plan.positions(basis)] = model.poly.coefficients[0]
    row, levels = row.tolist(), plan.levels
    # input columns of phi(t) for every simulated t; the output lags are fed back
    u_cols = model.regressors(y, u, np.arange(start, n))[:, model.na :].tolist()
    y_sim = y.tolist()
    lags = y_init[::-1].tolist()
    for t, u_col in enumerate(u_cols, start):
        phi = lags + u_col
        table = [1.0, *phi]
        for level in levels:
            table += [table[p] * phi[v] for p, v in level]
        val = sum(map(mul, row, table))
        if not isfinite(val) or abs(val) > DIVERGENCE_LIMIT:
            y = np.array(y_sim)
            y[t:] = y[t - 1]
            return FreeRunResult(y, True, t)
        y_sim[t] = val
        lags = [val, *lags][: model.na]
    return FreeRunResult(np.array(y_sim), False, None)
