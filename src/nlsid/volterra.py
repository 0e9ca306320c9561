"""Regularized Volterra kernel estimation up to degree 2.

The model is an NFIR polynomial: a DC offset, a linear kernel of length ``m``,
and a symmetric quadratic kernel.  The estimate is the posterior mean under
Gaussian smoothness/decay priors on the kernel values; their hyperparameters
are either fixed or picked on a grid by marginal likelihood (scales on a log
grid around the given ones, decays on a fixed linear grid).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

MAX_GRID_POINTS = 9  # the grid search scores grid_points**4 candidates


@dataclass(frozen=True)
class VolterraModel:
    """Kernels ``h0`` (scalar), ``h1`` (length m), ``h2`` (symmetric m x m)."""

    memory: int
    h0: float
    h1: np.ndarray
    h2: np.ndarray
    hyper: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        h1 = np.asarray(self.h1, dtype=float)
        h2 = np.asarray(self.h2, dtype=float)
        if h1.shape != (self.memory,):
            raise ValueError(f"h1 must have shape ({self.memory},)")
        if h2.shape != (self.memory, self.memory):
            raise ValueError(f"h2 must be {self.memory} x {self.memory}")
        if not np.allclose(h2, h2.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(h2).max())):
            raise ValueError("h2 must be symmetric")
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", 0.5 * (h2 + h2.T))

    def to_dict(self) -> dict:
        iu = np.triu_indices(self.memory)
        return {
            "m": self.memory,
            "h0": self.h0,
            "h1": self.h1.tolist(),
            "h2_upper": self.h2[iu].tolist(),
            "hyper": dict(self.hyper),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VolterraModel":
        m = int(d["m"])
        h2 = np.zeros((m, m))
        iu = np.triu_indices(m)
        h2[iu] = d["h2_upper"]
        h2 = h2 + np.triu(h2, 1).T
        return cls(m, float(d["h0"]), np.asarray(d["h1"], dtype=float), h2,
                   dict(d.get("hyper", {})))


@dataclass(frozen=True)
class RegularizerSpec:
    """Decaying-correlated covariances of the kernel values per degree.

    Each kernel direction gets ``P[i, j] = scale * decay^max(i,j) *
    corr^|i-j|``; the degree-2 covariance is the Kronecker product over the two
    lag directions, ``sqrt(scale_2)`` each.  Neither depends on the record length
    or the noise level.  ``tuning='marginal_likelihood_grid'`` tries, for each
    degree, the given scale times each of ``geomspace(1/grid_span, grid_span,
    grid_points)`` with each decay of ``linspace(0.6, 0.95, grid_points)``;
    the given decays are not used there, and the correlations stay as given.
    The bounds checked here make every fixed prior and every grid candidate
    positive definite, and keep ``grid_points`` from 2 (one point would not
    search but replace the given prior) to 9 (``grid_points**4`` candidates).
    """

    scale_1: float = 1.0
    decay_1: float = 0.9
    corr_1: float = 0.5
    scale_2: float = 1.0
    decay_2: float = 0.9
    corr_2: float = 0.5
    tuning: str = "fixed"  # {"fixed", "marginal_likelihood_grid"}
    grid_points: int = 3
    grid_span: float = 10.0  # multiplicative span for the scale grid

    def __post_init__(self):
        if self.tuning not in ("fixed", "marginal_likelihood_grid"):
            raise ValueError("tuning must be 'fixed' or 'marginal_likelihood_grid'")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "tuning" and (isinstance(value, bool)
                                       or not isinstance(value, numbers.Real)
                                       or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if (not isinstance(self.grid_points, numbers.Integral)
                or not 2 <= self.grid_points <= MAX_GRID_POINTS):
            raise ValueError(f"grid_points must be an integer from 2 to {MAX_GRID_POINTS}, "
                             f"got {self.grid_points!r}")
        for name, ok, bound in (("scale", lambda v: v > 0, "positive"),
                                ("decay", lambda v: 0 < v <= 1, "in (0, 1]"),
                                ("corr", lambda v: abs(v) < 1, "in (-1, 1)")):
            for key in (f"{name}_1", f"{name}_2"):
                if not ok(getattr(self, key)):
                    raise ValueError(f"{key} must be {bound} for a positive definite prior, "
                                     f"got {getattr(self, key)!r}")
        if self.grid_span < 1:
            raise ValueError(f"grid_span must be at least 1, got {self.grid_span!r}")


def decaying_correlation_matrix(m: int, scale: float, decay: float, corr: float) -> np.ndarray:
    """Single-direction prior ``P[i, j] = scale * decay^max(i,j) * corr^|i-j|``.

    ``P = scale * D T D`` with ``D = diag(decay^(i/2))`` and the Kac-Murdock-Szegő
    matrix ``T[i, j] = (corr * sqrt(decay))^|i-j|``, so ``P`` is positive definite
    exactly when ``scale > 0``, ``decay > 0`` and ``|corr| sqrt(decay) < 1``
    (diagonal for ``corr = 0``).
    """
    idx = np.arange(m)
    i, j = np.meshgrid(idx, idx, indexing="ij")
    return scale * decay ** np.maximum(i, j) * np.asarray(corr, dtype=float) ** np.abs(i - j)


def _regression_matrix(u: np.ndarray, m: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows t = m-1..N-1 of [1, u(t-..), (2-delta_ij) u(t-i)u(t-j) upper]."""
    n = len(u)
    t = np.arange(m - 1, n)
    lagged = np.stack([u[t - tau] for tau in range(m)], axis=1)  # (T, m)
    cols = [np.ones((len(t), 1)), lagged]
    if degree >= 2:
        iu, ju = np.triu_indices(m)
        quad = lagged[:, iu] * lagged[:, ju]
        quad[:, iu != ju] *= 2.0  # off-diagonal pairs appear twice in the kernel sum
        cols.append(quad)
    return np.concatenate(cols, axis=1), t


def fit_volterra(rec, m: int, degree: int = 2,
                 reg: RegularizerSpec | None = None) -> VolterraModel:
    """Fit Volterra kernels as the posterior mean under a Gaussian kernel prior.

    The kernel values have prior covariances ``P1`` and ``P2`` (see
    :class:`RegularizerSpec`), the output noise variance ``sigma2``, and the
    posterior mean is ``theta = (K^T K + sigma2 Pi)^-1 K^T y`` with the prior
    precision ``Pi = blockdiag(0, P1^-1, S^T P2^-1 S)``: ``S`` maps the
    upper-triangle degree-2 parameters to the symmetric kernel, and the DC
    offset is unpenalized.  ``sigma2`` is the residual variance of a lightly
    regularized pilot fit and is reported as ``hyper['noise_variance']``.
    With ``tuning='marginal_likelihood_grid'`` the prior scales and decays are
    the candidates of :class:`RegularizerSpec`'s grid (scales a log grid
    around the given ones, decays a fixed linear grid) that maximize the
    marginal likelihood.
    """
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2 (higher kernels are out of scope)")
    reg = reg or RegularizerSpec()
    k, t = _regression_matrix(rec.input, m, degree)
    y = rec.output[t]
    n, n_par = k.shape
    if n < 5 * n_par:
        warnings.warn(f"{n} samples for {n_par} parameters is short even with "
                      "regularization", stacklevel=2)
    ktk = k.T @ k
    kty = k.T @ y
    # noise level from a lightly regularized pilot fit
    pilot = np.linalg.solve(ktk / n + 1e-6 * np.eye(n_par), kty / n)
    sigma2 = float(np.mean((y - k @ pilot) ** 2))
    sigma2 = max(sigma2, 1e-12 * float(np.mean(y**2)) + 1e-300)
    if reg.tuning == "fixed":
        pen, hyper = _precision(*_precision_blocks(reg, m, degree), m), _hyper_dict(reg)
    else:
        pen, hyper = _grid_search(k, y, ktk, kty, sigma2, reg, m, degree)
    hyper["noise_variance"] = sigma2
    theta = np.linalg.solve(ktk + sigma2 * pen, kty)
    return _model_from_theta(theta, m, degree, hyper)


def _precision_blocks(reg: RegularizerSpec, m: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks of a prior precision: ``P1^-1`` and the upper-triangle
    ``S^T P2^-1 S`` (empty at degree 1).

    With ``P2 = Pa (x) Pa`` and ``B = Pa^-1``, entry ``(p, q)`` of
    ``S^T (B (x) B) S`` for ``p = (i, j)`` and ``q = (k, l)`` is
    ``w_p w_q (B_ik B_jl + B_il B_jk)``, with ``w`` sqrt(2) off the diagonal
    and sqrt(1/2) on it, so no m^2 x m^2 matrix is formed.
    """
    p1_inv = np.linalg.inv(decaying_correlation_matrix(m, reg.scale_1, reg.decay_1, reg.corr_1))
    if degree < 2:
        return p1_inv, np.zeros((0, 0))
    b = np.linalg.inv(decaying_correlation_matrix(m, np.sqrt(reg.scale_2), reg.decay_2, reg.corr_2))
    iu, ju = np.triu_indices(m)
    w = np.where(iu == ju, np.sqrt(0.5), np.sqrt(2.0))
    upper = (b[np.ix_(iu, iu)] * b[np.ix_(ju, ju)] + b[np.ix_(iu, ju)] * b[np.ix_(ju, iu)])
    return p1_inv, np.outer(w, w) * upper


def _precision(p1_inv: np.ndarray, upper: np.ndarray, m: int) -> np.ndarray:
    """``blockdiag(0, P1^-1, S^T P2^-1 S)``: the DC offset is unpenalized."""
    n_par = 1 + m + len(upper)
    pen = np.zeros((n_par, n_par))
    pen[1 : 1 + m, 1 : 1 + m] = p1_inv
    pen[1 + m :, 1 + m :] = upper
    return pen


def _marginal_loglik(k: np.ndarray, y: np.ndarray, ktk: np.ndarray, kty: np.ndarray,
                     yy: float, pen: np.ndarray, sigma2: float) -> float:
    """Gaussian evidence of y = K theta + e, theta ~ N(0, pen^-1), e ~ N(0, sigma2 I).

    ``pen`` is the prior precision, the same matrix the fit solves with.
    ``ktk``, ``kty`` and ``yy`` are ``K^T K``, ``K^T y`` and ``y^T y``, which
    do not depend on the prior.

    Uses the determinant lemma so all factorizations stay parameter-sized.
    The unpenalized offset gets a wide proper prior for the evidence
    computation.
    """
    n, p = k.shape
    pen = pen.copy()
    pen[0, 0] = max(pen[0, 0], 1e-8)
    a = pen * sigma2 + ktk  # sigma2 * (pen + K^T K / sigma2)
    chol = np.linalg.cholesky(a)  # raises LinAlgError unless a is positive definite
    alpha = np.linalg.solve(a, kty)
    quad = (yy - y @ (k @ alpha)) / sigma2
    logdet_a = 2.0 * np.sum(np.log(np.diag(chol)))
    sign, logdet_pen = np.linalg.slogdet(pen)
    if sign <= 0:
        return -np.inf
    # log det(sigma2 I + K P K^T) = (n - p) log sigma2 + logdet(a) - logdet(pen)
    logdet = (n - p) * np.log(sigma2) + logdet_a - logdet_pen
    return float(-0.5 * (quad + logdet + n * np.log(2.0 * np.pi)))


def _grid_search(k: np.ndarray, y: np.ndarray, ktk: np.ndarray, kty: np.ndarray,
                 sigma2: float, reg: RegularizerSpec, m: int,
                 degree: int) -> tuple[np.ndarray, dict]:
    """Pick ``(scale_1, decay_1, scale_2, decay_2)`` on a g x g x g x g grid by
    marginal likelihood, the first maximum in grid order; return the winner's
    precision and hyperparameters.

    The P1 block of a candidate's precision depends only on ``(scale_1,
    decay_1)`` and the P2 block only on ``(scale_2, decay_2)``, so the g^2
    blocks of each kind are built once (one :func:`_precision_blocks` per grid
    pair gives both) and each of the g^4 candidates only assembles its two.
    At degree 1 there is no P2 block, so only the g^2 candidates with the
    first ``(scale_2, decay_2)`` pair are evaluated: the others tie with them
    and the first of equal maxima wins.
    """
    yy = y @ y
    g = reg.grid_points
    scales = np.geomspace(1.0 / reg.grid_span, reg.grid_span, g)
    decays = np.linspace(0.6, 0.95, g)
    specs = [replace(reg, scale_1=reg.scale_1 * s, decay_1=d, scale_2=reg.scale_2 * s, decay_2=d)
             for s in scales for d in decays]
    blocks = [_precision_blocks(spec, m, degree) for spec in specs]
    best = (-np.inf, None, None)
    for i, (p1_inv, _) in enumerate(blocks):
        for j, (_, upper) in enumerate(blocks if degree >= 2 else blocks[:1]):
            pen = _precision(p1_inv, upper, m)
            ll = _marginal_loglik(k, y, ktk, kty, yy, pen, sigma2)
            if ll > best[0]:
                best = (ll, (i, j), pen)
    ll, (i, j), pen = best
    hyper = _hyper_dict(replace(specs[i], scale_2=specs[j].scale_2, decay_2=specs[j].decay_2))
    hyper["marginal_loglik"] = ll
    return pen, hyper


def _hyper_dict(reg: RegularizerSpec) -> dict:
    return {
        "scale_1": reg.scale_1, "decay_1": reg.decay_1, "corr_1": reg.corr_1,
        "scale_2": reg.scale_2, "decay_2": reg.decay_2, "corr_2": reg.corr_2,
    }


def _model_from_theta(theta: np.ndarray, m: int, degree: int, hyper: dict) -> VolterraModel:
    h0 = float(theta[0])
    h1 = theta[1 : 1 + m]
    h2 = np.zeros((m, m))
    if degree >= 2:
        iu, ju = np.triu_indices(m)
        h2[iu, ju] = theta[1 + m :]
        h2 = h2 + np.triu(h2, 1).T
    return VolterraModel(m, h0, h1, h2, hyper)


def eval_volterra(model: VolterraModel, u: np.ndarray) -> np.ndarray:
    """Model output; the first m-1 samples lack history and return NaN."""
    u = np.asarray(u, dtype=float)
    m = model.memory
    if len(u) < m:
        raise ValueError(f"input must supply at least m = {m} samples")
    t = np.arange(m - 1, len(u))
    lagged = np.stack([u[t - tau] for tau in range(m)], axis=1)
    y = model.h0 + lagged @ model.h1
    y = y + np.einsum("ti,ij,tj->t", lagged, model.h2, lagged)
    out = np.full(len(u), np.nan)
    out[t] = y
    return out
