"""Regularized Volterra kernel estimation up to degree 2.

The model is an NFIR polynomial: a DC offset, a linear kernel of length ``m``,
and a symmetric quadratic kernel.  Estimation is ridge regression with
smoothness/decay priors per kernel; hyperparameters are either fixed or picked
on a log grid by marginal likelihood.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import linalg as sp_linalg


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
    """Decaying-correlated priors per kernel degree.

    Each kernel direction gets ``P[i, j] = scale * decay^max(i,j) *
    corr^|i-j|``; the degree-2 prior is the Kronecker product over the two lag
    directions, symmetrized.  ``tuning='marginal_likelihood_grid'`` searches a
    log grid around the given values.
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
                                       or not isinstance(value, numbers.Real)):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        if not isinstance(self.grid_points, numbers.Integral) or self.grid_points < 1:
            raise ValueError(f"grid_points must be a positive integer, got {self.grid_points!r}")


def decaying_correlation_matrix(m: int, scale: float, decay: float, corr: float) -> np.ndarray:
    """Single-direction prior ``P[i, j] = scale * decay^max(i,j) * corr^|i-j|``.

    Positive definite for ``scale > 0``, ``0 < decay < 1`` and ``|corr| < 1``
    (diagonal for ``corr = 0``).
    """
    idx = np.arange(m)
    i, j = np.meshgrid(idx, idx, indexing="ij")
    return scale * decay ** np.maximum(i, j) * np.asarray(corr, dtype=float) ** np.abs(i - j)


def build_prior(reg: RegularizerSpec, m: int, degree: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Prior covariances ``(P1, P2)`` for the degree-1 and degree-2 kernels.

    ``P1`` is the decaying-correlated matrix; ``P2`` is the Kronecker product
    of the two per-direction matrices, symmetrized under lag exchange.  Both
    are checked for positive definiteness.
    """
    if min(reg.scale_1, reg.scale_2) <= 0 or min(reg.decay_1, reg.decay_2) <= 0:
        raise ValueError("prior scales and decay rates must be positive")
    p1 = decaying_correlation_matrix(m, reg.scale_1, reg.decay_1, reg.corr_1)
    _check_spd(p1, "P1")
    if degree < 2:
        return p1, np.zeros((0, 0))
    pa = decaying_correlation_matrix(m, np.sqrt(reg.scale_2), reg.decay_2, reg.corr_2)
    full = np.kron(pa, pa)
    perm = _lag_exchange_permutation(m)
    p2 = 0.5 * (full + full[perm][:, perm])
    _check_spd(p2, "P2")
    return p1, p2


def _lag_exchange_permutation(m: int) -> np.ndarray:
    """Permutation mapping vec index (i, j) to (j, i) for an m x m kernel."""
    idx = np.arange(m * m).reshape(m, m)
    return idx.T.ravel()


def _check_spd(p: np.ndarray, name: str) -> None:
    eigmin = float(np.linalg.eigvalsh(p).min()) if p.size else 1.0
    if eigmin <= 0.0:
        raise ValueError(f"{name} is not positive definite (smallest eigenvalue {eigmin:.3e})")


def _upper_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(m)


def _regression_matrix(u: np.ndarray, m: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows t = m-1..N-1 of [1, u(t-..), (2-delta_ij) u(t-i)u(t-j) upper]."""
    n = len(u)
    t = np.arange(m - 1, n)
    lagged = np.stack([u[t - tau] for tau in range(m)], axis=1)  # (T, m)
    cols = [np.ones((len(t), 1)), lagged]
    if degree >= 2:
        iu, ju = _upper_index(m)
        quad = lagged[:, iu] * lagged[:, ju]
        quad[:, iu != ju] *= 2.0  # off-diagonal pairs appear twice in the kernel sum
        cols.append(quad)
    return np.concatenate(cols, axis=1), t


def _upper_prior(p2: np.ndarray, m: int) -> np.ndarray:
    """Penalty matrix S^T P2^-1 S for the upper-triangle parameterization.

    ``S`` maps upper-triangle parameters to the full symmetric kernel vec
    (unit weight on both (i,j) and (j,i)); the induced Gaussian prior on the
    parameters has precision ``S^T P2^-1 S``.
    """
    iu, ju = _upper_index(m)
    n_par = len(iu)
    s = np.zeros((m * m, n_par))
    flat = lambda i, j: i * m + j
    for p, (i, j) in enumerate(zip(iu, ju)):
        s[flat(i, j), p] = 1.0
        if i != j:
            s[flat(j, i), p] = 1.0
    p2_inv = np.linalg.inv(p2)
    return s.T @ p2_inv @ s


def fit_volterra(rec, m: int, degree: int = 2,
                 reg: RegularizerSpec | None = None) -> VolterraModel:
    """Fit Volterra kernels by regularized least squares (ridge regression).

    Minimizes ``(1/N) sum (y - yhat)^2 + theta^T blockdiag(0, P1^-1, R2) theta``
    in closed form, where ``R2`` is the degree-2 prior restricted to the
    upper-triangle parameterization; the DC offset is unpenalized.  With
    ``tuning='marginal_likelihood_grid'`` the prior scales and decays are
    selected on a fixed log grid by maximizing the marginal likelihood.
    """
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2 (higher kernels are out of scope)")
    reg = reg or RegularizerSpec()
    u = rec.input
    y = rec.output
    k, t = _regression_matrix(u, m, degree)
    target = y[t]
    n_par = k.shape[1]
    if len(target) < 5 * _effective_params(m, degree):
        warnings.warn(
            f"{len(target)} samples for {n_par} parameters is short even with "
            "regularization", stacklevel=2,
        )
    if reg.tuning == "fixed":
        theta, _, sigma2 = _solve_ridge(k, target, reg, m, degree)
        hyper = _hyper_dict(reg)
    else:
        theta, hyper, sigma2 = _grid_search(k, target, reg, m, degree)
    return _model_from_theta(theta, m, degree, hyper)


def _effective_params(m: int, degree: int) -> int:
    return 1 + m + (m * (m + 1) // 2 if degree >= 2 else 0)


def _prior_blocks(reg: RegularizerSpec, m: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The two penalty blocks of a prior: ``P1^-1`` and the upper-triangle
    ``S^T P2^-1 S`` (empty at degree 1)."""
    p1, p2 = build_prior(reg, m, degree)
    upper = _upper_prior(p2, m) if degree >= 2 else np.zeros((0, 0))
    return np.linalg.inv(p1), upper


def _assemble_penalty(p1_inv: np.ndarray, upper: np.ndarray, m: int) -> np.ndarray:
    """``blockdiag(0, P1^-1, S^T P2^-1 S)``: the DC offset is unpenalized."""
    n_par = 1 + m + len(upper)
    pen = np.zeros((n_par, n_par))
    pen[1 : 1 + m, 1 : 1 + m] = p1_inv
    pen[1 + m :, 1 + m :] = upper
    return pen


def _penalty_matrix(reg: RegularizerSpec, m: int, degree: int) -> np.ndarray:
    return _assemble_penalty(*_prior_blocks(reg, m, degree), m)


def _solve_ridge(k: np.ndarray, y: np.ndarray, reg: RegularizerSpec, m: int,
                 degree: int) -> tuple[np.ndarray, np.ndarray, float]:
    n = len(y)
    pen = _penalty_matrix(reg, m, degree)
    gram = k.T @ k / n + pen
    theta = sp_linalg.solve(gram, k.T @ y / n, assume_a="pos")
    resid = y - k @ theta
    dof = max(n - k.shape[1], 1)
    return theta, pen, float(resid @ resid / dof)


def _marginal_loglik(k: np.ndarray, y: np.ndarray, ktk: np.ndarray, kty: np.ndarray,
                     yy: float, pen: np.ndarray, sigma2: float) -> float:
    """Gaussian evidence of y = K theta + e, theta ~ N(0, pen^-1), e ~ N(0, sigma2 I).

    ``pen`` is the prior precision in the Bayesian sense.  The ridge cost
    ``(1/N) sum e^2 + theta^T R theta`` corresponds to a prior precision of
    ``R * N / sigma2``; callers tune R by passing that scaled matrix here.
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
    cho = sp_linalg.cho_factor(a)
    alpha = sp_linalg.cho_solve(cho, kty)
    quad = (yy - y @ (k @ alpha)) / sigma2
    logdet_a = 2.0 * np.sum(np.log(np.diag(cho[0])))
    sign, logdet_pen = np.linalg.slogdet(pen)
    if sign <= 0:
        return -np.inf
    # log det(sigma2 I + K P K^T) = (n - p) log sigma2 + logdet(a) - logdet(pen)
    logdet = (n - p) * np.log(sigma2) + logdet_a - logdet_pen
    return float(-0.5 * (quad + logdet + n * np.log(2.0 * np.pi)))


def _grid_search(k: np.ndarray, y: np.ndarray, reg: RegularizerSpec, m: int,
                 degree: int) -> tuple[np.ndarray, dict, float]:
    """Pick ``(scale_1, decay_1, scale_2, decay_2)`` on a g x g x g x g grid by
    marginal likelihood, the first maximum in grid order.

    A candidate's penalty is ``blockdiag(0, P1^-1, S^T P2^-1 S)``, where the
    P1 block depends only on ``(scale_1, decay_1)`` and the P2 block only on
    ``(scale_2, decay_2)``.  So the g^2 blocks of each kind are built once
    (one :func:`build_prior` per grid pair gives both: g^2 + g^2 blocks,
    against 2 g^4 when each candidate builds its own prior), ``K^T K``,
    ``K^T y`` and ``y^T y`` are formed once, and each of the g^4 candidates
    only assembles its two blocks and evaluates the evidence.
    """
    from dataclasses import replace

    n = len(y)
    ktk = k.T @ k
    kty = k.T @ y
    yy = y @ y
    # noise level from a lightly regularized pilot fit
    pilot = sp_linalg.solve(ktk / n + 1e-6 * np.eye(k.shape[1]), kty / n)
    sigma2 = float(np.mean((y - k @ pilot) ** 2))
    sigma2 = max(sigma2, 1e-12 * float(np.mean(y**2)) + 1e-300)
    g = reg.grid_points
    scales = np.geomspace(1.0 / reg.grid_span, reg.grid_span, g)
    decays = np.unique(np.clip(np.linspace(0.6, 0.95, g), 0.05, 0.99))
    pairs = [(s, d) for s in scales for d in decays]
    blocks = [_prior_blocks(replace(reg, scale_1=reg.scale_1 * s, decay_1=d,
                                    scale_2=reg.scale_2 * s, decay_2=d), m, degree)
              for s, d in pairs]
    best = (-np.inf, None, None)
    for i, (p1_inv, _) in enumerate(blocks):
        for j, (_, upper) in enumerate(blocks):
            pen = _assemble_penalty(p1_inv, upper, m)
            ll = _marginal_loglik(k, y, ktk, kty, yy, pen * (n / sigma2), sigma2)
            if ll > best[0]:
                best = (ll, (i, j), pen)
    ll, (i, j), pen = best
    (s1, d1), (s2, d2) = pairs[i], pairs[j]
    cand = replace(reg, scale_1=reg.scale_1 * s1, decay_1=d1,
                   scale_2=reg.scale_2 * s2, decay_2=d2)
    theta = sp_linalg.solve(ktk / n + pen, kty / n, assume_a="pos")
    hyper = _hyper_dict(cand)
    hyper["marginal_loglik"] = ll
    hyper["noise_variance"] = sigma2
    return theta, hyper, sigma2


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
        iu, ju = _upper_index(m)
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
