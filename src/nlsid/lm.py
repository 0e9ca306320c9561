"""Levenberg-Marquardt least squares, shared by the PNLSS fit and the
decoupling refinement."""

from __future__ import annotations

import numpy as np

DAMPING_RANGE = 1e17  # lam stops rising at this multiple of its start


def levenberg_marquardt(residual, jacobian, theta0: np.ndarray, max_iterations: int,
                        cost_tol: float, grad_tol: float, scaled_damping: bool = False):
    """Minimize ``|r(theta)|^2`` with multiplicative damping (factor 2).

    ``residual(theta)`` returns ``(r, state)``; ``r`` is None when the model
    diverges at ``theta`` (treated as infinite cost).  ``jacobian(theta,
    state)`` returns ``dr/dtheta`` from the ``state`` of that same evaluation,
    so an accepted trial point is evaluated once, not again for its Jacobian.

    Accepted steps strictly decrease the cost; convergence on cost requires
    three consecutive accepted steps below ``cost_tol`` relative drop.
    Persistent divergence at the damping ceiling, ``DAMPING_RANGE`` times
    the starting ``lam``, raises; a stall (no improving step, all finite)
    just stops.

    ``scaled_damping`` switches the damping matrix from ``lam * I`` to the
    Marquardt form ``lam * diag(J^T J)``, which is insensitive to parameter
    scaling (used where parameter blocks carry very different scales).

    The Jacobian is built at the top of each iteration, so a run that stops
    on ``max_iterations`` builds none it does not use.

    Returns ``(theta, accepted costs, iterations, status, state)``, where
    ``state`` is that of the evaluation at the returned ``theta``.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r, state = residual(theta)
    if r is None:
        raise ValueError("initial point diverges")
    cost = float(r @ r)
    costs = [cost]
    n_par = len(theta)
    lam = lam_max = None
    status = "max_iterations"
    it = 0
    small_drops = 0
    for it in range(1, max_iterations + 1):
        j = jacobian(theta, state)
        if lam is None:
            lam = 1e-3 if scaled_damping else max(
                1e-3 * float(np.einsum("ij,ij->", j, j)) / n_par, 1e-300)
            lam_max = lam * DAMPING_RANGE
        grad = j.T @ r
        if np.max(np.abs(grad)) < grad_tol:
            status = "gradient_converged"
            break
        jtj = j.T @ j
        diag = np.diag(jtj) if scaled_damping else np.ones(n_par)
        damping = np.diag(np.where(diag > 0, diag, 1.0))
        accepted = False
        any_finite_trial = False
        while lam < lam_max:
            try:
                step = np.linalg.solve(jtj + lam * damping, -grad)
            except np.linalg.LinAlgError:
                lam *= 2.0
                continue
            trial = theta + step
            r_try, state_try = residual(trial)
            if r_try is not None:
                any_finite_trial = True
                cost_try = float(r_try @ r_try)
                if cost_try < cost:
                    theta, r, state = trial, r_try, state_try
                    rel_drop = (cost - cost_try) / max(cost, 1e-300)
                    cost = cost_try
                    costs.append(cost)
                    lam /= 2.0
                    accepted = True
                    small_drops = small_drops + 1 if rel_drop < cost_tol else 0
                    break
            lam *= 2.0
        if not accepted:
            if not any_finite_trial:
                raise RuntimeError(
                    "persistent divergence at the damping ceiling; "
                    f"{len(costs)} accepted steps, last cost {costs[-1]:.6g}"
                )
            status = "stalled"
            break
        if small_drops >= 3:
            status = "cost_converged"
            break
    return theta, np.asarray(costs), it, status, state
