"""L1+L2-regularized logistic regression solved to a certified optimum.

This is the second-layer learner: it both weights the base-model score
columns and performs the sigmoid calibration. The objective is the summed
negative log-likelihood plus lambda2 * sum(beta^2) + lambda1 * sum(|beta|).
The intercept is exempt from both penalties, as in glmnet: penalizing it
distorts the base rate under rare-event prevalence.

The solver is proximal Newton (Lee, Sun & Saunders, SIAM J. Optim. 2014;
the outer loop of glmnet, Friedman, Hastie & Tibshirani, JSS 2010). Each
iteration builds the exact quadratic model of the smooth part at the current
coefficients, minimizes that model plus the L1 term exactly with a
feature-sign search, and backtracks along the step on the true objective.
It stops when the KKT residual, the largest minimum-norm subgradient of the
objective over the coefficients, is at most `tol`: that certifies the
optimum. `max_iter` bounds the Newton iterations.

A problem has no finite optimum when some direction over the unpenalized
coefficients lowers the likelihood forever, as the intercept does when the
labels hold one class. The fit detects that before solving, runs the solver
as on any other problem and reports `converged=False`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

# The one source of the solver's defaults; the run config and the layer-2
# sweep take theirs from here.
MAX_ITER = 1000
TOL = 1e-6

# Backtracking accepts a step that lowers the objective by this share of the
# decrease the quadratic model predicts (Armijo's rule)...
_ARMIJO = 1e-4
# ...give or take this share of the objective, which is above its rounding
# error: close to the optimum the predicted decrease falls below the rounding
# while the KKT residual can still exceed `tol`.
_ROUNDING = 1e-12
# A search that needs more halvings than this has stalled.
_MAX_HALVINGS = 40


@dataclass(frozen=True)
class ElasticNetParams:
    """Penalties of one layer-2 candidate."""

    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be >= 0")


def check_solver_settings(max_iter, tol):
    """Raise ValueError unless `max_iter` is at least 1 and `tol` is
    positive and finite."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")


@dataclass
class ElasticNetModel:
    beta: np.ndarray  # intercept at index 0
    converged: bool
    n_iter: int
    single_class_warning: bool


def _nll(z, y):
    # sum(log(1 + e^z) - y*z), numerically stable
    return float(np.logaddexp(0.0, z).sum() - (y * z).sum())


def smooth_objective(beta, X1, y, lambda2, pen_mask):
    z = X1 @ beta
    return _nll(z, y) + lambda2 * float((pen_mask * beta * beta).sum())


def smooth_gradient(beta, X1, y, lambda2, pen_mask):
    z = X1 @ beta
    return X1.T @ (expit(z) - y) + 2.0 * lambda2 * pen_mask * beta


def _kkt_residual(beta, grad, l1):
    """Largest minimum-norm subgradient of smooth + sum(l1 * |beta|), given
    the smooth part's gradient; 0 exactly at the optimum."""
    return float(np.max(np.where(
        beta != 0, np.abs(grad + l1 * np.sign(beta)),
        np.maximum(np.abs(grad) - l1, 0.0)), initial=0.0))


def _has_finite_optimum(X1, y, free):
    """Whether the objective attains its minimum, given the mask of
    coefficients that carry no penalty, the intercept among them.

    The minimum is missing exactly when a direction over the free
    coefficients puts every row on its label's side of zero, and some row
    strictly: the likelihood then falls forever along it.
    """
    if not free[1:].any():
        return bool(0 < y.sum() < len(y))
    # Only a fit with both penalties at zero gets here, and no sampled
    # layer-2 candidate is one: importing scipy.optimize at module load
    # would cost every run about 0.3 s and 20 MB.
    from scipy.optimize import linprog
    margin = (2.0 * y - 1.0)[:, None] * X1[:, free]
    res = linprog(-margin.sum(axis=0), A_ub=-margin, b_ub=np.zeros(len(y)),
                  bounds=(-1.0, 1.0), method="highs")
    return bool(-res.fun <= 1e-9 * np.abs(margin).sum())


def _solve(M, b):
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError:   # singular: least-norm step
        return np.linalg.lstsq(M, b, rcond=None)[0]


def _newton_step(A, grad, beta, l1):
    """Exact minimizer d of grad.d + d.A.d / 2 + sum(l1 * |beta + d|).

    Feature-sign search (Lee, Battle, Raina & Ng, NIPS 2006) over
    u = beta + d, started at d = 0. Guess the sign of each nonzero penalized
    coordinate, solve the quadratic on the nonzero coordinates for those
    signs, then move to the best point of the segment toward that solution,
    checked at its end and where a coordinate crosses zero; a coordinate
    reaching zero leaves the active set. Once the active set is optimal for
    its signs, add the zero coordinate that most violates optimality, or stop.
    Each step lowers the objective, so no (set, signs) pair repeats; the cap
    only guards against rounding.
    """
    def q(u):
        d = u - beta
        return grad @ d + 0.5 * d @ (A @ d) + l1 @ np.abs(u)

    u = beta.copy()
    theta = np.sign(u)
    active = (l1 == 0) | (u != 0)
    solved = False
    for _ in range(20 * len(u) + 20):
        r = grad + A @ (u - beta)
        if solved:
            viol = np.where(active, -np.inf, np.abs(r) - l1)
            j = int(np.argmax(viol))
            if viol[j] <= 0:
                break
            active[j] = True
            theta[j] = -np.sign(r[j])
        idx = np.flatnonzero(active)
        target = u.copy()
        target[idx] += _solve(A[np.ix_(idx, idx)],
                              -(r[idx] + l1[idx] * theta[idx]))
        flips = idx[(l1[idx] > 0) & (np.sign(target[idx]) != theta[idx])]
        if not len(flips):
            u, solved = target, True
            continue
        best, best_q = target, q(target)
        for j in flips:
            t = u[j] / (u[j] - target[j])
            cand = u + t * (target - u)
            cand[j] = 0.0
            cq = q(cand)
            if cq < best_q:
                best, best_q = cand, cq
        if not best_q < q(u):
            break
        u = best
        theta = np.sign(u)
        active = (l1 == 0) | (u != 0)
        solved = False
    return u - beta


def fit_elastic_net(X, y, params: ElasticNetParams, init=None, *,
                    max_iter=MAX_ITER, tol=TOL) -> ElasticNetModel:
    """Minimize the penalized objective by proximal Newton.

    A column of ones is prepended internally; callers pass raw score
    columns only. `init` (intercept first) is the starting point, zero by
    default; a fit from the solution of a nearby problem takes fewer
    iterations. `max_iter` bounds the Newton iterations and `tol` the KKT
    residual (in units of the summed log-likelihood's gradient) at which the
    fit stops. `converged` is True when the residual fell to `tol` within
    `max_iter` iterations and the problem has a finite optimum.
    """
    check_solver_settings(max_iter, tol)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    y = np.asarray(y, dtype=float).ravel()
    if len(y) != X.shape[0]:
        raise ValueError("X rows and y length mismatch")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    single_class = len(np.unique(y)) < 2

    n, p = X.shape
    X1 = np.hstack([np.ones((n, 1)), X])
    pen_mask = np.ones(p + 1)
    pen_mask[0] = 0.0
    l1 = params.lambda1 * pen_mask
    l2 = params.lambda2 * pen_mask
    finite = _has_finite_optimum(X1, y, (l1 == 0) & (l2 == 0))

    beta = np.zeros(p + 1)
    if init is not None:
        beta = np.array(init, dtype=float)
        if beta.shape != (p + 1,) or not np.isfinite(beta).all():
            raise ValueError(f"init must be {p + 1} finite coefficients")

    def objective(b):
        return (smooth_objective(b, X1, y, params.lambda2, pen_mask)
                + float(l1 @ np.abs(b)))

    converged = False
    it = 0
    for it in range(max_iter + 1):
        grad = smooth_gradient(beta, X1, y, params.lambda2, pen_mask)
        if _kkt_residual(beta, grad, l1) <= tol:
            converged = finite
            break
        if it == max_iter:
            break
        prob = expit(X1 @ beta)
        hess = (X1.T * (prob * (1.0 - prob))) @ X1 + np.diag(2.0 * l2)
        d = _newton_step(hess, grad, beta, l1)
        obj = objective(beta)
        decrease = grad @ d + l1 @ (np.abs(beta + d) - np.abs(beta))
        slack = _ROUNDING * (1.0 + abs(obj))
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            if (objective(beta + t * d)
                    <= obj + _ARMIJO * t * decrease + slack):
                break
            t *= 0.5
        else:
            break   # no step lowers the objective: stalled short of tol
        beta = beta + t * d
    return ElasticNetModel(beta=beta, converged=converged, n_iter=it,
                           single_class_warning=single_class)


def predict_proba(beta, X) -> np.ndarray:
    """Sigmoid of intercept `beta[0]` + X @ `beta[1:]`; outputs strictly
    inside (0, 1).

    `beta` is one coefficient vector, or a (K, width + 1) matrix of K of
    them, which gives K rows of outputs. The dot product adds the terms left
    to right, row by row, so a row scored alone, or by one vector of the
    matrix, gets the same bits as in a batch.
    """
    beta = np.asarray(beta, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != beta.shape[-1] - 1:
        raise ValueError(
            f"X must have {beta.shape[-1] - 1} columns, got shape {X.shape}")
    terms = np.empty(beta.shape[:-1] + (X.shape[0], X.shape[1] + 1))
    terms[..., 0] = beta[..., :1]
    np.multiply(X, beta[..., None, 1:], out=terms[..., 1:])
    p = expit(np.cumsum(terms, axis=-1)[..., -1])
    tiny = np.finfo(float).tiny
    return np.clip(p, tiny, np.nextafter(1.0, 0.0))
