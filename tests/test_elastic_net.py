"""Elastic-net layer-2 tests against a scipy reference optimizer and the
coordinate-descent oracle of tests/_oracles.py."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from _oracles import elastic_net_cd_oracle, elastic_net_objective_oracle
from cbforest.elastic_net import (ElasticNetParams, fit_elastic_net,
                                  predict_proba, smooth_gradient,
                                  smooth_objective)

SIGMOID_2 = 0.8807970779778823


def logistic_nll(beta, X1, y):
    z = X1 @ beta
    return float(np.logaddexp(0.0, z).sum() - (y * z).sum())


def make_problem(seed, n=200, p=3):
    g = np.random.default_rng(seed)
    X = g.random((n, p))
    z = -1.5 + 2.0 * X[:, 0] - X[:, 1]
    y = (g.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    if y.sum() == 0:
        y[0] = 1.0
    if y.sum() == n:
        y[0] = 0.0
    return X, y


def kkt_residual_of(beta, X, y, lambda1, lambda2):
    """Largest minimum-norm subgradient of the objective at beta, from its
    definition: |derivative + lambda1 * sign| at a nonzero penalized
    coefficient, max(|derivative| - lambda1, 0) at a zero one."""
    X1 = np.hstack([np.ones((len(y), 1)), X])
    pen = np.ones(X1.shape[1])
    pen[0] = 0.0
    z = X1 @ beta
    grad = X1.T @ (1.0 / (1.0 + np.exp(-z)) - y) + 2.0 * lambda2 * pen * beta
    res = []
    for j in range(len(beta)):
        l1 = lambda1 * pen[j]
        if beta[j] != 0:
            res.append(abs(grad[j] + l1 * math.copysign(1.0, beta[j])))
        else:
            res.append(max(abs(grad[j]) - l1, 0.0))
    return max(res)


# --------------------------------------------------------------- fitting

def test_intercept_only_balanced_labels():
    X = np.empty((10, 0))
    y = np.array([1, 0] * 5, dtype=float)
    m = fit_elastic_net(X, y, ElasticNetParams())
    assert m.beta[0] == pytest.approx(0.0, abs=1e-7)
    assert predict_proba(m.beta, X) == pytest.approx(np.full(10, 0.5), abs=1e-7)


def test_huge_l1_zeroes_coefficient_intercept_free():
    X, y = make_problem(1)
    m = fit_elastic_net(X, y, ElasticNetParams(lambda1=1e6), tol=1e-6)
    assert np.array_equal(m.beta[1:], np.zeros(X.shape[1]))
    base = y.mean()
    assert m.beta[0] == pytest.approx(math.log(base / (1 - base)), abs=1e-4)


def test_unregularized_matches_reference_optimizer():
    g = np.random.default_rng(3)
    X = g.random((20, 2))
    y = (g.random(20) < 0.5).astype(float)
    y[0], y[1] = 1.0, 0.0
    m = fit_elastic_net(X, y, ElasticNetParams(), tol=1e-10)
    X1 = np.hstack([np.ones((20, 1)), X])
    grad = smooth_gradient(m.beta, X1, y, 0.0, np.zeros(3))
    assert np.linalg.norm(grad) <= 1e-4
    ref = minimize(logistic_nll, np.zeros(3), args=(X1, y), method="BFGS")
    assert logistic_nll(m.beta, X1, y) <= ref.fun + 1e-6


def test_regularized_objective_matches_reference():
    X, y = make_problem(4)
    lam1, lam2 = 1e-3, 1e-2
    params = ElasticNetParams(lambda1=lam1, lambda2=lam2)
    m = fit_elastic_net(X, y, params, tol=1e-10)
    X1 = np.hstack([np.ones((len(y), 1)), X])
    pen = np.ones(X.shape[1] + 1)
    pen[0] = 0.0

    def objective(b):
        return (logistic_nll(b, X1, y) + lam2 * float((pen * b * b).sum())
                + lam1 * float((pen * np.abs(b)).sum()))

    ref = minimize(objective, np.zeros(X.shape[1] + 1), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
    assert objective(m.beta) <= ref.fun + 1e-6


def test_lambda2_shrinks_coefficient_norm_monotonically():
    X, y = make_problem(6)
    norms = []
    for lam2 in (0.0, 0.1, 1.0, 10.0, 100.0):
        m = fit_elastic_net(X, y, ElasticNetParams(lambda2=lam2), tol=1e-7)
        norms.append(float(np.linalg.norm(m.beta[1:])))
    assert all(b <= a + 1e-5 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0]


def test_converges_across_penalty_grid():
    # a converged fit has its KKT residual within tol, in few iterations
    X, y = make_problem(7, n=500)
    # a near-copy of column 0 makes small penalties ill-conditioned
    X = np.column_stack([X, X[:, 0] + 1e-3 * X[:, 1]])
    for lam1 in (0.0, 1e-6, 1e-3, 1.0, 30.0):
        for lam2 in (0.0, 1e-6, 1e-2, 10.0):
            for tol in (1e-6, 1e-9):
                m = fit_elastic_net(X, y, ElasticNetParams(
                    lambda1=lam1, lambda2=lam2), tol=tol)
                case = f"lambda1={lam1} lambda2={lam2} tol={tol}"
                assert m.converged, case
                assert m.n_iter <= 50, case
                assert kkt_residual_of(m.beta, X, y, lam1, lam2) <= tol, case


# (seed, near-collinear, lambda1, lambda2, the oracles' penalize_intercept:
# False, as the fit never penalizes the intercept)
ORACLE_CASES = [
    (0, False, 1e-3, 1e-3, False),
    (1, True, 1e-4, 1e-6, False),     # correlation 0.98, lambda2 tiny
    (2, True, 0.0, 1e-5, False),
    (3, False, 4.0, 1e-3, False),     # lambda1 zeroes coefficients
    (4, False, 1e-2, 1e-2, False),
    (5, True, 0.5, 1e-6, False),
]


@pytest.mark.parametrize("seed,collinear,lam1,lam2,pen_icpt", ORACLE_CASES)
def test_objective_matches_coordinate_descent_oracle(seed, collinear, lam1,
                                                     lam2, pen_icpt):
    g = np.random.default_rng(seed)
    n = 40
    X = g.random((n, 3))
    if collinear:
        X[:, 1] = 0.8 * X[:, 0] + 0.2 * g.random(n)
    z = -0.5 + 2.0 * X[:, 0] - X[:, 2]
    y = (g.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    m = fit_elastic_net(X, y, ElasticNetParams(lambda1=lam1, lambda2=lam2),
                        tol=1e-9)
    assert m.converged
    ref = elastic_net_cd_oracle(X, y, lam1, lam2, pen_icpt)
    f_fit = elastic_net_objective_oracle(m.beta, X, y, lam1, lam2, pen_icpt)
    f_ref = elastic_net_objective_oracle(ref, X, y, lam1, lam2, pen_icpt)
    assert abs(f_fit - f_ref) <= 1e-8 * abs(f_ref)
    assert np.array_equal(m.beta == 0, ref == 0)
    if lam1 >= 1.0:
        assert (m.beta[1:] == 0).any()


def test_max_iter_bounds_the_iterations():
    X, y = make_problem(13)
    m = fit_elastic_net(X, y, ElasticNetParams(lambda1=1e-3, lambda2=1e-3),
                        max_iter=1)
    assert not m.converged
    assert m.n_iter == 1


def test_warm_start_reaches_the_same_optimum():
    X, y = make_problem(14)
    params = ElasticNetParams(lambda1=1e-2, lambda2=1e-3)
    cold = fit_elastic_net(X, y, params, tol=1e-10)
    again = fit_elastic_net(X, y, params, init=cold.beta, tol=1e-10)
    assert again.converged and again.n_iter == 0
    assert np.array_equal(again.beta, cold.beta)
    far = fit_elastic_net(X, y, params, init=np.array([5.0, -3.0, 0.0, 7.0]),
                          tol=1e-10)
    assert far.converged
    assert np.allclose(far.beta, cold.beta, rtol=0, atol=1e-8)
    with pytest.raises(ValueError):
        fit_elastic_net(X, y, params, init=np.zeros(3), tol=1e-10)


def test_single_class_warning_flag():
    X = np.random.default_rng(8).random((12, 2))
    m = fit_elastic_net(X, np.ones(12), ElasticNetParams(), tol=1e-6)
    assert m.single_class_warning
    # the unpenalized intercept has no finite optimum
    assert not m.converged
    # the intercept still pushes probabilities toward the base rate of 1
    assert predict_proba(m.beta, X).min() > 0.5


def test_duplicate_columns_without_penalty_converge():
    # the Hessian is singular: each Newton step is the least-norm one
    X, y = make_problem(15)
    X = np.column_stack([X, X[:, 0]])
    m = fit_elastic_net(X, y, ElasticNetParams(), tol=1e-9)
    assert m.converged
    assert kkt_residual_of(m.beta, X, y, 0.0, 0.0) <= 1e-9
    assert m.beta[1] == pytest.approx(m.beta[4], rel=1e-9)


def test_separable_rows_without_penalty_report_no_optimum():
    X = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
    y = np.array([0, 0, 0, 1, 1, 1], dtype=float)
    assert not fit_elastic_net(X, y, ElasticNetParams()).converged
    # a penalty on the slope restores the optimum
    assert fit_elastic_net(X, y, ElasticNetParams(lambda2=1e-3)).converged
    # overlapping classes have one without any penalty
    y_mixed = np.array([0, 1, 0, 1, 0, 1], dtype=float)
    assert fit_elastic_net(X, y_mixed, ElasticNetParams()).converged


def test_non_finite_input_rejected():
    X = np.array([[1.0], [np.inf]])
    with pytest.raises(ValueError):
        fit_elastic_net(X, np.array([1.0, 0.0]), ElasticNetParams())


def test_params_validation():
    with pytest.raises(ValueError):
        ElasticNetParams(lambda1=-1.0)
    X, y = make_problem(16)
    with pytest.raises(ValueError, match="max_iter"):
        fit_elastic_net(X, y, ElasticNetParams(), max_iter=0)
    for tol in (0.0, -1e-6, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol"):
            fit_elastic_net(X, y, ElasticNetParams(), tol=tol)


# --------------------------------------------------------- smooth parts

def test_smooth_gradient_matches_finite_differences():
    g = np.random.default_rng(9)
    X1 = np.hstack([np.ones((30, 1)), g.random((30, 2))])
    y = (g.random(30) < 0.5).astype(float)
    pen = np.array([0.0, 1.0, 1.0])
    for _ in range(100):
        beta = g.normal(size=3)
        grad = smooth_gradient(beta, X1, y, 0.3, pen)
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1e-6
            fd = (smooth_objective(beta + e, X1, y, 0.3, pen)
                  - smooth_objective(beta - e, X1, y, 0.3, pen)) / 2e-6
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)


# ------------------------------------------------------------ prediction

def test_predict_proba_zero_beta():
    beta = np.zeros(3)
    X = np.random.default_rng(10).random((5, 2))
    assert np.array_equal(predict_proba(beta, X), np.full(5, 0.5))


def test_predict_proba_zero_feature():
    beta = np.array([0.0, 1.0])
    assert predict_proba(beta, np.array([[0.0]]))[0] == 0.5


def test_predict_proba_frozen_value():
    beta = np.array([1.0, 2.0])
    assert predict_proba(beta, np.array([[0.5]]))[0] == pytest.approx(
        SIGMOID_2, abs=1e-12)


def test_predict_proba_strictly_inside_unit_interval():
    beta = np.array([0.0, 1000.0])
    p = predict_proba(beta, np.array([[-10.0], [10.0]]))
    assert 0.0 < p[0] and p[1] < 1.0


def test_predict_proba_dimension_mismatch():
    beta = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        predict_proba(beta, np.zeros((2, 3)))


@pytest.mark.parametrize("n", [1, 257])
def test_predict_proba_of_a_beta_matrix_equals_each_vector(n):
    g = np.random.default_rng(13)
    betas = g.normal(size=(3, 6))
    X = g.random((n, 5))
    p = predict_proba(betas, X)
    assert p.shape == (3, n)
    for k in range(3):
        assert p[k].tobytes() == predict_proba(betas[k], X).tobytes()
    with pytest.raises(ValueError):
        predict_proba(betas, X[:, 1:])


def test_calibration_map_preserves_ordering_with_positive_coefficient():
    # single informative column positively associated with the label
    g = np.random.default_rng(12)
    y = (g.random(300) < 0.3).astype(float)
    X = np.clip(0.1 + 0.8 * y + g.normal(0, 0.05, 300), 0.0, 1.0).reshape(-1, 1)
    m = fit_elastic_net(X, y, ElasticNetParams(), tol=1e-6)
    assert m.beta[1] > 0
    p = predict_proba(m.beta, X)
    assert np.array_equal(np.argsort(p, kind="stable"),
                          np.argsort(X[:, 0], kind="stable"))
