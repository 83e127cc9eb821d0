import warnings

import numpy as np
import pytest

from dualmpc import estimator, qlpv, qp, tmpc
from dualmpc.errors import ConfigurationError
from dualmpc.polytope import Hpoly, box_template
from conftest import random_model
from oracles import qp_active_set_oracle


def solve_simple(H, g, A_in=None, b_in=None, A_eq=None, b_eq=None, **kw):
    return qp.solve(qp.QpProblem.build(H, g, A_in, b_in, A_eq, b_eq), **kw)


def test_single_active_constraint_clips_optimum():
    sol = solve_simple([[2.0]], [-4.0], A_in=[[1.0]], b_in=[1.0])
    assert sol.status == qp.QpStatus.OPTIMAL
    assert sol.x == pytest.approx([1.0], abs=1e-8)


def test_separable_projection_onto_corner():
    sol = solve_simple(np.eye(2), np.zeros(2),
                       A_in=-np.eye(2), b_in=[-1.0, -1.0])
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-8)


def test_unconstrained_reduces_to_linear_solve():
    H = np.diag([2.0, 4.0])
    g = np.array([-2.0, -8.0])
    sol = solve_simple(H, g)
    assert sol.x == pytest.approx([1.0, 2.0], abs=1e-10)


def test_equality_only_kkt():
    sol = solve_simple(np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[2.0])
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-10)


def random_strictly_convex(rng, n, m):
    L = rng.normal(size=(n, n))
    H = L @ L.T + (0.1 + rng.random()) * np.eye(n)
    g = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    # Keep a known interior point so the instance is feasible.
    x_feas = rng.normal(size=n)
    b = A @ x_feas + rng.uniform(0.1, 1.0, size=m)
    return H, g, A, b


def test_matches_active_set_enumeration_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 11))
        H, g, A, b = random_strictly_convex(rng, n, m)
        sol = solve_simple(H, g, A_in=A, b_in=b)
        x_ref, _ = qp_active_set_oracle(H, g, A, b)
        assert sol.status == qp.QpStatus.OPTIMAL
        assert sol.kkt_residual <= 1e-8
        assert np.abs(sol.x - x_ref).max() <= 1e-6


def test_complementary_slackness_and_dual_signs(rng):
    for _ in range(20):
        H, g, A, b = random_strictly_convex(rng, 4, 6)
        sol = solve_simple(H, g, A_in=A, b_in=b, tol=1e-9)
        slack = A @ sol.x - b
        assert (sol.ineq_duals >= -1e-9).all()
        assert np.abs(sol.ineq_duals * slack).max() <= 1e-8


def test_objective_scaling_leaves_argmin_unchanged(rng):
    H, g, A, b = random_strictly_convex(rng, 3, 5)
    sol1 = solve_simple(H, g, A_in=A, b_in=b)
    sol2 = solve_simple(7.5 * H, 7.5 * g, A_in=A, b_in=b)
    assert np.abs(sol1.x - sol2.x).max() <= 1e-7


def test_warm_start_resolve_is_immediate(rng):
    H, g, A, b = random_strictly_convex(rng, 4, 8)
    prob = qp.QpProblem.build(H, g, A, b)
    sol = qp.solve(prob)
    resolved = qp.solve(prob, warm_start=sol)
    assert resolved.status == qp.QpStatus.OPTIMAL
    assert resolved.iterations <= 2
    assert np.abs(resolved.x - sol.x).max() <= 1e-9


@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1e2, 1e4, 1e6])
def test_cost_scaling_keeps_status_argmin_and_iterations(rng, scale):
    # Stationarity and complementarity are measured relative to the cost, so
    # scaling (H, g) up leaves the argmin where it was.  Below scale 1 the
    # floor of the normaliser makes the rule absolute, so the argmin's error
    # may grow like tol / scale.
    tol = 1e-10
    for _ in range(5):
        H, g, A, b = random_strictly_convex(rng, 3, 5)
        ref = solve_simple(H, g, A_in=A, b_in=b, tol=tol)
        sol = solve_simple(scale * H, scale * g, A_in=A, b_in=b, tol=tol)
        assert sol.status == qp.QpStatus.OPTIMAL
        assert np.abs(sol.x - ref.x).max() <= 1e-7 * max(1.0, 1.0 / scale)
        assert abs(sol.iterations - ref.iterations) <= 8


def test_optimal_point_is_feasible_in_absolute_terms(rng):
    # Primal infeasibility is not scaled: a large cost must not buy slack.
    for scale in (1.0, 1e3, 1e6):
        for _ in range(10):
            H, g, A, b = random_strictly_convex(rng, 4, 8)
            A_eq = rng.normal(size=(1, 4))
            b_eq = A_eq @ qp_active_set_oracle(np.eye(4), np.zeros(4), A, b - 0.05)[0]
            sol = solve_simple(scale * H, scale * g, A_in=A, b_in=b,
                               A_eq=A_eq, b_eq=b_eq, tol=1e-9)
            assert sol.status == qp.QpStatus.OPTIMAL
            assert (A @ sol.x <= b + 1e-9).all()
            assert np.abs(A_eq @ sol.x - b_eq).max() <= 1e-9


def test_tolerance_below_machine_precision_returns_status_without_warnings(rng):
    H, g, A, b = random_strictly_convex(rng, 6, 10)
    scale = 4e6 / np.abs(H).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_simple(scale * H, scale * g, A_in=A, b_in=b, tol=1e-16)
    assert sol.status in (qp.QpStatus.MAX_ITER, qp.QpStatus.INFEASIBLE)
    assert np.isfinite(sol.x).all()
    assert (A @ sol.x <= b + 1e-12).all()


@pytest.mark.parametrize("norm", [1.0, 4e6])
def test_unconverged_solve_reports_iterations_run(rng, monkeypatch, norm):
    # The loop evaluates the KKT residual once per iteration; a solve that
    # ends without meeting tol reports that count, not the index of the best
    # iterate it returns.
    H, g, A, b = random_strictly_convex(rng, 6, 10)
    scale = norm / np.abs(H).max()
    calls = []
    residual = qp._kkt_residual
    monkeypatch.setattr(qp, "_kkt_residual", lambda *a: (calls.append(1), residual(*a))[1])
    sol = solve_simple(scale * H, scale * g, A_in=A, b_in=b, tol=1e-16)
    assert sol.status in (qp.QpStatus.MAX_ITER, qp.QpStatus.INFEASIBLE)
    assert sol.iterations == len(calls) > 0


def test_dual_loop_projection_converges(monkeypatch):
    # Closed loop on a random scheduled model: the true plant is the model
    # with perturbed parameters, the tube QP is warm-started and the
    # reference is 0.4.  The joint (x, theta) projection made at step 12 has
    # a cost of norm ~1e6.  With stationarity measured in absolute terms the
    # solver ran all 500 iterations on it into MAX_ITER, as it did on the
    # step-12 projection of the loop it drove itself, and the estimator fell
    # back to the previous theta.
    template, Y, eps_u = box_template(2, 1), Hpoly.box(0.8), np.ones(1)
    cfg = tmpc.ControllerConfig()
    model = random_model(np.random.default_rng(42), infnorm=0.6, gain=0.25)
    true = model.replace_theta(
        model.pack() + 0.002 * np.random.default_rng(1).normal(size=model.n_theta))
    noise = 0.01 * np.random.default_rng(0).normal(size=13)
    state = estimator.EstimatorState.from_model(model)
    x, warm = np.array([0.1, -0.05]), None
    projections = []

    def recording(*args, **kwargs):
        projections.append(project(*args, **kwargs))
        return projections[-1]

    project = qp.project_weighted
    monkeypatch.setattr(qp, "project_weighted", recording)
    for k in range(13):
        tube = tmpc.solve_tmpc(state.x_hat, state.model(), np.array([0.4]), cfg,
                               template, Y, eps_u, warm_start=warm)
        u = np.clip(tmpc.nominal_input(tube, state.x_hat, template)[0], -1.0, 1.0)
        x = qlpv.step(true, x, u)
        zeta_pred, P_pred = estimator.predict(state, u)
        poly = estimator.build_theta_polytope(tube, template, state.model(), cfg.beta,
                                              eps_u, cfg.gamma)
        projections.clear()
        corr = estimator.constrained_correct(state, zeta_pred, P_pred,
                                             qlpv.output(true, x) + noise[k], poly)
        state.zeta, state.P = corr.zeta, corr.P
        warm = tmpc.warm_start_vector(tube, cfg.gamma)

    (sol,) = projections
    assert sol.status == qp.QpStatus.OPTIMAL
    assert 0 < sol.iterations <= 60
    assert poly.violation(sol.x) <= 1e-10
    assert not corr.fallback


def test_infeasible_problem_detected():
    # x <= -1 and x >= 1 cannot both hold.
    sol = solve_simple([[2.0]], [0.0], A_in=[[1.0], [-1.0]], b_in=[-1.0, -1.0])
    assert sol.status == qp.QpStatus.INFEASIBLE
    assert sol.primal_infeasibility > 1e-8


def test_semidefinite_cost_accepted():
    H = np.diag([2.0, 0.0])
    sol = solve_simple(H, [-2.0, 1.0], A_in=[[0.0, -1.0]], b_in=[0.0])
    assert sol.status == qp.QpStatus.OPTIMAL
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-6)


def test_dimension_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        qp.QpProblem.build(np.eye(2), np.zeros(3))
    with pytest.raises(ConfigurationError):
        qp.QpProblem.build(np.eye(2), np.zeros(2), A_in=np.eye(2), b_in=np.zeros(3))


def test_indefinite_cost_rejected():
    with pytest.raises(ConfigurationError):
        qp.QpProblem.build([[1.0, 0.0], [0.0, -1.0]], np.zeros(2))


class TestProjectWeighted:
    def test_interior_point_returned_unchanged(self):
        sol = qp.project_weighted(np.array([0.2, 0.1]), np.eye(2),
                                  A_in=np.eye(2), b_in=np.ones(2))
        assert sol.x == pytest.approx([0.2, 0.1])
        assert sol.value == 0.0

    def test_euclidean_halfspace_projection(self):
        sol = qp.project_weighted(np.array([2.0, 0.0]), np.eye(2),
                                  A_in=np.array([[1.0, 0.0]]), b_in=np.array([1.0]))
        assert sol.x == pytest.approx([1.0, 0.0], abs=1e-8)

    def test_weighted_projection_matches_hand_kkt(self):
        # min (x-x0)'M(x-x0) with M=diag(1,4) onto x1+x2<=2: stationarity
        # gives x = x0 - M^{-1} a mu/2 with mu fixed by the active row.
        M = np.diag([1.0, 4.0])
        x0 = np.array([2.0, 2.0])
        a = np.array([1.0, 1.0])
        mu = (a @ x0 - 2.0) / (0.5 * a @ np.linalg.inv(M) @ a)
        x_ref = x0 - 0.5 * np.linalg.inv(M) @ a * mu
        sol = qp.project_weighted(x0, M, A_in=a[None, :], b_in=np.array([2.0]))
        assert sol.x == pytest.approx(x_ref, abs=1e-8)

    def test_empty_polyhedron_reports_infeasible(self):
        sol = qp.project_weighted(np.zeros(1), np.eye(1),
                                  A_in=np.array([[1.0], [-1.0]]),
                                  b_in=np.array([-1.0, -1.0]))
        assert sol.status == qp.QpStatus.INFEASIBLE

    def test_indefinite_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            qp.project_weighted(np.zeros(2), np.diag([1.0, -1.0]),
                                A_in=np.eye(2), b_in=np.ones(2))
