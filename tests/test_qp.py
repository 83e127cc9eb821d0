import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmpc import estimator, qlpv, qp, tmpc
from dualmpc.errors import ConfigurationError
from dualmpc.polytope import Hpoly, box_template
from conftest import random_model
from oracles import qp_active_set_oracle


def solve_simple(H, g, A_in=None, b_in=None, **kw):
    return qp.solve(qp.QpProblem.build(H, g, A_in, b_in), **kw)


def test_single_active_constraint_clips_optimum():
    sol = solve_simple([[2.0]], [-4.0], A_in=[[1.0]], b_in=[1.0])
    assert sol.status == qp.QpStatus.OPTIMAL
    assert sol.x == pytest.approx([1.0], abs=1e-8)


def test_separable_projection_onto_corner():
    sol = solve_simple(np.eye(2), np.zeros(2),
                       A_in=-np.eye(2), b_in=[-1.0, -1.0])
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-8)


def test_problem_without_rows_rejected():
    with pytest.raises(ConfigurationError, match="without rows"):
        solve_simple(np.diag([2.0, 4.0]), np.array([-2.0, -8.0]))


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
def test_tolerance_not_positive_rejected(tol):
    with pytest.raises(ConfigurationError, match="tol must be positive"):
        solve_simple([[2.0]], [-4.0], A_in=[[1.0]], b_in=[1.0], tol=tol)


def test_ratio_test_skips_an_exact_zero_at_rest():
    # A (slack, dual) entry exactly at 0 that does not move reads 0/0 in the
    # ratio test; it must not hide the entry that does bound the step.
    wl = np.array([0.0, 1.0, 2.0])
    dwl = np.array([0.0, -4.0, 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert qp._step_divisor(dwl, wl) == 4.0
        assert qp._step_divisor(np.zeros(3), wl) == 1.0
        assert np.all(wl + dwl / qp._step_divisor(dwl, wl) >= 0.0)


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
    # The solution meets the KKT test, so it is accepted without iterating,
    # and the test alone makes it feasible to tol (1e-8).
    assert resolved.status == qp.QpStatus.OPTIMAL
    assert resolved.iterations == 0
    assert np.array_equal(resolved.x, sol.x)
    assert (A @ resolved.x - b).max() <= 1e-8


def test_warm_start_of_wrong_size_rejected(rng):
    # A solution of another problem is refused, duals or not, like a bare
    # vector of the wrong length; it is never dropped for a cold start.
    H, g, A, b = random_strictly_convex(rng, 4, 8)
    sol = qp.solve(qp.QpProblem.build(H, g, A, b))
    fewer_rows = qp.QpProblem.build(H, g, A[:6], b[:6])
    fewer_vars = qp.QpProblem.build(H[:3, :3], g[:3], A[:, :3], b)
    for prob, warm in ((fewer_rows, sol), (fewer_vars, sol), (fewer_vars, sol.x)):
        with pytest.raises(ConfigurationError, match="wrong dimension"):
            qp.solve(prob, warm_start=warm)


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


def test_iteration_count_does_not_grow_with_cost_scale(rng):
    # The duals start at the cost's gradient at the start point, so scaling
    # (H, g) scales every dual iterate with it and leaves the primal path.
    for _ in range(30):
        H, g, A, b = random_strictly_convex(rng, 3, 5)
        ref = solve_simple(H, g, A_in=A, b_in=b, tol=1e-10)
        for scale in (1e2, 1e4, 1e6):
            sol = solve_simple(scale * H, scale * g, A_in=A, b_in=b, tol=1e-10)
            assert sol.status == qp.QpStatus.OPTIMAL
            assert abs(sol.iterations - ref.iterations) <= 2


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 6),
       log_scale=st.floats(-3.0, 6.0))
def test_solution_matches_active_set_oracle(seed, n, m, log_scale):
    rng = np.random.default_rng(seed)
    H, g, A, b = random_strictly_convex(rng, n, m)
    scale, tol = 10.0 ** log_scale, 1e-10
    sol = solve_simple(scale * H, scale * g, A_in=A, b_in=b, tol=tol)
    x_ref, _ = qp_active_set_oracle(H, g, A, b)
    assert sol.status == qp.QpStatus.OPTIMAL
    assert np.abs(sol.x - x_ref).max() <= 1e-6
    assert (A @ sol.x - b).max() <= tol


def test_optimal_point_is_feasible_in_absolute_terms(rng):
    # Primal infeasibility is not scaled: a large cost must not buy slack.
    for scale in (1.0, 1e3, 1e6):
        for _ in range(10):
            H, g, A, b = random_strictly_convex(rng, 4, 8)
            sol = solve_simple(scale * H, scale * g, A_in=A, b_in=b, tol=1e-9)
            assert sol.status == qp.QpStatus.OPTIMAL
            assert (A @ sol.x <= b + 1e-9).all()


def test_tolerance_below_machine_precision_returns_status_without_warnings(rng):
    H, g, A, b = random_strictly_convex(rng, 6, 10)
    scale = 4e6 / np.abs(H).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_simple(scale * H, scale * g, A_in=A, b_in=b, tol=1e-16)
    assert sol.status in (qp.QpStatus.MAX_ITER, qp.QpStatus.INFEASIBLE)
    assert np.isfinite(sol.x).all()
    assert (A @ sol.x <= b + 1e-12).all()


def test_negative_affine_complementarity_returns_status():
    # A projection over 13 columns, posed in displacement coordinates
    # (g = 0, rows b - A x0).  Once mu < 1e-16 the step rule steps onto the
    # boundary and leaves an exact zero in the (slack, dual) vector; 0/0 in
    # the next ratio test lets the predictor take a full step, and at
    # iteration 11 mu_aff / mu reads -1.3e121, whose cube overflows a Python
    # float.  The path needs the roundoff of the double-precision OpenBLAS
    # (Haswell kernels) it was recorded with: one ulp more or less in the
    # data avoids it, and elsewhere the test checks only the status.
    data = json.loads((Path(__file__).parent / "data" / "qp_sigma_overflow.json").read_text())
    H = np.array(data["H"])
    prob = qp.QpProblem.build(H, np.zeros(len(H)), data["A_in"], data["b_in"])
    sol = qp.solve(prob, tol=data["tol"])
    assert isinstance(sol.status, qp.QpStatus)
    assert np.isfinite(sol.x).all()


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


def scaled_kkt_residual(prob, x, lam):
    """The module docstring's KKT residual, written out: absolute primal
    infeasibility, and stationarity and complementarity over
    max(1, |Hx|, |g|, |A' lam|)."""
    Hx, Al, r_in = prob.H @ x, prob.A_in.T @ lam, prob.A_in @ x - prob.b_in
    scale = max(1.0, *(np.abs(v).max() for v in (Hx, prob.g, Al)))
    comp = max(np.abs(lam * r_in).max(), -min(lam.min(), 0.0))
    return max(max(r_in.max(), 0.0), np.abs(Hx + prob.g + Al).max() / scale, comp / scale)


RECORDED = json.loads((Path(__file__).parent / "data" / "qp_recorded_seed11.json").read_text())


@pytest.mark.parametrize("rec", RECORDED, ids=[r["name"] for r in RECORDED])
def test_recorded_problem_keeps_its_iterations(rec):
    # Seed-11 bench problems: a tube QP whose warm start (the shifted plan
    # with the last duals) fails the KKT test, and a projection started at
    # the point it projects, from dual_track and from twomass_track, with
    # the status, iteration count and objective of the LU-factored solver
    # they were recorded with.  Each ends with its KKT residual at least a
    # factor 1.9 from tol on both sides of the last iteration, so rounding
    # does not move the count.  x is not compared: the tube QP's optimal
    # face is not a point, and x moves by up to 4e-9 under rounding.
    prob = qp.QpProblem.build(rec["H"], rec["g"], rec["A_in"], rec["b_in"], check_psd=False)
    warm = np.array(rec["warm_x"])
    if rec["warm_duals"] is not None:
        warm = qp.QpSolution(warm, np.array(rec["warm_duals"]), float("nan"),
                             qp.QpStatus.OPTIMAL, 0)
    sol = qp.solve(prob, tol=rec["tol"], warm_start=warm)
    assert sol.status.value == rec["status"]
    assert sol.iterations == rec["iterations"] > 0
    assert prob.objective(sol.x) == pytest.approx(rec["objective"], rel=1e-12)
    assert scaled_kkt_residual(prob, sol.x, sol.ineq_duals) <= rec["tol"]


# Finding H: the twomass_track tube QP at seed 14, episode 4, step 177 (two
# steps after a reference switch), with the shifted plan and duals of the
# step before as its warm start.  Near the solution the slacks of some rows
# reach ~3e-17 while their duals stay ~8, the Cholesky factorization fails,
# and the solve ends MAX_ITER after 13 iterations with KKT residual 1.05e-8
# against tol 1e-8, and the bench loop ends the episode.
(FINDING_H,) = json.loads(
    (Path(__file__).parent / "data" / "qp_tube_twomass_seed14.json").read_text())


def finding_h():
    """(problem, warm start, tol) of the recorded Finding H tube QP."""
    rec = FINDING_H
    prob = qp.QpProblem.build(rec["H"], rec["g"], rec["A_in"], rec["b_in"], check_psd=False)
    warm = qp.QpSolution(np.array(rec["warm_x"]), np.array(rec["warm_duals"]), float("nan"),
                         qp.QpStatus.OPTIMAL, 0)
    return prob, warm, rec["tol"]


def test_finding_h_warm_start_is_feasible():
    # Recursive feasibility: the shifted plan meets every row of the next QP.
    prob, warm, _ = finding_h()
    assert (prob.A_in @ warm.x - prob.b_in).max() <= 1e-11


def test_finding_h_returned_point_is_feasible(monkeypatch):
    # The solve stops at its first failed factorization, the last one it
    # makes, and returns the point of the smallest KKT residual it saw.
    prob, warm, tol = finding_h()
    dpotrf, residual = qp.lapack.dpotrf, qp._kkt_residual
    infos, kkts = [], []
    monkeypatch.setattr(qp.lapack, "dpotrf",
                        lambda K, **kw: (lambda out: (infos.append(out[1]), out)[1])(dpotrf(K, **kw)))
    monkeypatch.setattr(qp, "_kkt_residual",
                        lambda *a: (lambda out: (kkts.append(out[0]), out)[1])(residual(*a)))
    sol = qp.solve(prob, tol=tol, warm_start=warm)
    assert infos[-1] != 0 and not any(infos[:-1])
    assert sol.iterations == len(infos)
    assert sol.kkt_residual == min(kkts)
    assert (prob.A_in @ sol.x - prob.b_in).max() <= tol


@pytest.mark.xfail(strict=True, reason="Finding H: stationarity stalls at 1.05e-8 against "
                   "tol 1e-8 once the Newton matrix cannot be factored")
def test_finding_h_tube_qp_solves_to_optimal():
    prob, warm, tol = finding_h()
    assert qp.solve(prob, tol=tol, warm_start=warm).status == qp.QpStatus.OPTIMAL


@pytest.mark.parametrize("fail_from", [None, 3], ids=["non_finite_matrix", "factorization_failure"])
def test_non_finite_newton_matrix_ends_with_the_best_point(monkeypatch, fail_from):
    # A cost of norm 1e305 with its minimiser x = 2 outside x <= 1: as the
    # slack closes, d = lam / w grows until K = H + A'DA overflows at the
    # fourth iteration.  That K never reaches the factorization; the solve
    # ends at the iteration that formed it, with the best point seen.  A
    # factorization that reports failure, here from its third call on, ends
    # the solve the same way at the iteration that made it.
    prob = qp.QpProblem.build([[1e305]], [-2e305], [[1.0]], [1.0])
    dpotrf, residual = qp.lapack.dpotrf, qp._kkt_residual
    finite, kkts = [], []

    def factor(K, **kw):
        finite.append(np.isfinite(K).all())
        if fail_from is not None and len(finite) >= fail_from:
            return np.full_like(K, np.nan), 1
        return dpotrf(K, **kw)

    monkeypatch.setattr(qp.lapack, "dpotrf", factor)
    monkeypatch.setattr(qp, "_kkt_residual",
                        lambda *a: (lambda out: (kkts.append(out[0]), out)[1])(residual(*a)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = qp.solve(prob, tol=1e-16)
    # A non-finite K ends its iteration before the factorization, a failed
    # factorization after it.
    assert all(finite) and sol.iterations == len(finite) + (fail_from is None) == len(kkts) > 1
    assert fail_from in (None, len(finite))
    assert sol.status == (qp.QpStatus.INFEASIBLE if sol.primal_infeasibility > 1e-16
                          else qp.QpStatus.MAX_ITER)
    assert sol.kkt_residual == min(kkts)
    assert np.isfinite(sol.x).all() and sol.x[0] <= 1.0


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
    assert poly.violation(corr.zeta) <= 1e-10
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
        # min (x-x0)'P^-1(x-x0) with P=diag(1,0.25) onto x1+x2<=2:
        # stationarity gives x = x0 - P a mu/2 with mu fixed by the active row.
        P = np.diag([1.0, 0.25])
        x0 = np.array([2.0, 2.0])
        a = np.array([1.0, 1.0])
        mu = (a @ x0 - 2.0) / (0.5 * a @ P @ a)
        x_ref = x0 - 0.5 * P @ a * mu
        sol = qp.project_weighted(x0, P, A_in=a[None, :], b_in=np.array([2.0]))
        assert sol.x == pytest.approx(x_ref, abs=1e-8)

    def test_metric_is_the_inverse_covariance(self, rng):
        # The projection under P is the projection in the metric P^-1.
        for n in (1, 2, 5, 44):
            L = rng.normal(size=(n, n))
            P = L @ L.T + 1e-2 * np.eye(n)
            x0 = rng.normal(size=n)
            A = rng.normal(size=(3, n))
            b = A @ (x0 - 2.0 * rng.normal(size=n)) + rng.uniform(0.1, 1.0, size=3)
            assert (A @ x0 > b).any()
            sol = qp.project_weighted(x0, P, A_in=A, b_in=b, tol=1e-10)
            M = np.linalg.inv(P)
            x_ref, _ = qp_active_set_oracle(2.0 * M, -2.0 * M @ x0, A, b)
            assert sol.status == qp.QpStatus.OPTIMAL
            assert np.abs(sol.x - x_ref).max() <= 1e-6
            assert sol.value == pytest.approx((sol.x - x0) @ M @ (sol.x - x0), rel=1e-9)

    def test_singular_covariance_takes_the_ridge(self, monkeypatch):
        # A singular P fails its first factorization and factors with the
        # ridge 1e-10 max(1, |P|_max) I; projecting 2 onto the box [-1, 1]^n
        # is then finite and OPTIMAL.  The zero matrix gives M = 1e10 I.
        L = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1], [1, 0, 1], [0, 1, 0]], float)
        dpotrf, infos = qp.lapack.dpotrf, []
        monkeypatch.setattr(qp.lapack, "dpotrf",
                            lambda K, **kw: (lambda out: (infos.append(out[1]), out)[1])(dpotrf(K, **kw)))
        for P in (np.ones((2, 2)), L @ L.T, np.zeros((3, 3))):
            n = len(P)
            x0 = np.full(n, 2.0)
            infos.clear()
            sol = qp.project_weighted(x0, P, A_in=np.vstack([np.eye(n), -np.eye(n)]),
                                      b_in=np.ones(2 * n))
            assert infos[0] > 0 and infos[1] == 0
            assert sol.status == qp.QpStatus.OPTIMAL
            assert np.isfinite(sol.x).all() and np.isfinite(sol.value)
        assert sol.value == pytest.approx(1e10 * ((sol.x - x0) ** 2).sum(), rel=1e-12)

    def test_nearly_settled_rows_solve_from_the_projected_point(self):
        # Rows of norm ~1e-10, as a nearly settled tube plan gives the
        # estimator, hold at x0 by 1e-13 to 1e-11; only the last row is violated,
        # and x[3] alone moves, to 0.2 / 0.7.  Started at 0 with its duals at
        # |2 M x0| ~ 2e4, M = P^-1, the iteration ran all 500 iterations into
        # MAX_ITER with duals up to 1.4e9.
        x0 = np.array([0.95, -0.0249, 0.553, 0.0, -0.16])
        P = np.diag(1.0 / np.array([1e4, 1e4, 1.4e4, 1e4, 3e4]))
        A = np.array([[-2e-10, 0.0, 0.0, 0.0, 0.0],
                      [2e-10, 0.0, 0.0, 0.0, 0.0],
                      [0.0, -1.86e-10, -3.6e-12, 0.0, 2.4e-11],
                      [0.0, 0.47, 0.1235, 0.0, 0.073],
                      [0.0, 0.0, 0.0, -0.7, 0.0]])
        b = np.array([-1.8e-10, 2e-10, -1.1e-12, 0.0453, -0.2])
        sol = qp.project_weighted(x0, P, A_in=A, b_in=b, tol=1e-10)
        assert sol.status == qp.QpStatus.OPTIMAL
        x_ref = x0.copy()
        x_ref[3] = 2.0 / 7.0
        assert np.abs(sol.x - x_ref).max() <= 1e-9
        assert sol.value == pytest.approx(1e4 * x_ref[3] ** 2, rel=1e-9)

    def test_no_inequality_rows_returns_start(self):
        sol = qp.project_weighted(np.array([0.2, 0.1]), np.eye(2),
                                  A_in=np.zeros((0, 2)), b_in=np.zeros(0))
        assert sol.status == qp.QpStatus.OPTIMAL
        assert sol.x.tolist() == [0.2, 0.1]
        assert sol.value == 0.0

    def test_empty_polyhedron_reports_infeasible(self):
        sol = qp.project_weighted(np.zeros(1), np.eye(1),
                                  A_in=np.array([[1.0], [-1.0]]),
                                  b_in=np.array([-1.0, -1.0]))
        assert sol.status == qp.QpStatus.INFEASIBLE

    def test_indefinite_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="covariance"):
            qp.project_weighted(np.zeros(2), np.diag([1.0, -1.0]),
                                A_in=np.eye(2), b_in=np.ones(2))
