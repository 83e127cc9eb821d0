import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmpc import estimator, qlpv, qp, tmpc
from dualmpc.errors import ConfigurationError
from dualmpc.polytope import Hpoly, box_template
from conftest import interior_point_from, random_model, without_exact_start
from oracles import qp_active_set_oracle, scaled_kkt_residual


def solve_simple(H, g, A_in, b_in, **kw):
    return qp.solve(qp.QpProblem.build(H, g, A_in, b_in), **kw)


def failing_nnls(*args, **kwargs):
    """scipy's NNLS at its iteration limit."""
    raise RuntimeError("Maximum number of iterations reached.")


def kkt_points(monkeypatch):
    """The x of every later KKT test, in order: a start's test comes first,
    and each interior-point iteration tests its iterate once."""
    residual, points = qp._kkt_residual, []
    monkeypatch.setattr(qp, "_kkt_residual", lambda prob, x, lam: (
        points.append(x.copy()), residual(prob, x, lam))[1])
    return points


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
        solve_simple(np.diag([2.0, 4.0]), np.array([-2.0, -8.0]), np.zeros((0, 2)), np.zeros(0))


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


def test_warm_start_resolve_is_immediate(rng, interior_point):
    # The interior-point solution, whose KKT residual is near tol, meets the
    # KKT test, so qp.accept_warm_start takes it without iterating, and the
    # test alone makes it feasible to tol (1e-8).  It refuses the solution
    # of a moved problem.
    H, g, A, b = random_strictly_convex(rng, 4, 8)
    prob = qp.QpProblem.build(H, g, A, b)
    sol = qp.solve(prob)
    accepted = qp.accept_warm_start(prob, sol.x, sol.ineq_duals)
    assert accepted.status == qp.QpStatus.OPTIMAL
    assert accepted.iterations == 0 and accepted.kkt_residual <= 1e-8
    assert accepted.x.tobytes() == sol.x.tobytes()
    assert (A @ accepted.x - b).max() <= 1e-8
    moved = qp.QpProblem.build(H, g + 0.1, A, b)
    assert qp.accept_warm_start(moved, sol.x, sol.ineq_duals) is None


def test_warm_start_of_wrong_size_rejected(rng):
    # A solution of another problem, with fewer rows or fewer variables, is
    # refused by the KKT test with an error, not read as a failed test.
    H, g, A, b = random_strictly_convex(rng, 4, 8)
    sol = qp.solve(qp.QpProblem.build(H, g, A, b))
    fewer_rows = qp.QpProblem.build(H, g, A[:6], b[:6])
    fewer_vars = qp.QpProblem.build(H[:3, :3], g[:3], A[:, :3], b)
    for prob in (fewer_rows, fewer_vars):
        with pytest.raises(ConfigurationError, match="wrong dimension"):
            qp.accept_warm_start(prob, sol.x, sol.ineq_duals)


@pytest.mark.parametrize("x, lam", [
    ([np.nan, 0.0], [1.0]), ([np.inf, 0.0], [1.0]),
    ([0.5, 0.0], [np.nan]), ([0.5, 0.0], [-np.inf]),
], ids=["x_nan", "x_inf", "lam_nan", "lam_minus_inf"])
def test_non_finite_warm_start_rejected(x, lam):
    # A non-finite point has a NaN KKT residual, which is not <= tol: the
    # test refuses it rather than reading it as met.
    prob = qp.QpProblem.build(np.diag([2.0, 1.0]), [-2.0, 0.0], [[1.0, 0.0]], [0.5])
    assert qp.accept_warm_start(prob, np.array(x), np.array(lam)) is None


@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1e2, 1e4, 1e6])
def test_cost_scaling_keeps_status_argmin_and_iterations(rng, interior_point, scale):
    # Stationarity and complementarity are measured relative to the cost, so
    # scaling (H, g) up leaves the argmin where it was and the iteration
    # its count.  Below scale 1 the floor of the normaliser makes the rule
    # absolute, so the argmin's error may grow like tol / scale.
    tol = 1e-10
    for _ in range(5):
        H, g, A, b = random_strictly_convex(rng, 3, 5)
        ref = solve_simple(H, g, A_in=A, b_in=b, tol=tol)
        sol = solve_simple(scale * H, scale * g, A_in=A, b_in=b, tol=tol)
        assert sol.status == qp.QpStatus.OPTIMAL
        assert np.abs(sol.x - ref.x).max() <= 1e-7 * max(1.0, 1.0 / scale)
        assert abs(sol.iterations - ref.iterations) <= 8


def test_iteration_count_does_not_grow_with_cost_scale(rng, interior_point):
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


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 8),
       nnls_fails=st.booleans())
def test_exact_start_is_the_interior_point_optimum(seed, n, m, nnls_fails):
    # Random strictly convex QPs, about 4 in 5 of them with rows violated at
    # the unconstrained minimiser.  An accepted exact start is feasible to
    # tol, and its cost is no more than the interior-point solution's, and
    # less by at most that solution's duality gap, m complementarity terms
    # of at most tol times the KKT test's scale each.  A least-distance
    # solve that fails leaves the problem to the iteration.
    rng, tol = np.random.default_rng(seed), 1e-9
    H, g, A, b = random_strictly_convex(rng, n, m)
    prob = qp.QpProblem.build(H, g, A, b)
    with pytest.MonkeyPatch.context() as mp:
        without_exact_start(mp)
        ipm = qp.solve(prob, tol=tol)
    with pytest.MonkeyPatch.context() as mp:
        if nnls_fails:
            mp.setattr(qp, "nnls", failing_nnls)
        sol = qp.solve(prob, tol=tol)
    assert ipm.status == sol.status == qp.QpStatus.OPTIMAL and ipm.iterations > 0
    if nnls_fails:
        assert (sol.iterations, sol.x.tobytes()) == (ipm.iterations, ipm.x.tobytes())
    else:
        assert sol.iterations == 0
        assert (A @ sol.x - b).max() <= tol
        f, f_ipm = prob.objective(sol.x), prob.objective(ipm.x)
        scale = max(1.0, *(np.abs(v).max() for v in (H @ ipm.x, g, A.T @ ipm.ineq_duals)))
        assert -tol * max(1.0, abs(f)) <= f_ipm - f <= m * tol * scale


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
def test_unconverged_solve_reports_iterations_run(rng, monkeypatch, interior_point, norm):
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


RECORDED = json.loads((Path(__file__).parent / "data" / "qp_recorded_seed11.json").read_text())


@pytest.mark.parametrize("rec", RECORDED, ids=[r["name"] for r in RECORDED])
def test_recorded_problem_keeps_its_iterations(rec, monkeypatch):
    # Seed-11 bench problems: a tube QP whose warm start (the shifted plan
    # with the last duals) fails the KKT test, and a projection started at
    # the point it projects, from dual_track and from twomass_track, with
    # the status, iteration count and objective of the LU-factored solver
    # they were recorded with.  Each ends with its KKT residual at least a
    # factor 1.9 from tol on both sides of the last iteration, so rounding
    # does not move the count.  x is not compared: the tube QP's optimal
    # face is not a point, and x moves by up to 4e-9 under rounding.  The
    # exact start is replaced by a rejected one at the recorded start's x,
    # from which the iteration runs; the recorded duals are not used.
    prob = qp.QpProblem.build(rec["H"], rec["g"], rec["A_in"], rec["b_in"])
    interior_point_from(monkeypatch, rec["warm_x"])
    sol = qp.solve(prob, tol=rec["tol"])
    assert sol.status.value == rec["status"]
    assert sol.iterations == rec["iterations"] > 0
    assert prob.objective(sol.x) == pytest.approx(rec["objective"], rel=1e-12)
    assert scaled_kkt_residual(prob, sol.x, sol.ineq_duals) <= rec["tol"]


PROJECTION = json.loads(
    (Path(__file__).parent / "data" / "qp_projection_dual_seed11.json").read_text())


def test_recorded_projection_meets_its_kkt_conditions():
    # A joint (x, theta) projection of the bench dual_track loop at seed 11
    # (episode 1, step 39): 44 variables and 100 rows, 3 of them violated at
    # x0.  Its conditions are checked as those of the same projection in
    # displacement coordinates, min d'Md s.t. A d <= b - A x0 with M = P^-1,
    # under the module's KKT rule at the projection's tol: feasibility to
    # tol, and stationarity and complementarity to tol times
    # max(1, |2Md|, |A'lam|).  There the cost has no linear term, so the
    # bound is not scaled up by |2 M x0| ~ 1e6.  Solved from x0 alone, the
    # returned point lay 100 times farther from x0 than the projection, with
    # complementarity 7e-7.
    rec = PROJECTION
    x0, P, A, b = (np.array(rec[k]) for k in ("x0", "P", "A_in", "b_in"))
    tol = rec["tol"]
    sol = qp.project_weighted(x0, P, A_in=A, b_in=b, tol=tol)
    lam, r = sol.ineq_duals, A @ sol.x - b
    Md2, Al = 2.0 * np.linalg.solve(P, sol.x - x0), A.T @ lam
    scale = max(1.0, np.abs(Md2).max(), np.abs(Al).max())
    assert sol.status == qp.QpStatus.OPTIMAL
    assert r.max() <= tol
    assert lam.min() >= 0.0
    assert np.abs(Md2 + Al).max() <= tol * scale
    assert np.abs(lam * r).max() <= tol * scale


# Finding H: the twomass_track tube QP at seed 14, episode 4, step 177 (two
# steps after a reference switch), with the shifted plan and duals of the
# step before as its warm start.  Near the solution the slacks of some rows
# reach ~3e-17 while their duals stay ~8, the Cholesky factorization fails,
# and the solve ends MAX_ITER after 13 iterations with KKT residual 1.05e-8
# against tol 1e-8, and the bench loop ends the episode.
(FINDING_H,) = json.loads(
    (Path(__file__).parent / "data" / "qp_tube_twomass_seed14.json").read_text())


def finding_h():
    """(problem, recorded shifted plan, tol) of the recorded Finding H tube QP."""
    rec = FINDING_H
    prob = qp.QpProblem.build(rec["H"], rec["g"], rec["A_in"], rec["b_in"])
    return prob, np.array(rec["warm_x"]), rec["tol"]


def test_finding_h_warm_start_is_feasible():
    # Recursive feasibility: the shifted plan meets every row of the next QP.
    prob, plan, _ = finding_h()
    assert (prob.A_in @ plan - prob.b_in).max() <= 1e-11


def test_finding_h_returned_point_is_feasible(monkeypatch):
    # From the plan, instead of the exact start, the iteration reaches tol
    # at its 12th iteration's KKT test, now that the test reads H without
    # the Newton matrix's ridge.  A factorization that fails at the 11th,
    # the last one it makes, as it failed on the ridged residual, stops the
    # solve there: it returns the point of the smallest KKT residual it saw,
    # feasible to tol.
    prob, plan, tol = finding_h()
    interior_point_from(monkeypatch, plan)
    dpotrf, residual = qp.lapack.dpotrf, qp._kkt_residual
    infos, kkts = [], []

    def factor(K, **kw):
        out = dpotrf(K, **kw) if len(infos) < 10 else (np.full_like(K, np.nan), 1)
        infos.append(out[1])
        return out

    monkeypatch.setattr(qp.lapack, "dpotrf", factor)
    monkeypatch.setattr(qp, "_kkt_residual",
                        lambda *a: (lambda out: (kkts.append(out[0]), out)[1])(residual(*a)))
    sol = qp.solve(prob, tol=tol)
    assert infos[-1] != 0 and not any(infos[:-1])
    assert sol.iterations == len(infos) == 11
    assert sol.status == qp.QpStatus.MAX_ITER and sol.kkt_residual == min(kkts) > tol
    assert (prob.A_in @ sol.x - prob.b_in).max() <= tol


def test_finding_h_tube_qp_solves_to_optimal():
    # The exact start is the optimum, which the iteration could not reach.
    prob, _, tol = finding_h()
    sol = qp.solve(prob, tol=tol)
    assert sol.status == qp.QpStatus.OPTIMAL and sol.iterations == 0


def test_rejected_start_of_a_tube_qp_is_iterated_from_its_x(monkeypatch):
    # The interior-point iteration's one entry: a start that the KKT test
    # rejects.  On the recorded dual_track tube QP the exact start with its
    # duals zeroed is rejected; the test and the first iteration are both at
    # its x, and the iteration ends OPTIMAL.
    (rec,) = [r for r in RECORDED if r["name"] == "dual_track tube"]
    prob = qp.QpProblem.build(rec["H"], rec["g"], rec["A_in"], rec["b_in"])
    exact, starts = qp._least_distance_start, []

    def rejected(prob, tol):
        x, duals = exact(prob, tol)
        duals[:] = 0.0
        assert scaled_kkt_residual(prob, x, duals) > tol
        starts.append(x.copy())
        return x, duals

    monkeypatch.setattr(qp, "_least_distance_start", rejected)
    points = kkt_points(monkeypatch)
    sol = qp.solve(prob, tol=rec["tol"])
    assert np.array_equal(points[0], starts[0]) and np.array_equal(points[1], starts[0])
    assert sol.status == qp.QpStatus.OPTIMAL and sol.iterations == len(points) - 1 > 0


@pytest.mark.parametrize("fail_from", [None, 3], ids=["non_finite_matrix", "factorization_failure"])
def test_non_finite_newton_matrix_ends_with_the_best_point(monkeypatch, interior_point,
                                                          fail_from):
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
    # back to the previous theta.  The projection itself now accepts its
    # exact start, so the same QP is also solved without it.  It is posed in
    # whitened coordinates z = U^-T (x - x0), P = U'U: H = 2I, g = 0, rows
    # A U' and b - A x0, and the KKT test is of that problem at z.  The
    # interior-point iteration then starts from z = 0, the point it
    # projects, as it did then.
    template, Y, eps_u = box_template(2, 1), Hpoly.box(0.8), np.ones(1)
    cfg = tmpc.ControllerConfig()
    model = random_model(np.random.default_rng(42), infnorm=0.6, gain=0.25)
    true = model.replace_theta(
        model.pack() + 0.002 * np.random.default_rng(1).normal(size=model.n_theta))
    noise = 0.01 * np.random.default_rng(0).normal(size=13)
    state = estimator.EstimatorState.from_model(model)
    x, warm = np.array([0.1, -0.05]), None
    projections, problems = [], []

    def recording(x0, P, **kwargs):
        projections.append((x0, P, kwargs, project(x0, P, **kwargs)))
        return projections[-1][-1]

    def solving(prob, *args, **kwargs):
        sol = solve(prob, *args, **kwargs)
        problems.append((prob, sol.x.copy(), sol.ineq_duals))
        return sol

    project, solve = qp.project_weighted, qp.solve
    monkeypatch.setattr(qp, "project_weighted", recording)
    monkeypatch.setattr(qp, "solve", solving)
    for k in range(13):
        tube = tmpc.solve_tmpc(state.x_hat, state.model(), np.array([0.4]), cfg,
                               template, Y, eps_u, warm_start=warm)
        u = np.clip(tmpc.nominal_input(tube, state.x_hat, template)[0], -1.0, 1.0)
        x = qlpv.step(true, x, u)
        zeta_pred, P_pred = estimator.predict(state, u)
        poly = estimator.build_theta_polytope(tube, template, state.model(), cfg.beta,
                                              eps_u, cfg.gamma)
        projections.clear()
        problems.clear()
        corr = estimator.constrained_correct(state, zeta_pred, P_pred,
                                             qlpv.output(true, x) + noise[k], poly)
        state.zeta, state.P = corr.zeta, corr.P
        warm = tmpc.warm_start_vector(tube, cfg.gamma)

    ((x0, P, kw, sol),) = projections
    ((prob, z, lam),) = problems
    A, b, tol = kw["A_in"], kw["b_in"], kw["tol"]
    assert sol.status == qp.QpStatus.OPTIMAL
    assert scaled_kkt_residual(prob, z, lam) <= tol
    assert poly.violation(corr.zeta) <= 1e-10
    assert not corr.fallback
    assert_whitened(prob, x0, P, A, b)
    Ut = np.linalg.cholesky(P)
    assert np.abs(sol.x - (x0 + Ut @ z)).max() <= 1e-12 * max(1.0, np.abs(x0).max())
    assert sol.value == pytest.approx(z @ z, rel=1e-12)
    without_exact_start(monkeypatch)
    points = kkt_points(monkeypatch)
    cold = solve(prob, tol=tol)
    assert not np.any(points[0])
    assert cold.status == qp.QpStatus.OPTIMAL
    assert 0 < cold.iterations <= 60


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
        qp.QpProblem.build(np.eye(2), np.zeros(3), [[1.0, 0.0, 0.0]], [1.0])
    with pytest.raises(ConfigurationError):
        qp.QpProblem.build(np.eye(2), np.zeros(2), A_in=np.eye(2), b_in=np.zeros(3))


@pytest.mark.parametrize("name", ["H", "g", "A_in", "b_in"])
def test_non_finite_data_rejected(name):
    data = dict(H=np.eye(2), g=np.zeros(2), A_in=np.eye(2), b_in=np.ones(2))
    data[name].flat[0] = np.nan
    with pytest.raises(ConfigurationError, match="finite"):
        qp.QpProblem.build(**data)


def test_asymmetric_cost_rejected():
    with pytest.raises(ConfigurationError, match="symmetric"):
        qp.QpProblem.build([[1.0, 0.5], [0.0, 1.0]], np.zeros(2), [[1.0, 0.0]], [1.0])


def test_indefinite_cost_rejected():
    with pytest.raises(ConfigurationError):
        qp.QpProblem.build([[1.0, 0.0], [0.0, -1.0]], np.zeros(2), [[1.0, 0.0]], [1.0])


def assert_whitened(prob, x0, P, A, b):
    """prob is the projection of x0 under P onto A x <= b posed in
    z = U^-T (x - x0), P = U'U: H = 2I, g = 0, rows A U' and b - A x0."""
    AU = A @ np.linalg.cholesky(P)
    assert np.array_equal(prob.H, 2.0 * np.eye(len(x0))) and not np.any(prob.g)
    assert np.abs(prob.A_in - AU).max() <= 1e-12 * max(1.0, np.abs(AU).max())
    assert np.array_equal(prob.b_in, b - A @ x0)


def random_projection(rng, n, m, log_cond):
    """(x0, P, A, b): P of condition number 10^log_cond, a polytope of m
    random rows around a known point, and x0 about 3 units from that point."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eig = 10.0 ** rng.uniform(-log_cond / 2, log_cond / 2, size=n)
    eig[[0, -1]] = 10.0 ** (-log_cond / 2), 10.0 ** (log_cond / 2)
    P = (Q * eig) @ Q.T
    x_in, A = rng.normal(size=n), rng.normal(size=(m, n))
    b = A @ x_in + rng.uniform(0.0, 1.0, size=m)
    return x_in + 3.0 * rng.normal(size=n), 0.5 * (P + P.T), A, b


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

    # (x0, P, A, b) of four kinds of violated rows.  Held as equalities,
    # the violated rows give the projection only in the first.
    PATHS = {
        # x1 <= 1 alone is violated, and held as an equality it gives the
        # projection, which meets the box.
        "accepted": ([1.5, 0.2, -0.1], [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]],
                     [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                     [1, 2, 2, 2, 2, 2]),
        # Both rows are violated, but x1 + x2 <= 1 holds once x1 <= 0 does:
        # its multiplier as an equality is -0.9.
        "negative_multiplier": ([1.0, 0.1], np.eye(2), [[1, 0], [1, 1]], [0, 1]),
        # x1 <= 0 twice: A_V P A_V' = [[1, 1], [1, 1]] is singular.
        "singular": ([1.0, 0.0, 0.0], np.eye(3), [[1, 0, 0], [1, 0, 0], [0, 0, 1]], [0, 0, 5]),
        # x1 <= 0 held as an equality gives 0, which breaks x1 + x2 >= 0.5,
        # a row that holds at x0.
        "kkt_rejected": ([1.0, 0.0], np.eye(2), [[1, 0], [-1, -1]], [0, -0.5]),
    }

    @pytest.mark.parametrize("path", PATHS)
    def test_closed_form_start_on_the_violated_rows(self, monkeypatch, path):
        # The least-distance start over all rows is the projection on every
        # path: the solve accepts it with 0 iterations, at the active-set
        # optimum.  It forms it from the whitened problem, whose H = 2I it
        # factors like any other.
        x0, P, A, b = (np.array(v, dtype=float) for v in self.PATHS[path])
        solve, problems = qp.solve, []
        monkeypatch.setattr(qp, "solve", lambda prob, **kw: (
            problems.append(prob), solve(prob, **kw))[1])
        sol = qp.project_weighted(x0, P, A_in=A, b_in=b)
        (prob,) = problems
        M = np.linalg.inv(P)
        x_ref, _ = qp_active_set_oracle(2.0 * M, -2.0 * M @ x0, A, b)
        assert sol.status == qp.QpStatus.OPTIMAL and sol.iterations == 0
        assert np.abs(sol.x - x_ref).max() <= 1e-7
        assert_whitened(prob, x0, P, A, b)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), m=st.integers(1, 6),
           log_cond=st.floats(0.0, 6.0))
    def test_projection_is_exact_from_its_start(self, seed, n, m, log_cond):
        # The start is the projection, accepted with 0 iterations.
        x0, P, A, b = random_projection(np.random.default_rng(seed), n, m, log_cond)
        sol = qp.project_weighted(x0, P, A_in=A, b_in=b)
        M = np.linalg.inv(P)
        x_ref, _ = qp_active_set_oracle(2.0 * M, -2.0 * M @ x0, A, b)
        assert sol.status == qp.QpStatus.OPTIMAL and sol.iterations == 0
        assert np.abs(sol.x - x_ref).max() <= 1e-6 * max(1.0, np.abs(x_ref).max())

    @pytest.mark.parametrize("seed, n", [(60, 3), (176, 2)], ids=["row", "dual-times-row"])
    def test_projection_at_a_vertex_is_refined_to_its_rows(self, seed, n):
        # Condition number 1e6, 6 rows, and n of them active at a vertex,
        # with duals of 1e3 to 1e4.  x = x0 - U'W nu then misses an active
        # row by 4.3e-9 (seed 60), or by less than tol but with a dual that
        # makes complementarity 1.4e-9 (seed 176), and the solve ran 7
        # iterations.  The refinement step meets the rows to rounding.
        x0, P, A, b = random_projection(np.random.default_rng(seed), n, 6, 6.0)
        sol = qp.project_weighted(x0, P, A_in=A, b_in=b)
        M = np.linalg.inv(P)
        x_ref, _ = qp_active_set_oracle(2.0 * M, -2.0 * M @ x0, A, b)
        assert np.sum(np.abs(A @ x_ref - b) <= 1e-9) == n
        assert sol.status == qp.QpStatus.OPTIMAL and sol.iterations == 0
        assert np.abs(sol.x - x_ref).max() <= 1e-6 * np.abs(x_ref).max()

    @pytest.mark.parametrize("seed", [908, 3893])
    def test_exact_start_is_tested_without_the_newton_ridge(self, seed):
        # n = 4 variables and 4 or 6 rows at tol 1e-10.  The exact start
        # meets the KKT conditions of the QP as posed to 2e-15; with the
        # Newton matrix's ridge 1e-10 I added to H, as the test once read
        # it, stationarity was 1.5e-10, and the solve ran 6 iterations.
        rng = np.random.default_rng(seed)
        n, m, log_cond = int(rng.integers(1, 6)), int(rng.integers(1, 7)), rng.uniform(0, 6)
        x0, P, A, b = random_projection(rng, n, m, log_cond)
        sol = qp.project_weighted(x0, P, A_in=A, b_in=b, tol=1e-10)
        M = np.linalg.inv(P)
        x_ref, _ = qp_active_set_oracle(2.0 * M, -2.0 * M @ x0, A, b)
        assert n == 4 and sol.status == qp.QpStatus.OPTIMAL and sol.iterations == 0
        assert np.abs(sol.x - x_ref).max() <= 1e-9 * np.abs(x_ref).max()

    def test_violation_below_the_nnls_tolerance_keeps_x0(self):
        # x1 <= -1e-100 is violated at 0, by less than NNLS may resolve: it
        # can leave u = 0, and then the start is x0 with zero duals.  Either
        # way the start meets the rows to tol and is accepted; from x0 the
        # interior-point iteration ended 1.3e-3 away.
        sol = qp.project_weighted(np.zeros(2), 1e4 * np.eye(2), A_in=np.eye(2),
                                  b_in=np.array([-1e-100, 1.0]))
        assert sol.status == qp.QpStatus.OPTIMAL and sol.iterations == 0
        assert np.abs(sol.x).max() <= 1e-99

    def test_failed_least_distance_solve_starts_from_x0(self, monkeypatch):
        # NNLS at its iteration limit leaves no candidate: the solve starts
        # from z = 0, which is x0 itself, and still ends at the projection.
        x0, P, A, b = (np.array(v, dtype=float) for v in self.PATHS["kkt_rejected"])
        monkeypatch.setattr(qp, "nnls", failing_nnls)
        points = kkt_points(monkeypatch)
        sol = qp.project_weighted(x0, P, A_in=A, b_in=b)
        x_ref, _ = qp_active_set_oracle(2.0 * np.eye(2), -2.0 * x0, A, b)
        assert np.array_equal(points[0], np.zeros(2))
        assert sol.status == qp.QpStatus.OPTIMAL and sol.iterations > 0
        assert np.abs(sol.x - x_ref).max() <= 1e-7

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_deficient_covariance_is_not_reported_infeasible(self, seed):
        # P = L L' has rank 3 in 6 variables.  It factors by rounding, with
        # pivots ~1e-17 on its null space, or takes the ridge; either way
        # M = P^-1 would be conditioned 1e10 or worse.  Projecting 0 onto
        # x1 <= -1 is feasible; at seed 2 the Newton matrix once did not
        # factor at the first iteration from 0, and the solve returned 0 as
        # INFEASIBLE.  Whitened, the problem never forms M, and its exact
        # start is the projection x = -P e_1 / P_11 (at most 3.8e-9 off).
        L = np.random.default_rng(seed).normal(size=(6, 3))
        P = L @ L.T
        sol = qp.project_weighted(np.zeros(6), P, A_in=np.eye(6)[:1],
                                  b_in=np.array([-1.0]), tol=1e-9)
        assert sol.status == qp.QpStatus.OPTIMAL and sol.iterations == 0
        assert sol.x[0] <= -1.0 + 1e-9
        assert np.abs(sol.x + P[:, 0] / P[0, 0]).max() <= 1e-8

    def test_rank_deficient_covariance_projection_is_optimal(self):
        # At seed 2 the least-distance start is the projection to rounding
        # (error 0).  Its stationarity, tested with M = P^-1 of norm ~1e16,
        # would reject it, and the Newton matrix then does not factor; the
        # whitened problem, which never forms M, accepts it.
        L = np.random.default_rng(2).normal(size=(6, 3))
        sol = qp.project_weighted(np.zeros(6), L @ L.T, A_in=np.eye(6)[:1],
                                  b_in=np.array([-1.0]), tol=1e-9)
        assert sol.status == qp.QpStatus.OPTIMAL

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

    def test_empty_polyhedron_reports_infeasible(self, monkeypatch):
        # x1 <= -1 and -x1 <= -1: the least-distance residual vanishes, so
        # no start is formed and the solve from z = 0, which is x0, reports
        # INFEASIBLE.
        x0 = np.zeros(1)
        points = kkt_points(monkeypatch)
        sol = qp.project_weighted(x0, np.eye(1), A_in=np.array([[1.0], [-1.0]]),
                                  b_in=np.array([-1.0, -1.0]))
        assert np.array_equal(points[0], np.zeros(1))
        assert sol.status == qp.QpStatus.INFEASIBLE

    @pytest.mark.parametrize("name", ["x0", "A_in", "b_in"])
    def test_non_finite_data_rejected_when_x0_is_infeasible(self, name):
        # x0 = (3, 3) violates x <= 1; a NaN in any datum reaches the
        # residual or the whitened rows.
        data = dict(x0=np.full(2, 3.0), A_in=np.eye(2), b_in=np.ones(2))
        data[name].flat[-1] = np.nan
        with pytest.raises(ConfigurationError, match="finite"):
            qp.project_weighted(data["x0"], np.eye(2), A_in=data["A_in"], b_in=data["b_in"])

    def test_indefinite_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="covariance"):
            qp.project_weighted(np.zeros(2), np.diag([1.0, -1.0]),
                                A_in=np.eye(2), b_in=np.ones(2))

    @pytest.mark.parametrize("x0", [np.zeros(2), np.full(2, 3.0)], ids=["feasible", "infeasible"])
    @pytest.mark.parametrize("P, A_in, b_in", [
        (np.eye(2), np.eye(3, 2), [1.0]),
        (np.eye(3), np.eye(2), np.ones(2)),
        (np.eye(2), np.eye(2, 3), np.ones(2)),
        (np.eye(2), np.ones(2), np.ones(1)),
        (np.eye(2), np.eye(2), np.ones((2, 1))),
    ], ids=["b_in-shorter-than-A_in", "P-of-other-size", "A_in-of-other-width",
            "A_in-one-dimensional", "b_in-two-dimensional"])
    def test_shapes_that_do_not_fit_x0_rejected(self, x0, P, A_in, b_in):
        with pytest.raises(ConfigurationError, match="inconsistent"):
            qp.project_weighted(x0, P, A_in=A_in, b_in=b_in)
