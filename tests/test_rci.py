import numpy as np
import pytest

from dualmpc import qlpv, qp, rci
from dualmpc.errors import ConfigurationError
from dualmpc.polytope import Hpoly, box_template
from conftest import random_model
from oracles import perturbation_vertices, set_vertices, vertex_input, verify_rci


TEMPLATE = box_template(2, 1)
Y = Hpoly.box([0.8])
EPS_U = np.ones(1)


def stable_single_mode(rng=None, radius=0.5):
    A = [radius * np.eye(2)]
    B = [np.array([[0.5], [0.5]])]
    return qlpv.ModelParams(A=A, B=B,
                            W1=np.zeros((3, 3)), b1=np.zeros(3),
                            W2=np.zeros((1, 3)), b2=np.zeros(1),
                            C=np.array([[1.0, 0.0]]))


def verify(sol, model, beta):
    """The invariance oracle at an invariant-set solution over TEMPLATE."""
    return verify_rci(model.A, model.B, TEMPLATE.F, TEMPLATE.V, sol.z_s, sol.s,
                      sol.v_s, sol.c, beta, EPS_U)


def test_row_count_matches_symbolic_formula(small_model):
    A, b = rci.rci_constraint_block(small_model, TEMPLATE, 0.3, EPS_U, Y)
    # 3 modes x 4 vertices x 4 template rows + 4 x (2 + 2) + 8 sign rows
    expected = 48 + 16 + 8
    assert A.shape == (expected, rci.Layout.of(TEMPLATE, 0).dim)
    assert b.shape == (expected,)


def test_hand_feasible_point_single_stable_mode():
    model = stable_single_mode()
    A, b = rci.rci_constraint_block(model, TEMPLATE, 0.0, EPS_U, Y)
    lay = rci.Layout.of(TEMPLATE, 0)
    # z_s = 0, v_s = 0, c = 0, s small: each vertex maps to 0.5*vertex, so
    # q = s/2 slack is available; use q = 0 which satisfies strictly.
    x = np.zeros(lay.dim)
    x[lay.s] = 0.1 * np.ones(4)
    assert (A @ x - b).max() <= 1e-12


def test_unstable_mode_with_tiny_inputs_infeasible():
    model = stable_single_mode(radius=2.0)
    model.B[0][:] = np.array([[0.01], [0.01]])
    A, b = rci.rci_constraint_block(model, TEMPLATE, 0.0, np.array([0.05]), Y)
    lay = rci.Layout.of(TEMPLATE, 0)
    # Force a nondegenerate set: the first offset must be at least 0.1.
    extra = np.zeros((1, lay.dim))
    extra[0, lay.s.start] = -1.0
    A = np.vstack([A, extra])
    b = np.concatenate([b, [-0.1]])
    prob = qp.QpProblem.build(np.eye(lay.dim), np.zeros(lay.dim), A, b)
    sol = qp.solve(prob)
    assert sol.status == qp.QpStatus.INFEASIBLE


@pytest.mark.parametrize("n_x, n_u", [(2, 1), (3, 2)])
def test_layout_partitions_the_vector(n_x, n_u):
    # The stage blocks, then z_s, v_s, s, c and q, each a view of x, cover
    # the vector once and in that order: for the stand-alone invariant-set
    # problem (no stages) and the tube QPs of N = 1, 2, 3 (N + 1 stages).
    template = box_template(n_x, n_u)
    f, v = template.n_rows, template.n_vertices
    model = qlpv.ModelParams(A=[0.5 * np.eye(n_x)], B=[np.ones((n_x, n_u))],
                             W1=np.zeros((3, n_x + n_u)), b1=np.zeros(3),
                             W2=np.zeros((1, 3)), b2=np.zeros(1), C=np.eye(1, n_x))
    for stages in (0, 2, 3, 4):
        rows = rci.tube_qp(template, 0.0, np.ones(n_u), Y, model.C, 0.5, stages).at(model)
        lay = rci.Layout.of(template, stages)
        assert lay.dim == stages * (n_x + n_u) + n_x + n_u + 2 * f + v * n_u
        sol = rci.TubeSolution(np.arange(lay.dim, dtype=float), rows, 0.0, None)
        assert sol.layout == lay and sol.d is rows.d and sol.tube_qp is rows.tube_qp
        assert sol.z.shape == (stages, n_x) and sol.v.shape == (stages, n_u)
        parts = [sol.z, sol.v, sol.z_s, sol.v_s, sol.s, sol.c, sol.q]
        assert all(np.shares_memory(p, sol.x) for p in parts if p.size)
        stage_blocks = np.hstack([sol.z, sol.v]).ravel()
        assert np.concatenate([stage_blocks, *parts[2:]]).tolist() == list(range(lay.dim))
        slices = [lay.z_s, lay.v_s, lay.s, lay.c, lay.q]
        assert [i for sl in slices for i in range(lay.dim)[sl]] == \
            list(range(stages * lay.stage, lay.dim))
        assert lay.center == slice(lay.z_s.start, lay.v_s.stop)
        # One deviation map per stage, none without stages: D_k x = stage k - center.
        assert lay.deviations.shape == (stages, lay.stage, lay.dim)
        assert np.array_equal(lay.deviations @ sol.x,
                              np.hstack([sol.z, sol.v]) - sol.x[lay.center])


class TestProblem:
    """TubeQp.problem, which forms a step's QP at a model's rows."""

    def test_zero_stage_b_is_the_rows_b(self, small_model):
        # Every row is tightened by the margin 1e-5, in a copy of rows.b.
        tq = rci.tube_qp(TEMPLATE, 0.3, EPS_U, Y, small_model.C, 0.0, 0)
        rows = tq.at(small_model)
        before = rows.b.tobytes()
        prob, const = tq.problem(rows, [0.2])
        assert prob.A_in is rows.A and prob.H is tq.H and rows.b.tobytes() == before
        assert prob.b_in.tobytes() == (rows.b - 1e-5).tobytes()
        assert const == float(TEMPLATE.n_vertices * 0.2 * 10.0 * 0.2)
        # Its rows have no dist rows: the estimator reads only a staged QP's.
        assert rows.dist.shape == (0, small_model.n_theta)

    def test_staged_b_is_a_copy_with_the_initial_row(self, small_model):
        tq = rci.tube_qp(TEMPLATE, 0.3, EPS_U, Y, small_model.C, 0.95, 3)
        rows, x_hat = tq.at(small_model), np.array([0.2, -0.1])
        before = rows.b.tobytes()
        prob, _ = tq.problem(rows, [0.2], x_hat)
        f = TEMPLATE.n_rows
        assert prob.b_in is not rows.b and rows.b.tobytes() == before
        assert prob.b_in[:-f].tobytes() == (rows.b[:-f] - 1e-5).tobytes()
        assert np.array_equal(prob.b_in[-f:], -TEMPLATE.F @ x_hat - 1e-5)
        # g is G y_ref on z_s and 0 elsewhere.
        g = np.zeros(tq.layout.dim)
        g[tq.layout.z_s] = tq.G @ [0.2]
        assert prob.g.tobytes() == g.tobytes()

    @pytest.mark.parametrize("stages", [0, 3])
    def test_reference_of_another_shape_rejected(self, small_model, stages):
        tq = rci.tube_qp(TEMPLATE, 0.3, EPS_U, Y, small_model.C, 0.5, stages)
        rows = tq.at(small_model)
        for y_ref in ([0.1, 0.2], np.zeros((1, 1)), []):
            with pytest.raises(ConfigurationError, match="y_ref has shape"):
                tq.problem(rows, y_ref, np.zeros(2))

    def test_non_finite_state_or_reference_rejected(self, small_model):
        tq = rci.tube_qp(TEMPLATE, 0.3, EPS_U, Y, small_model.C, 0.95, 3)
        rows = tq.at(small_model)
        for x_hat, y_ref in (([np.nan, 0.0], [0.1]), ([0.0, np.inf], [0.1]),
                             ([0.0, 0.0], [np.nan]), ([0.0, 0.0, 0.0], [0.1])):
            with pytest.raises(ConfigurationError, match="finite"):
                tq.problem(rows, y_ref, np.array(x_hat))


class TestSolveOptimalRci:
    def test_symmetric_problem_centers_at_origin(self):
        model = stable_single_mode()
        sol, qsol = rci.solve_optimal_rci(model, np.zeros(1), TEMPLATE, 0.0, EPS_U, Y)
        assert qsol.status == qp.QpStatus.OPTIMAL
        assert sol.z_s == pytest.approx(np.zeros(2), abs=1e-6)
        assert sol.v_s == pytest.approx(np.zeros(1), abs=1e-6)
        assert sol.cost >= -1e-9

    def test_achievable_reference_tracked_with_small_size_weights(self):
        # The set-tracking cost with the default output weight and tiny size
        # weights, posed over the invariant-set rows: the center tracks y_ref.
        model = stable_single_mode()
        lay = rci.Layout.of(TEMPLATE, 0)
        y_ref = np.array([0.5])
        Q1 = 10.0 * np.eye(1)
        H = 2.0 * (1e-8 + 1e-10) * np.eye(lay.dim)
        H[lay.z_s, lay.z_s] += 2.0 * lay.v * model.C.T @ Q1 @ model.C
        g = np.zeros(lay.dim)
        g[lay.z_s] = -2.0 * lay.v * model.C.T @ Q1 @ y_ref
        A, b = rci.rci_constraint_block(model, TEMPLATE, 0.0, EPS_U, Y)
        sol = qp.solve(qp.QpProblem.build(H, g, A, b))
        assert sol.status == qp.QpStatus.OPTIMAL
        assert model.C @ sol.x[lay.z_s] == pytest.approx(y_ref, abs=1e-3)

    def test_cost_is_minimum_over_random_feasible_points(self, rng):
        model = stable_single_mode()
        y_ref = np.array([0.2])
        sol, qsol = rci.solve_optimal_rci(model, y_ref, TEMPLATE, 0.1, EPS_U, Y)
        A, b = rci.rci_constraint_block(model, TEMPLATE, 0.1, EPS_U, Y)
        lay = rci.Layout.of(TEMPLATE, 0)
        tq = rci.tube_qp(TEMPLATE, 0.1, EPS_U, Y, model.C, 0.0, 0)
        prob, const = tq.problem(tq.at(model), y_ref)
        H, g = prob.H, prob.g
        for _ in range(25):
            target = qsol.x + rng.normal(scale=0.1, size=lay.dim)
            proj = qp.project_weighted(target, np.eye(lay.dim), A_in=A, b_in=b)
            assert proj.status == qp.QpStatus.OPTIMAL
            x = proj.x
            assert (A @ x - b).max() <= 1e-7
            value = 0.5 * x @ H @ x + g @ x + const
            assert value >= sol.cost - 1e-7

    def test_cost_continuous_in_theta(self, rng):
        model = random_model(rng, infnorm=0.6, gain=0.2)
        y_ref = np.array([0.1])
        sol0, q0 = rci.solve_optimal_rci(model, y_ref, TEMPLATE, 0.3, EPS_U, Y)
        assert q0.status == qp.QpStatus.OPTIMAL
        theta = model.pack()
        delta = 1e-6
        bumped = model.replace_theta(theta + delta * (np.arange(theta.size) % 3 == 0))
        sol1, _ = rci.solve_optimal_rci(bumped, y_ref, TEMPLATE, 0.3, EPS_U, Y)
        assert abs(sol1.cost - sol0.cost) < 1e-3 * max(1.0, sol0.cost)

    def test_post_solve_rows_hold(self, rng):
        model = random_model(rng, infnorm=0.6, gain=0.2)
        sol, qsol = rci.solve_optimal_rci(model, np.array([0.3]), TEMPLATE, 0.2, EPS_U, Y)
        assert qsol.status == qp.QpStatus.OPTIMAL
        A, b = rci.rci_constraint_block(model, TEMPLATE, 0.2, EPS_U, Y)
        assert (A @ sol.x - b).max() <= 1e-7
        assert sol.q.min() >= -1e-9
        assert sol.s.min() >= -1e-9

    def test_not_optimal_solve_is_wrapped_with_its_status(self):
        # An unstable mode with inputs too small to hold any set around the
        # center: the solve reports infeasibility, and the solution wraps it
        # like any other, carrying its status, its x and the allowance d of
        # the problem's rows.
        model = stable_single_mode(radius=2.0)
        model.B[0][:] = np.array([[0.01], [0.01]])
        eps_u = np.array([0.05])
        sol, qsol = rci.solve_optimal_rci(model, np.zeros(1), TEMPLATE, 0.3, eps_u, Y)
        assert qsol.status == sol.status == qp.QpStatus.INFEASIBLE
        assert sol.qp_solution is qsol and sol.x is qsol.x and np.isfinite(sol.cost)
        assert sol.layout == rci.Layout.of(TEMPLATE, 0)
        assert sol.x.shape == (sol.layout.dim,)
        d = qlpv.disturbance_vector(model, TEMPLATE, 0.3, eps_u)
        assert sol.d.tobytes() == d.tobytes()


class TestVerifyRci:
    def test_feasible_solution_certified(self, rng):
        model = random_model(rng, infnorm=0.6, gain=0.2)
        sol, _ = rci.solve_optimal_rci(model, np.zeros(1), TEMPLATE, 0.3, EPS_U, Y)
        report = verify(sol, model, 0.3)
        assert report.worst_violation <= 1e-7
        assert report.ok

    def test_inflated_budget_detected(self, rng):
        model = random_model(rng, infnorm=0.7, gain=0.5)
        sol, qsol = rci.solve_optimal_rci(model, np.zeros(1), TEMPLATE, 0.3, EPS_U, Y)
        assert qsol.status == qp.QpStatus.OPTIMAL
        report = verify(sol, model, 0.6)
        assert report.worst_violation > 0

    def test_zero_budget_reduces_to_nominal_invariance(self):
        model = stable_single_mode()
        sol, _ = rci.solve_optimal_rci(model, np.zeros(1), TEMPLATE, 0.0, EPS_U, Y)
        report = verify(sol, model, 0.0)
        assert report.worst_violation <= 1e-9
        # All disturbance candidates collapse to the origin.
        assert np.abs(perturbation_vertices(model.B, 0.0, EPS_U)).max() == 0.0

    def test_vertex_check_dominates_samples(self, rng):
        # Each successor row is affine in the disturbance, so no point of the
        # disturbance hull violates more than the worst hull vertex.
        for k in range(5):
            model = random_model(np.random.default_rng(100 + k), infnorm=0.6, gain=0.3)
            sol, qsol = rci.solve_optimal_rci(model, np.zeros(1), TEMPLATE, 0.25, EPS_U, Y)
            if qsol.status != qp.QpStatus.OPTIMAL:
                continue
            report = verify(sol, model, 0.25)
            w_vertices = perturbation_vertices(model.B, 0.25, EPS_U)
            samples = np.random.default_rng(k).dirichlet(
                np.ones(len(w_vertices)), size=2000) @ w_vertices
            verts = set_vertices(TEMPLATE.V, sol.z_s, sol.s)
            for j, xj in enumerate(verts):
                uj = sol.v_s + vertex_input(sol.c, TEMPLATE.n_u, j)
                for Ai, Bi in zip(model.A, model.B):
                    succ = samples + (Ai @ xj + Bi @ uj - sol.z_s)
                    assert (succ @ TEMPLATE.F.T - sol.s).max() <= report.worst_violation + 1e-12
