import copy
import dataclasses
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import block_diag

from dualmpc import estimator, qlpv, qp, rci, sysid, tmpc
from dualmpc.errors import ConfigurationError
from dualmpc.polytope import Hpoly, box_template
from conftest import interior_point_from, random_model
from oracles import scaled_kkt_residual, vertex_input, verify_rci


TEMPLATE = box_template(2, 1)
Y = Hpoly.box([0.8])
EPS_U = np.ones(1)
CFG = tmpc.ControllerConfig()


@pytest.fixture
def model():
    return random_model(np.random.default_rng(42), infnorm=0.6, gain=0.25)


def solve(model, x_hat, y_ref=0.0, cfg=CFG, **kw):
    return tmpc.solve_tmpc(np.atleast_1d(x_hat), model, np.atleast_1d(y_ref),
                           cfg, TEMPLATE, Y, EPS_U, **kw)


def stages(x, lay):
    """The stage blocks (z_k, v_k) of the vector x, one row per stage."""
    return x[:lay.center.start].reshape(lay.stages, lay.stage)


def shifted_stages(sol, gamma):
    """(z, v) of the time-shifted plan of sol at gamma."""
    shifted = stages(rci.candidate_shift(sol.x, sol.layout, gamma), sol.layout)
    return shifted[:, :sol.layout.n_x], shifted[:, sol.layout.n_x:]


def test_invalid_configs_rejected():
    for N in (0, 1.5, np.float64(2.0)):
        with pytest.raises(ConfigurationError):
            tmpc.ControllerConfig(N=N)
    assert tmpc.ControllerConfig(N=np.int64(3)).N == 3
    with pytest.raises(ConfigurationError):
        tmpc.ControllerConfig(gamma=1.0)
    with pytest.raises(ConfigurationError):
        tmpc.ControllerConfig(beta=1.0)


def test_default_terminal_weight_zeroes_decrement_matrix():
    # H's diagonal block of stage k is 2 Q, and of the last stage 2 P: only
    # the deviation of that stage from the set center weighs it.
    tq = rci.tube_qp(TEMPLATE, CFG.beta, EPS_U, Y, np.array([[1.0, 0.0]]), CFG.gamma, CFG.N + 1)
    n = tq.layout.stage
    first, last = slice(0, n), slice(CFG.N * n, (CFG.N + 1) * n)
    Q, P = tq.H[first, first] / 2.0, tq.H[last, last] / 2.0
    assert np.array_equal(Q, np.eye(3))
    M = Q + CFG.gamma ** 2 * P - P
    assert np.abs(M).max() <= 1e-12


def test_stationary_at_optimal_set_center(model):
    y_ref = np.array([0.2])
    rci_sol, _ = rci.solve_optimal_rci(model, y_ref, TEMPLATE, CFG.beta, EPS_U, Y)
    sol = solve(model, rci_sol.z_s, y_ref)
    assert sol.status == qp.QpStatus.OPTIMAL
    assert sol.cost == pytest.approx(rci_sol.cost, abs=1e-5)
    for k in range(len(sol.z)):
        assert sol.z[k] == pytest.approx(rci_sol.z_s, abs=1e-4)
        assert sol.v[k] == pytest.approx(rci_sol.v_s, abs=1e-4)
    assert tmpc.lyapunov_value(sol, rci_sol.cost) == pytest.approx(0.0, abs=1e-5)


def test_solution_satisfies_tube_output_and_input_rows(model):
    sol = solve(model, [0.3, -0.2], 0.5)
    assert sol.status == qp.QpStatus.OPTIMAL
    for k in range(len(sol.z)):
        for j in range(TEMPLATE.n_vertices):
            y = model.C @ (sol.z[k] + TEMPLATE.V[j] @ sol.s)
            assert Y.violation(y) <= 1e-7
            u = sol.v[k] + vertex_input(sol.c, TEMPLATE.n_u, j)
            assert np.abs(u).max() <= (1 - CFG.beta) * EPS_U[0] + 1e-7


def test_initial_row_and_embedded_rci_rows_hold(model):
    x_hat = np.array([0.25, 0.1])
    sol = solve(model, x_hat, -0.4)
    assert (TEMPLATE.F @ (x_hat - sol.z[0]) <= sol.s + 1e-7).all()
    A, b = rci.rci_constraint_block(model, TEMPLATE, CFG.beta, EPS_U, Y)
    assert (A @ sol.x[sol.layout.center.start:] - b).max() <= 1e-7


class TestCandidateShift:
    def test_fixed_point_at_set_center(self, model):
        sol = solve(model, [0.0, 0.0])
        x = sol.x.copy()
        stages(x, sol.layout)[-1] = x[sol.layout.center]
        sol = dataclasses.replace(sol, x=x)
        z, v = shifted_stages(sol, CFG.gamma)
        assert z[-1] == pytest.approx(sol.z_s)
        assert v[-1] == pytest.approx(sol.v_s)

    def test_terminal_deviation_contracts_by_gamma(self, model):
        sol = solve(model, [0.1, 0.0])
        x = sol.x.copy()
        stages(x, sol.layout)[-1, :2] = sol.z_s + np.array([1.0, 0.0])
        sol = dataclasses.replace(sol, x=x)
        z, _ = shifted_stages(sol, 0.95)
        assert z[-1] - sol.z_s == pytest.approx([0.95, 0.0])

    def test_double_shift_contracts_by_gamma_squared(self, model):
        sol = solve(model, [0.1, 0.0])
        dev0 = sol.z[-1] - sol.z_s
        sol = dataclasses.replace(sol, x=rci.candidate_shift(sol.x, sol.layout, CFG.gamma))
        z2, _ = shifted_stages(sol, CFG.gamma)
        assert z2[-1] - sol.z_s == pytest.approx(CFG.gamma ** 2 * dev0, abs=1e-12)

    def test_shifted_plan_is_the_stagewise_formula_bitwise(self):
        # The shift on the vector is the shift of the stage rows, written
        # out: stage k takes stage k + 1, the last one interpolates toward
        # the set center, and x_r follows unchanged.
        rng = np.random.default_rng(12)
        for cfg in (tmpc.ControllerConfig(N=1), CFG, tmpc.ControllerConfig(N=3, gamma=0.7)):
            model = random_model(rng, infnorm=0.6, gain=0.25)
            sol = solve(model, rng.uniform(-0.2, 0.2, size=2), 0.3, cfg=cfg)
            z, v, z_s, v_s, g = sol.z, sol.v, sol.z_s, sol.v_s, cfg.gamma
            z_plus = np.vstack([z[1:], z_s + g * (z[-1] - z_s)])
            v_plus = np.vstack([v[1:], v_s + g * (v[-1] - v_s)])
            want = np.concatenate([np.hstack([z_plus, v_plus]).ravel(),
                                   sol.x[sol.layout.center.start:]])
            assert sol.shifted.tobytes() == want.tobytes()
            assert rci.candidate_shift(sol.x, sol.layout, g).tobytes() == want.tobytes()

    def test_solution_read_only_and_replaced_anew(self, model):
        sol = solve(model, [0.1, 0.0])
        for part in (sol.x, sol.z, sol.v, sol.z_s, sol.v_s, sol.s, sol.c, sol.q, sol.shifted):
            with pytest.raises(ValueError):
                part[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.x = sol.x.copy()
        assert not sol.qp_solution.x.flags.writeable
        x = sol.x.copy()
        x[sol.layout.s] += 0.1
        stages(x, sol.layout)[-1] += 0.2
        edited = dataclasses.replace(sol, x=x)
        assert edited.s.tobytes() == x[sol.layout.s].tobytes()
        want = rci.candidate_shift(x, sol.layout, CFG.gamma)
        assert edited.shifted.tobytes() == want.tobytes() != sol.shifted.tobytes()
        assert tmpc.warm_start_vector(edited, CFG.gamma) is edited

    def test_shifted_candidate_feasible_next_step_frozen_theta(self, model):
        x_hat = np.array([0.2, -0.1])
        sol = solve(model, x_hat, 0.6)
        assert sol.status == qp.QpStatus.OPTIMAL
        u_c, lam = tmpc.nominal_input(sol, x_hat, TEMPLATE)
        assert not lam.relaxed
        # Propagate through the model with a perturbation inside the budget.
        u = u_c + np.array([CFG.beta * 0.9])
        x_next = qlpv.step(model, x_hat, u)
        rows = sol.tube_qp.at(model)
        A, b = rows.A, rows.b.copy()
        b[-TEMPLATE.n_rows:] = -TEMPLATE.F @ x_next
        warm = tmpc.warm_start_vector(sol, CFG.gamma)
        assert (A @ warm.shifted - b).max() <= 1e-9
        assert (TEMPLATE.F @ (x_next - sol.z[1]) - sol.s).max() <= 1e-9
        # And the next solve, warm-started from the candidate, succeeds.
        nxt = solve(model, x_next, 0.6, warm_start=warm)
        assert nxt.status == qp.QpStatus.OPTIMAL


    def test_still_optimal_shifted_plan_accepted_without_iterations(self, model):
        # At the set-centre fixed point the shifted plan is the plan, and with
        # this solve's duals it meets the KKT test as it stands.
        cold = solve(model, [0.0, 0.0])
        warm = tmpc.warm_start_vector(cold, CFG.gamma)
        nxt = solve(model, [0.0, 0.0], warm_start=warm)
        assert nxt.status == qp.QpStatus.OPTIMAL
        assert nxt.qp_solution.iterations == 0
        assert np.abs(nxt.qp_solution.x - cold.qp_solution.x).max() <= 1e-8

    def test_warm_start_from_another_controller_rejected(self, model):
        sol = solve(model, [0.1, 0.0])
        with pytest.raises(ConfigurationError, match="wrong dimension"):
            solve(model, [0.1, 0.0], cfg=tmpc.ControllerConfig(N=3),
                  warm_start=tmpc.warm_start_vector(sol, CFG.gamma))

    def test_warm_start_from_another_controller_rejected_at_moved_model(self, model):
        # Its rows are not this controller's to keep, whatever the model.
        sol = solve(model, [0.1, 0.0])
        with pytest.raises(ConfigurationError, match="wrong dimension"):
            solve(moved_model(model), [0.1, 0.0], cfg=tmpc.ControllerConfig(N=3),
                  warm_start=tmpc.warm_start_vector(sol, CFG.gamma))


def moved_model(model):
    """The model with theta moved, as a measurement update moves theta_hat."""
    rng = np.random.default_rng(8)
    return model.replace_theta(model.pack() + 1e-3 * rng.normal(size=model.n_theta))


def step_problem(tq, rows, x_hat, y_ref):
    """The tube QP of tq at ``rows`` with the initial row of x_hat and the g of y_ref."""
    return tq.problem(rows, y_ref, x_hat)[0]


def untightened(prob):
    """prob with its rows at margin 0: the rows tightened by 1e-5 loosened again."""
    return dataclasses.replace(prob, b_in=prob.b_in + 1e-5)


class TestKeptModel:
    """solve_tmpc with a warm start of its own controller: kept, replaced or
    retried."""

    def test_still_optimal_plan_keeps_its_model(self, model):
        cold = solve(model, [0.0, 0.0])
        warm = tmpc.warm_start_vector(cold, CFG.gamma)
        moved = moved_model(model)
        sol = solve(moved, [0.0, 0.0], warm_start=warm)
        assert sol.status == qp.QpStatus.OPTIMAL
        assert sol.rows is cold.rows and sol.rows.params is model and sol.d is cold.d
        assert sol.qp_solution.iterations == 0
        assert sol.x.tobytes() == warm.shifted.tobytes()
        kept = step_problem(sol.tube_qp, sol.rows, [0.0, 0.0], 0.0)
        assert scaled_kkt_residual(kept, sol.x, sol.qp_solution.ineq_duals) <= 1e-8
        # At the moved model the plan is not optimal: the solve there iterates.
        at_moved = step_problem(sol.tube_qp, sol.tube_qp.at(moved), [0.0, 0.0], 0.0)
        assert qp.accept_warm_start(at_moved, warm.shifted, warm.qp_solution.ineq_duals) is None

    def test_plan_of_a_rebuilt_tube_qp_is_not_tested(self, model):
        # A warm start of this controller's size whose TubeQp was rebuilt,
        # as when its cache entry is evicted, names rows that are not this
        # TubeQp's: it is not tested for keeping, and the solve at the moved
        # model, where the plan would be kept, is the one without it.
        cold = solve(model, [0.0, 0.0])
        warm = tmpc.warm_start_vector(cold, CFG.gamma)
        moved = moved_model(model)
        rci._tube_qp.cache_clear()
        sol = solve(moved, [0.0, 0.0], warm_start=warm)
        want = solve(moved, [0.0, 0.0])
        assert sol.tube_qp is not cold.tube_qp and sol.rows.params is moved
        assert sol.x.tobytes() == want.x.tobytes()
        assert ((sol.status, sol.qp_solution.iterations)
                == (want.status, want.qp_solution.iterations))

    def test_plan_no_longer_optimal_replaces_the_model(self, model, interior_point):
        # Without the exact start, the solve at the moved model iterates.
        cold = solve(model, [0.0, 0.0])
        moved = moved_model(model)
        sol = solve(moved, [0.0, 0.0], 0.5, warm_start=tmpc.warm_start_vector(cold, CFG.gamma))
        assert sol.status == qp.QpStatus.OPTIMAL
        assert sol.rows.params is moved and sol.qp_solution.iterations > 0

    def test_replaced_model_solves_from_the_exact_start(self, model):
        # The same solve with its exact start: at the moved model, with 0
        # iterations, and with every row of the QP at the margin 1e-5 met.
        cold = solve(model, [0.0, 0.0])
        moved = moved_model(model)
        sol = solve(moved, [0.0, 0.0], 0.5, warm_start=tmpc.warm_start_vector(cold, CFG.gamma))
        assert sol.status == qp.QpStatus.OPTIMAL
        assert sol.rows.params is moved and sol.qp_solution.iterations == 0
        prob = step_problem(sol.tube_qp, sol.rows, [0.0, 0.0], 0.5)
        assert (prob.A_in @ sol.x - prob.b_in).max() <= 1e-8
        b = sol.rows.b.copy()
        b[-TEMPLATE.n_rows:] = 0.0
        assert (sol.rows.A @ sol.x - b).max() <= -1e-5 + 1e-8

    @pytest.mark.parametrize("kept_solves", [True, False])
    def test_failed_solve_retried_at_the_kept_rows(self, model, monkeypatch, kept_solves):
        # The solve at the new model ends MAX_ITER; the retry at the kept
        # rows, untightened, is taken only when it is OPTIMAL.
        cold = solve(model, [0.0, 0.0])
        warm = tmpc.warm_start_vector(cold, CFG.gamma)
        moved, real, solved_at = moved_model(model), qp.solve, []

        def failing(prob, **kw):
            solved_at.append(prob.A_in)
            sol = real(prob, **kw)
            if prob.A_in is not cold.rows.A or not kept_solves:
                sol.status = qp.QpStatus.MAX_ITER
            return sol
        monkeypatch.setattr(qp, "solve", failing)
        sol = solve(moved, [0.0, 0.0], 0.5, warm_start=warm)
        assert [A is cold.rows.A for A in solved_at] == [False, True]
        if kept_solves:
            assert sol.status == qp.QpStatus.OPTIMAL and sol.rows is cold.rows
            want = real(untightened(step_problem(sol.tube_qp, cold.rows, [0.0, 0.0], 0.5)))
            assert sol.x.tobytes() == want.x.tobytes()
        else:
            assert sol.status == qp.QpStatus.MAX_ITER and sol.rows.params is moved


    @pytest.mark.parametrize("moved", [False, True], ids=["same-model", "moved-model"])
    def test_failed_kept_test_solves_from_the_plan_without_testing_it_again(
            self, model, monkeypatch, moved):
        # The plan fails the kept test at y_ref 0.5.  The QP is then solved:
        # at the kept rows when the model is the kept one, which builds no
        # rows, and at the moved model's rows otherwise.  Its exact start is
        # replaced by a rejected one at the plan's x, from which the
        # iteration runs.  The KKT conditions are tested once for the plan
        # and once for the start, and once in each iteration.
        cold = solve(model, [0.0, 0.0])
        warm = tmpc.warm_start_vector(cold, CFG.gamma)
        params = moved_model(model) if moved else model
        interior_point_from(monkeypatch, warm.shifted)
        calls, tests, residual = spied(monkeypatch), [], qp._kkt_residual
        monkeypatch.setattr(qp, "_kkt_residual", lambda *a: (tests.append(1), residual(*a))[1])
        sol = solve(params, [0.0, 0.0], 0.5, warm_start=warm)
        assert sol.status == qp.QpStatus.OPTIMAL and sol.qp_solution.iterations > 0
        assert len(tests) == 2 + sol.qp_solution.iterations
        assert sol.rows.params is params and (sol.rows is cold.rows) is not moved
        assert calls == ({"disturbance_vector": 1, "over_y": 1} if moved else {})

    @pytest.mark.parametrize("retry_solves", [True, False])
    def test_failed_solve_at_the_kept_rows_retried_untightened(self, model, monkeypatch,
                                                               retry_solves):
        # The solve at the kept model, at its kept rows tightened by the
        # margin 1e-5, ends MAX_ITER.  The retry solves the same rows at
        # margin 0, where the shifted plan is feasible, and is taken only
        # when it is OPTIMAL.
        cold = solve(model, [0.0, 0.0])
        warm = tmpc.warm_start_vector(cold, CFG.gamma)
        real, solved = qp.solve, []

        def failing(prob, **kw):
            solved.append(prob)
            sol = real(prob, **kw)
            if len(solved) == 1 or not retry_solves:
                sol.status = qp.QpStatus.MAX_ITER
            return sol
        monkeypatch.setattr(qp, "solve", failing)
        sol = solve(model, [0.0, 0.0], 0.5, warm_start=warm)
        at_margin, at_zero = solved
        assert at_margin.A_in is at_zero.A_in is cold.rows.A
        b = cold.rows.b.copy()
        b[-TEMPLATE.n_rows:] = 0.0        # -F x_hat at x_hat = 0
        assert np.abs(at_margin.b_in - (b - 1e-5)).max() == 0.0
        assert np.abs(at_zero.b_in - b).max() <= 1e-15
        assert sol.rows is cold.rows
        if retry_solves:
            assert sol.status == qp.QpStatus.OPTIMAL
            assert sol.x.tobytes() == real(at_zero).x.tobytes()
        else:
            assert sol.status == qp.QpStatus.MAX_ITER


class TestNominalInput:
    def test_center_with_symmetric_inputs_returns_v0(self, model):
        sol = solve(model, [0.05, 0.05])
        # Symmetrize: equal and opposite vertex inputs cancel under uniform
        # weights at the set center of a symmetric box.
        lay, x = sol.layout, sol.x.copy()
        x[lay.c] = np.array([0.2, -0.2, -0.2, 0.2])
        x[lay.s] = np.array([0.3, 0.4, 0.3, 0.4])
        stages(x, lay)[0, :2] = np.array([0.05, 0.05])
        sol = dataclasses.replace(sol, x=x)
        u, lam = tmpc.nominal_input(sol, np.array([0.05, 0.05]), TEMPLATE)
        assert lam.weights == pytest.approx([0.25] * 4, abs=1e-6)
        assert u == pytest.approx(sol.v[0], abs=1e-6)

    def test_at_vertex_adds_that_vertex_input(self, model):
        sol = solve(model, [0.0, 0.0])
        s = sol.s
        if s.min() < 1e-6:  # ensure a nondegenerate vertex for the check
            x = sol.x.copy()
            x[sol.layout.s] = np.maximum(s, 0.1)
            sol = dataclasses.replace(sol, x=x)
        x_vert = sol.z[0] + TEMPLATE.V[0] @ sol.s
        u, lam = tmpc.nominal_input(sol, x_vert, TEMPLATE)
        assert lam.weights == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-5)
        assert u == pytest.approx(sol.v[0] + vertex_input(sol.c, TEMPLATE.n_u, 0), abs=1e-4)

    def test_tracking_input_within_budget_random(self):
        rng = np.random.default_rng(9)
        for k in range(10):
            model = random_model(rng, infnorm=0.6, gain=0.25)
            x_hat = rng.uniform(-0.2, 0.2, size=2)
            sol = solve(model, x_hat, rng.uniform(-0.5, 0.5))
            if sol.status != qp.QpStatus.OPTIMAL:
                continue
            u, _ = tmpc.nominal_input(sol, x_hat, TEMPLATE)
            assert np.abs(u).max() <= (1 - CFG.beta) * EPS_U[0] + 1e-9


class TestLyapunov:
    def test_value_nonnegative_random_states(self, model):
        rng = np.random.default_rng(5)
        y_ref = np.array([0.3])
        rci_sol, _ = rci.solve_optimal_rci(model, y_ref, TEMPLATE, CFG.beta, EPS_U, Y)
        for _ in range(5):
            x_hat = rng.uniform(-0.25, 0.25, size=2)
            sol = solve(model, x_hat, y_ref)
            if sol.status == qp.QpStatus.OPTIMAL:
                assert tmpc.lyapunov_value(sol, rci_sol.cost) >= -1e-7

    def test_frozen_theta_decrease_along_nominal_loop(self, model):
        y_ref = np.array([0.4])
        rci_sol, _ = rci.solve_optimal_rci(model, y_ref, TEMPLATE, CFG.beta, EPS_U, Y)
        Q = np.eye(3)
        x_hat = np.array([0.3, -0.3])
        sol = solve(model, x_hat, y_ref)
        assert sol.status == qp.QpStatus.OPTIMAL
        lyap_prev = tmpc.lyapunov_value(sol, rci_sol.cost)
        for _ in range(40):
            u_c, _ = tmpc.nominal_input(sol, x_hat, TEMPLATE)
            m0 = np.concatenate([sol.z[0] - sol.z_s, sol.v[0] - sol.v_s])
            x_hat = qlpv.step(model, x_hat, u_c)
            sol = solve(model, x_hat, y_ref, warm_start=tmpc.warm_start_vector(sol, CFG.gamma))
            assert sol.status == qp.QpStatus.OPTIMAL
            lyap = tmpc.lyapunov_value(sol, rci_sol.cost)
            assert lyap - lyap_prev <= -(m0 @ Q @ m0) + 1e-6
            lyap_prev = lyap
        assert lyap < 1e-3


@pytest.mark.parametrize("cfg", [CFG, tmpc.ControllerConfig(N=3, beta=0.1)],
                         ids=["N2-beta0.3", "N3-beta0.1"])
def test_tube_invariant_set_certified_along_closed_loop(cfg):
    # The x_r block of every tube solution is a robust invariant set for the
    # model at the controller's beta, by the oracle's direct evaluation.
    # The loop runs the model itself, perturbs each input by a corner of the
    # beta share of the input box, and switches the reference every 10 steps.
    rng = np.random.default_rng(77)
    for _ in range(6):
        model = random_model(rng, infnorm=0.6, gain=0.25)
        x_hat, warm = rng.uniform(-0.2, 0.2, size=2), None
        for k in range(30):
            y_ref = 0.4 * (-1) ** (k // 10)
            sol = solve(model, x_hat, y_ref, cfg=cfg, warm_start=warm)
            assert sol.status == qp.QpStatus.OPTIMAL
            report = verify_rci(model.A, model.B, TEMPLATE.F, TEMPLATE.V, sol.z_s, sol.s,
                                sol.v_s, sol.c, cfg.beta, EPS_U)
            assert report.ok, (k, report)
            u, _ = tmpc.nominal_input(sol, x_hat, TEMPLATE)
            x_hat = qlpv.step(model, x_hat, u + cfg.beta * EPS_U * (-1) ** k)
            warm = tmpc.warm_start_vector(sol, cfg.gamma)


@pytest.mark.parametrize("make", [lambda: tmpc.ControllerConfig(N=3),
                                  lambda: box_template(2, 1),
                                  lambda: Hpoly.box([0.8])],
                         ids=["ControllerConfig", "PolytopeTemplate", "Hpoly"])
def test_frozen_configs_compare_and_hash_by_identity(make):
    a = make()
    assert a == a
    assert a != copy.copy(a)
    assert a != make()
    assert hash(a) == hash(a)
    assert len({a, make()}) == 2


def invariant_set_from_scratch(params, template, beta, eps_u, Y):
    """The invariant-set rows over x_r alone, written out: the vertex points
    S_j with their inputs, the vertex dynamics (A_dyn, b_dyn), mode-major, the
    box rows (box, h_box) that each vertex point keeps, and the sign rows."""
    xr, F = rci.Layout.of(template, 0), template.F
    d = qlpv.disturbance_vector(params, template, beta, eps_u)
    U = Hpoly.box((1.0 - beta) * eps_u)
    box, h_box = block_diag(Y.H @ params.C, U.H), np.concatenate([Y.h, U.h])
    S = np.zeros((xr.v, xr.stage, xr.dim))    # vertex j with its input
    S[:, :, :xr.stage] = np.eye(xr.stage)     # (z_s, v_s) lead x_r
    S[:, :xr.n_x, xr.s] = template.V
    S[:, xr.n_x:, xr.c] = np.eye(xr.v * xr.n_u).reshape(xr.v, xr.n_u, -1)
    G = np.zeros((xr.v, xr.f, xr.dim))
    G[:, :, xr.z_s], G[:, :, xr.s], G[:, :, xr.q] = -F, -np.eye(xr.f), np.eye(xr.f)
    A_dyn, b_dyn = qlpv.ModeRows(F, S, G, np.tile(-d, (xr.v, 1))).over_y(params)
    A_sign = np.zeros((2 * xr.f, xr.dim))
    A_sign[:xr.f, xr.q] = A_sign[xr.f:, xr.s] = -np.eye(xr.f)
    return S, (A_dyn, b_dyn), (box, h_box), A_sign


def assemble_from_scratch(params, x_hat, y_ref, cfg, template, Y, eps_u):
    """(A, b, H, g) of the tube QP written out in one function, row for row:
    the model rows, mode-major over the tube points and then the vertex
    points; the vertex box rows along the tube, then at the invariant set's
    vertices; its sign rows; the initial row.  The invariant-set rows and
    cost are formed over x_r alone and then placed on its columns."""
    lay, xr = rci.Layout.of(template, cfg.N + 1), rci.Layout.of(template, 0)
    F, xr_cols = template.F, slice((cfg.N + 1) * lay.stage, lay.dim)
    mode = rci.mode_rows(cfg.gamma, template, lay)
    A_mode, b_mode = mode.over_y(params)
    S, (A_dyn, b_dyn), (box, h_box), A_sign = invariant_set_from_scratch(
        params, template, cfg.beta, eps_u, Y)
    vertices = np.zeros((xr.v, lay.stage, lay.dim))
    vertices[..., xr_cols] = S
    A_box = (box @ (mode.S[:, None] + vertices)).reshape(-1, lay.dim)
    A_rci = np.zeros((len(A_dyn) + xr.v * len(box) + 2 * xr.f, lay.dim))
    A_rci[:, xr_cols] = np.vstack([A_dyn, (box @ S).reshape(-1, xr.dim), A_sign])
    # Mode i's rows at the tube points, then its rows at the vertex points.
    n_p = params.n_p
    A_model = np.concatenate([A_mode.reshape(n_p, -1, lay.dim),
                              A_rci[:len(A_dyn)].reshape(n_p, -1, lay.dim)], axis=1)
    b_model = np.concatenate([b_mode.reshape(n_p, -1), b_dyn.reshape(n_p, -1)], axis=1)
    initial = np.zeros((xr.f, lay.dim))
    initial[:, :lay.n_x], initial[:, lay.s] = -F, -np.eye(xr.f)
    A = np.vstack([A_model.reshape(-1, lay.dim), A_box, A_rci[len(A_dyn):], initial])
    b = np.concatenate([b_model.ravel(), np.tile(h_box, (cfg.N + 1) * xr.v),
                        np.tile(h_box, xr.v), np.zeros(2 * xr.f), -F @ x_hat])

    Q = np.eye(lay.stage)
    P = Q / (1.0 - cfg.gamma ** 2)
    Q1 = 10.0 * np.eye(params.n_y)
    Q2 = np.diag(np.concatenate([np.full(xr.stage, 1e-6), np.full(xr.f, 10.0),
                                 np.ones(xr.v * xr.n_u), np.ones(xr.f)]))
    H, g = np.zeros((lay.dim, lay.dim)), np.zeros(lay.dim)
    for k, D in enumerate(lay.deviations):
        W = P if k == cfg.N else Q
        H += 2.0 * D.T @ W @ D
    H_xr, g_xr = 2.0 * Q2.copy(), np.zeros(xr.dim)
    H_xr[xr.z_s, xr.z_s] += 2.0 * xr.v * params.C.T @ Q1 @ params.C
    g_xr[xr.z_s] = -2.0 * xr.v * params.C.T @ Q1 @ y_ref
    H[xr_cols, xr_cols] += H_xr
    g[xr_cols] += g_xr
    return A, b, H, g


# (cfg, n_y): no disturbance budget with N = 1, the default controller, and
# two outputs with N = 3.
SCRATCH_SETTINGS = [(tmpc.ControllerConfig(N=1, beta=0.0), 1), (CFG, 1),
                    (tmpc.ControllerConfig(N=3, beta=0.1), 2)]


def random_settings(rng, n_y):
    """Five (model with an n_y-output C, x_hat, y_ref) draws."""
    for _ in range(5):
        model = random_model(rng, infnorm=0.6, gain=0.25)
        C = np.eye(2)[:n_y] + 0.1 * rng.normal(size=(n_y, 2))
        x_hat, y_ref = rng.uniform(-0.3, 0.3, size=2), rng.uniform(-0.5, 0.5, size=n_y)
        yield dataclasses.replace(model, C=C), x_hat, y_ref


@pytest.mark.parametrize("cfg, n_y", SCRATCH_SETTINGS)
def test_invariant_set_rows_equal_assembly_from_scratch_bitwise(cfg, n_y):
    Y_n = Hpoly.box(0.8 * np.ones(n_y))
    for model, _, _ in random_settings(np.random.default_rng(37 + cfg.N), n_y):
        S, (A_dyn, b_dyn), (box, h_box), A_sign = invariant_set_from_scratch(
            model, TEMPLATE, cfg.beta, EPS_U, Y_n)
        want = (np.vstack([A_dyn, (box @ S).reshape(-1, S.shape[2]), A_sign]),
                np.concatenate([b_dyn, np.tile(h_box, len(S)), np.zeros(len(A_sign))]))
        got = rci.rci_constraint_block(model, TEMPLATE, cfg.beta, EPS_U, Y_n)
        for a, w in zip(got, want):
            assert a.shape == w.shape and a.tobytes() == w.tobytes()


@pytest.mark.parametrize("cfg, n_y", SCRATCH_SETTINGS)
def test_prebuilt_qp_equals_assembly_from_scratch_bitwise(cfg, n_y):
    Y_n = Hpoly.box(0.8 * np.ones(n_y))
    for model, x_hat, y_ref in random_settings(np.random.default_rng(31 + cfg.N), n_y):
        tq = rci.TubeQp.build(TEMPLATE, cfg.beta, EPS_U, Y_n, model.C, cfg.gamma, cfg.N + 1)
        prob, const = tq.problem(tq.at(model), y_ref, x_hat)
        built = (prob.A_in, prob.b_in, prob.H, prob.g)
        A, b, H, g = assemble_from_scratch(model, x_hat, y_ref, cfg, TEMPLATE, Y_n, EPS_U)
        # Every row is tightened by the margin 1e-5.
        for got, want in zip(built, (A, b - 1e-5, H, g)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # H is positive semidefinite by construction, so the solve skips the check.
        assert np.linalg.eigvalsh(tq.H).min() >= -1e-9 * np.abs(tq.H).max()
        assert const == float(TEMPLATE.n_vertices * y_ref @ (10.0 * np.eye(n_y)) @ y_ref)


def test_cache_never_serves_another_controllers_qp(model):
    # Each setting differs from the first in one key: cfg (beta, N), Y or eps_u.
    x_hat, y_ref = np.array([0.2, -0.1]), np.array([0.3])
    settings = [(CFG, Y, EPS_U), (tmpc.ControllerConfig(beta=0.1), Y, EPS_U),
                (tmpc.ControllerConfig(N=3), Y, EPS_U), (CFG, Hpoly.box([0.6]), EPS_U),
                (CFG, Y, np.array([0.8]))]
    for cfg, Y_k, eps_u in settings + settings[::-1]:
        sol = tmpc.solve_tmpc(x_hat, model, y_ref, cfg, TEMPLATE, Y_k, eps_u)
        A, b, H, g = assemble_from_scratch(model, x_hat, y_ref, cfg, TEMPLATE, Y_k, eps_u)
        fresh = qp.solve(qp.QpProblem.build(H, g, A, b - 1e-5), tol=1e-8)
        assert sol.qp_solution.x.tobytes() == fresh.x.tobytes()


def test_tube_qp_built_once_per_controller(model, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(rci, "mode_rows", counted("mode_rows", rci.mode_rows))
    # The cache is keyed on values, so a new controller with the defaults may
    # find its QP built by an earlier test: start from an empty cache.
    rci._tube_qp.cache_clear()
    cfg = tmpc.ControllerConfig()
    x_hat, warm = np.array([0.2, -0.1]), None
    for _ in range(5):
        sol = solve(model, x_hat, 0.3, cfg=cfg, warm_start=warm)
        assert sol.status == qp.QpStatus.OPTIMAL
        estimator.build_theta_polytope(sol, TEMPLATE, model, cfg.beta, EPS_U, cfg.gamma)
        u, _ = tmpc.nominal_input(sol, x_hat, TEMPLATE)
        x_hat, warm = qlpv.step(model, x_hat, u), tmpc.warm_start_vector(sol, cfg.gamma)
    assert (calls["eigvalsh"], calls["mode_rows"]) == (0, 1)


@pytest.mark.parametrize("n_x, n_u", [(3, 1), (2, 2)])
def test_template_of_other_dimensions_rejected(model, n_x, n_u):
    # The tube QP and both invariant-set entry points.
    template, eps_u = box_template(n_x, n_u), np.ones(n_u)
    with pytest.raises(ConfigurationError, match="template"):
        tmpc.solve_tmpc(np.zeros(n_x), model, np.zeros(1), CFG, template, Y, eps_u)
    with pytest.raises(ConfigurationError, match="template"):
        rci.solve_optimal_rci(model, np.zeros(1), template, CFG.beta, eps_u, Y)
    with pytest.raises(ConfigurationError, match="template"):
        rci.rci_constraint_block(model, template, CFG.beta, eps_u, Y)


@pytest.mark.parametrize("call", [
    lambda model: tmpc.nominal_input(solve(model, [0.1, 0.0]), np.zeros(1), TEMPLATE),
    lambda model: tmpc.nominal_input(solve(model, [0.1, 0.0]), [np.nan, 0.0], TEMPLATE),
    lambda model: solve(model, np.zeros(1)),
    lambda model: solve(model, np.zeros(3)),
    lambda model: solve(model, [0.1, 0.0], np.zeros(2)),
    lambda model: rci.solve_optimal_rci(model, np.zeros(2), TEMPLATE, CFG.beta, EPS_U, Y),
], ids=["nominal_input-x_hat", "nominal_input-nan-x_hat", "solve_tmpc-short-x_hat",
        "solve_tmpc-long-x_hat", "solve_tmpc-y_ref", "solve_optimal_rci-y_ref"])
def test_state_or_reference_of_other_size_rejected(model, call):
    with pytest.raises(ConfigurationError, match="x_hat|y_ref"):
        call(model)


@pytest.mark.parametrize("eps_u, Y_k", [(np.ones(2), Y), (EPS_U, Hpoly.box([0.8, 0.8]))],
                         ids=["eps_u-of-other-n_u", "Y-of-other-n_y"])
def test_tube_qp_of_other_input_or_output_dimensions_rejected(model, eps_u, Y_k):
    with pytest.raises(ConfigurationError):
        rci.TubeQp.build(TEMPLATE, CFG.beta, eps_u, Y_k, model.C, CFG.gamma, CFG.N + 1)


def spied(monkeypatch) -> Counter:
    """Counts of the calls that build a step's model-dependent data."""
    calls = Counter()
    for owner, name in ((qlpv, "disturbance_vector"), (qlpv.ModeRows, "over_y"),
                        (qlpv.ModelParams, "replace_theta")):
        fn = getattr(owner, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    return calls


def dual_loop(model, steps, freeze_theta, calls):
    """The closed loop of the paper for ``steps`` steps on a perturbed plant:
    tube solve, tracking input, predict, polytope, correction.  Returns how
    many steps saw a theta_hat other than the step before's, and each step's
    (x_hat, tube solution)."""
    rng = np.random.default_rng(5)
    true = model.replace_theta(model.pack() + 0.002 * rng.normal(size=model.n_theta))
    calls.clear()
    state = estimator.EstimatorState.from_model(model, x0=[0.1, -0.05],
                                                freeze_theta=freeze_theta)
    x, warm, moves, theta, tubes = np.array([0.1, -0.05]), None, 0, None, []
    for k in range(steps):
        moves += theta is not None and theta != state.theta_hat.tobytes()
        theta = state.theta_hat.tobytes()
        params = state.model()
        sol = tmpc.solve_tmpc(state.x_hat, params, np.array([0.4 * (-1) ** (k // 10)]), CFG,
                              TEMPLATE, Y, EPS_U, warm_start=warm)
        tubes.append((state.x_hat.copy(), sol))
        assert sol.status == qp.QpStatus.OPTIMAL
        u, _ = tmpc.nominal_input(sol, state.x_hat, TEMPLATE)
        x = qlpv.step(true, x, u)
        zeta_pred, P_pred = estimator.predict(state, u)
        poly = estimator.build_theta_polytope(sol, TEMPLATE, params, CFG.beta, EPS_U, CFG.gamma)
        corr = estimator.constrained_correct(state, zeta_pred, P_pred,
                                             true.C @ x + 0.01 * rng.normal(size=1), poly)
        state.zeta, state.P = corr.zeta, corr.P
        warm = tmpc.warm_start_vector(sol, CFG.gamma)
    return moves, tubes


def test_frozen_theta_builds_the_models_step_data_once(model, monkeypatch):
    calls = spied(monkeypatch)
    assert dual_loop(model, 30, True, calls)[0] == 0
    assert calls == {"disturbance_vector": 1, "over_y": 1, "replace_theta": 1}


def test_moving_theta_builds_the_models_step_data_once_per_replaced_model(model, monkeypatch):
    # theta_hat moves every step, and the estimator builds its model each
    # time; the controller builds rows only for the models it replaces its
    # own with, the first included.
    calls = spied(monkeypatch)
    moves, tubes = dual_loop(model, 30, False, calls)
    params = [sol.rows.params for _, sol in tubes]
    replaced = 1 + sum(b is not a for a, b in zip(params, params[1:]))
    assert moves == 29 and replaced < 30
    assert calls == {"disturbance_vector": replaced, "over_y": replaced, "replace_theta": 30}


def test_shifted_plan_meets_the_next_tubes_rows_kept_or_replaced(model):
    # Recursive feasibility along the dual loop: each tube's shifted plan
    # meets the rows the next tube was solved with, at the model it was
    # solved at and the initial row of the next x_hat, untightened (margin
    # 0, where the controller's retry solves), on steps that kept the
    # controller's model and on steps that replaced it, over the fixture
    # model and five random models that pass the feasibility gate.
    rng, models = np.random.default_rng(17), [model]
    while len(models) < 6:
        other = random_model(rng, infnorm=0.6, gain=0.25)
        if sysid.feasibility_gate(other, CFG, [0.1, -0.05], TEMPLATE, Y, EPS_U)[0]:
            models.append(other)
    kept = []
    for params in models:
        _, tubes = dual_loop(params, 30, False, Counter())
        for (_, sol), (x_hat, nxt) in zip(tubes, tubes[1:]):
            b = nxt.rows.b.copy()
            b[-TEMPLATE.n_rows:] = -TEMPLATE.F @ x_hat
            assert (nxt.rows.A @ sol.shifted - b).max() <= 1e-9
            kept.append(nxt.rows.params is sol.rows.params)
    assert any(kept) and not all(kept)


def test_solves_equal_solves_from_an_empty_cache(model):
    # A warm-started chain over models, repeated and equal-valued ones
    # included, gives byte for byte what each solve gives with a new TubeQp.
    other = random_model(np.random.default_rng(43), infnorm=0.6, gain=0.25)
    twin = model.replace_theta(model.pack())       # equal values, another object
    rng = np.random.default_rng(3)
    cases = [(params, rng.uniform(-0.2, 0.2, size=2), rng.uniform(-0.5, 0.5, size=1))
             for params in (model, model, other, model, twin)]
    chained, warm = [], None
    for params, x_hat, y_ref in cases:
        sol = solve(params, x_hat, y_ref, warm_start=warm)
        assert sol.rows.params is params
        chained.append((sol, warm))
        warm = tmpc.warm_start_vector(sol, CFG.gamma)
    # The second solve is at the model of its warm start's rows: it reuses them.
    d = [sol.d for sol, _ in chained]
    assert d[1] is d[0] and all(d[k] is not d[k - 1] for k in (2, 3, 4))
    for (params, x_hat, y_ref), (sol, warm) in zip(cases, chained):
        rci._tube_qp.cache_clear()
        fresh = solve(params, x_hat, y_ref, warm_start=warm)
        assert fresh.tube_qp is not sol.tube_qp
        assert sol.x.tobytes() == fresh.x.tobytes()
        assert sol.d.tobytes() == fresh.d.tobytes()
        assert ((sol.status, sol.qp_solution.iterations)
                == (fresh.status, fresh.qp_solution.iterations))


def test_step_rows_are_read_only(model):
    sol = solve(model, [0.1, 0.0], 0.3)
    rows = sol.rows
    assert rows.d is sol.d
    for part in (rows.d, rows.A, rows.b, rows.dist):
        with pytest.raises(ValueError):
            part[0] = 1.0


def test_invariant_set_qp_built_once_across_set_ups(model, monkeypatch):
    rci._tube_qp.cache_clear()
    calls = Counter()
    build = rci.TubeQp.build.__func__

    def counted(cls, *args):
        calls["build"] += 1
        return build(cls, *args)
    monkeypatch.setattr(rci.TubeQp, "build", classmethod(counted))
    y_ref = np.array([0.2])
    first, _ = rci.solve_optimal_rci(model, y_ref, TEMPLATE, CFG.beta, EPS_U, Y)
    again, _ = rci.solve_optimal_rci(model, y_ref, TEMPLATE, CFG.beta, EPS_U.copy(), Y)
    rci.rci_constraint_block(model, TEMPLATE, CFG.beta, EPS_U, Y)
    assert calls["build"] == 1
    assert first.x.tobytes() == again.x.tobytes()
    # Each call still validates its own model rows.
    broken = model.replace_theta(np.where(np.arange(model.n_theta) == 0, np.nan, model.pack()))
    with pytest.raises(ConfigurationError):
        rci.solve_optimal_rci(broken, y_ref, TEMPLATE, CFG.beta, EPS_U, Y)
