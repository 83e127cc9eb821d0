import numpy as np
import pytest

from dualmpc import estimator, qlpv, qp, tmpc
from dualmpc.polytope import Hpoly, box_template
from conftest import random_model
from oracles import kalman_filter_oracle


TEMPLATE = box_template(2, 1)
Y = Hpoly.box([0.8])
EPS_U = np.ones(1)
CFG = tmpc.ControllerConfig()


def linear_model(A, B, n_h=1):
    n_x, n_u = A.shape[0], B.shape[1]
    return qlpv.ModelParams(A=[A.astype(float)], B=[B.astype(float)],
                            W1=np.zeros((n_h, n_x + n_u)), b1=np.zeros(n_h),
                            W2=np.zeros((1, n_h)), b2=np.zeros(1),
                            C=np.eye(n_x)[:1])


@pytest.fixture
def tube_setup():
    model = random_model(np.random.default_rng(8), infnorm=0.6, gain=0.25)
    x_hat = np.array([0.2, -0.1])
    sol = tmpc.solve_tmpc(x_hat, model, np.array([0.4]), CFG, TEMPLATE, Y, EPS_U)
    assert sol.status == qp.QpStatus.OPTIMAL
    return model, x_hat, sol


class TestPredict:
    def test_identity_jacobian_zero_noise_keeps_covariance(self):
        model = linear_model(np.eye(2), np.zeros((2, 1)))
        state = estimator.EstimatorState.from_model(model)
        state.Qe = np.zeros_like(state.Qe)
        rng = np.random.default_rng(0)
        P0 = rng.normal(size=(state.zeta.size,) * 2)
        state.P = P0 @ P0.T + np.eye(state.zeta.size)
        # At (x, u) = (0, 0) the augmented jacobian of this model is exactly I.
        zeta_pred, P_pred = estimator.predict(state, np.zeros(1))
        assert np.abs(P_pred - state.P).max() <= 1e-12
        assert zeta_pred == pytest.approx(state.zeta)

    def test_theta_block_propagates_unchanged(self, rng):
        model = random_model(rng)
        state = estimator.EstimatorState.from_model(model, x0=rng.normal(size=2))
        zeta_pred, _ = estimator.predict(state, rng.normal(size=1))
        assert np.array_equal(zeta_pred[2:], state.theta_hat)

    def test_covariance_matches_triple_product_oracle(self, rng):
        model = random_model(rng)
        state = estimator.EstimatorState.from_model(model, x0=rng.normal(size=2))
        L = rng.normal(size=(44, 44))
        state.P = 0.5 * (L @ L.T) / 44 + 1e-3 * np.eye(44)
        u = rng.normal(size=1)
        _, P_pred = estimator.predict(state, u)
        J = qlpv.augmented_jacobian(state.model(), state.x_hat, u)
        ref = np.longdouble(J) @ np.longdouble(state.P) @ np.longdouble(J).T \
            + np.longdouble(state.Qe)
        ref = 0.5 * (ref + ref.T)
        assert np.abs(P_pred - ref.astype(float)).max() <= 1e-10


class TestGain:
    def test_zero_covariance_gives_zero_gain(self):
        C = np.array([[1.0, 0.0, 0.0]])
        K = estimator.gain(np.zeros((3, 3)), C, 0.5 * np.eye(1))
        assert np.abs(K).max() == 0.0

    def test_scalar_halving(self):
        K = estimator.gain(np.eye(1), np.eye(1), np.eye(1))
        assert float(K[0, 0]) == pytest.approx(0.5)

    def test_posterior_covariance_stays_psd(self, rng):
        for _ in range(20):
            L = rng.normal(size=(5, 5))
            P = L @ L.T
            C = rng.normal(size=(2, 5))
            K = estimator.gain(P, C, 0.3 * np.eye(2))
            post = (np.eye(5) - K @ C) @ P
            post = 0.5 * (post + post.T)
            assert np.linalg.eigvalsh(post).min() >= -1e-9


class TestThetaPolytope:
    def test_row_count_matches_symbolic_formula(self, tube_setup):
        model, _, sol = tube_setup
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta,
                                              EPS_U, CFG.gamma)
        expected = estimator.theta_polytope_row_count(TEMPLATE, model.n_p, 1, CFG.N)
        # 2*4 state + 3*2*4 disturbance + 12 tube + 12 shifted + 12 terminal + 48 rci
        assert expected == 8 + 24 + 12 + 12 + 12 + 48
        assert poly.A.shape == (expected, 2 + 42)
        assert poly.b.shape == (expected,)

    def test_witness_satisfies_every_row(self, tube_setup):
        model, _, sol = tube_setup
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta,
                                              EPS_U, CFG.gamma)
        assert poly.violation(poly.witness) <= 1e-9

    def test_model_step_candidate_feasible_for_theta_rows(self, tube_setup):
        # The propagated state keeps the full-set membership rows and the
        # frozen parameters keep every parameter row; the q-tightened state
        # rows are enforced by projection, not by the dynamics.
        model, x_hat, sol = tube_setup
        u_c, _ = tmpc.nominal_input(sol, x_hat, TEMPLATE)
        u = u_c + np.array([0.9 * CFG.beta])
        x_next = qlpv.step(model, x_hat, u)
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta,
                                              EPS_U, CFG.gamma)
        cand = np.concatenate([x_next, model.pack()])
        viol = poly.A @ cand - poly.b
        for name, slices in poly.families.items():
            if name == "state_q":
                continue
            for sl in slices:
                assert viol[sl].max() <= 1e-9, name

    def test_beta_zero_disturbance_rows_trivial(self, tube_setup):
        model, x_hat, _ = tube_setup
        cfg0 = tmpc.ControllerConfig(beta=0.0)
        sol0 = tmpc.solve_tmpc(x_hat, model, np.array([0.4]), cfg0, TEMPLATE, Y, EPS_U)
        poly = estimator.build_theta_polytope(sol0, TEMPLATE, model, 0.0,
                                              EPS_U, cfg0.gamma)
        for sl in poly.families["dist"]:
            assert np.abs(poly.A[sl]).max() == 0.0
            assert (poly.b[sl] >= -1e-15).all()

    def test_shifted_variables_recorded(self, tube_setup):
        model, _, sol = tube_setup
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta,
                                              EPS_U, CFG.gamma)
        z_s = sol.rci.z_s
        assert poly.z_plus == pytest.approx(z_s + CFG.gamma * (sol.z[-1] - z_s))

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_rows_are_tube_qp_rows_at_shifted_candidate(self, N):
        # For any (x, theta), the polytope rows derived from the tube QP read
        # the same as the tube QP's own rows, assembled for the model theta
        # and the estimate x, at the shifted candidate: the initial row as
        # state_s, the mode rows as tube/tube_plus/terminal, the invariant-set
        # vertex dynamics as rci, row for row.
        rng = np.random.default_rng(100 + N)
        cfg = tmpc.ControllerConfig(N=N)
        model = random_model(rng, infnorm=0.6, gain=0.25)
        sol = tmpc.solve_tmpc(np.array([0.2, -0.1]), model, np.array([0.4]), cfg,
                              TEMPLATE, Y, EPS_U)
        assert sol.status == qp.QpStatus.OPTIMAL
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, cfg.beta,
                                              EPS_U, cfg.gamma)
        cand = tmpc.warm_start_vector(sol, cfg.gamma)

        def rows(*names):
            slices = sorted((sl for n in names for sl in poly.families.get(n, [])),
                            key=lambda sl: sl.start)
            return np.concatenate([np.arange(sl.start, sl.stop) for sl in slices])

        f, v, n_p = TEMPLATE.n_rows, TEMPLATE.n_vertices, model.n_p
        n_mode = n_p * (N + 1) * f
        initial = n_mode + (N + 1) * v * (Y.H.shape[0] + 2)
        qp_rows = {
            ("state_s",): np.arange(initial, initial + f),
            ("tube", "tube_plus", "terminal"): np.arange(n_mode),
            ("rci",): np.arange(initial + f, initial + f + n_p * v * f),
        }
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=2)
            theta = model.pack() + 0.3 * rng.normal(size=model.n_theta)
            A, b = tmpc._assemble_constraints(model.replace_theta(theta), x, cfg,
                                              TEMPLATE, Y, EPS_U, sol.rci.d, sol.layout)
            qp_resid = A @ cand - b
            poly_resid = poly.A @ np.concatenate([x, theta]) - poly.b
            for names, idx in qp_rows.items():
                assert np.abs(poly_resid[rows(*names)] - qp_resid[idx]).max() <= 1e-12, names


class TestConstrainedCorrect:
    def test_interior_update_equals_vanilla_ekf(self, tube_setup):
        model, x_hat, sol = tube_setup
        state = estimator.EstimatorState.from_model(model, x0=x_hat)
        zeta_pred, P_pred = estimator.predict(state, np.array([0.1]))
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta,
                                              EPS_U, CFG.gamma)
        # A measurement equal to the prediction keeps the update at the prior
        # mean; force feasibility by replacing the mean with the witness.
        y = state.output_map() @ poly.witness
        res_free = estimator.constrained_correct(state, poly.witness.copy(), P_pred,
                                                 y, None)
        res = estimator.constrained_correct(state, poly.witness.copy(), P_pred,
                                            y, poly)
        if poly.violation(res_free.zeta) <= 0:
            assert res.projection_loss == 0.0
            assert res.zeta == pytest.approx(res_free.zeta, abs=1e-12)

    def test_zero_innovation_preserves_prediction(self, rng):
        model = random_model(rng)
        state = estimator.EstimatorState.from_model(model, x0=rng.normal(size=2))
        zeta_pred, P_pred = estimator.predict(state, rng.normal(size=1))
        y = state.output_map() @ zeta_pred
        res = estimator.constrained_correct(state, zeta_pred, P_pred, y, None)
        assert res.zeta == pytest.approx(zeta_pred, abs=1e-12)

    def test_halfspace_toy_projection(self):
        # 1-D state, theta frozen: posterior mean 1.5 with unit posterior
        # variance projected onto {x <= 1} lands at 1.
        model = linear_model(np.array([[0.5]]), np.array([[1.0]]))
        state = estimator.EstimatorState.from_model(model, freeze_theta=True)
        state.Re = 2.0 * np.eye(1)
        n = state.zeta.size
        P_pred = np.zeros((n, n))
        P_pred[0, 0] = 2.0
        zeta_pred = np.zeros(n)
        zeta_pred[0] = 1.0
        A = np.zeros((1, n))
        A[0, 0] = 1.0
        poly = estimator.FeasibilityPolytope(
            A=A, b=np.array([1.0]), z_plus=np.zeros(1), v_plus=np.zeros(1),
            witness=np.zeros(n), families={}, x_rows=np.array([True]))
        y = np.array([2.0])  # update: 1 + 0.5*(2-1) = 1.5, variance (1-K)*2 = 1
        res = estimator.constrained_correct(state, zeta_pred, P_pred, y, poly)
        assert res.zeta[0] == pytest.approx(1.0, abs=1e-7)
        assert res.projection_loss == pytest.approx(0.25, abs=1e-6)

    def test_empty_polytope_falls_back_to_previous_theta(self, tube_setup):
        model, x_hat, sol = tube_setup
        state = estimator.EstimatorState.from_model(model, x0=x_hat)
        zeta_pred, P_pred = estimator.predict(state, np.array([0.0]))
        n = state.zeta.size
        A = np.zeros((2, n))
        A[0, 2] = 1.0
        A[1, 2] = -1.0  # theta_0 <= -1 and theta_0 >= 1: empty
        A_x = np.zeros((1, n))
        A_x[0, 0] = 1.0
        poly = estimator.FeasibilityPolytope(
            A=np.vstack([A, A_x]), b=np.array([-1.0, -1.0, 10.0]),
            z_plus=np.zeros(2), v_plus=np.zeros(1), witness=np.zeros(n),
            families={}, x_rows=np.array([False, False, True]))
        res = estimator.constrained_correct(state, zeta_pred, P_pred,
                                            np.array([0.3]), poly)
        assert res.fallback
        assert np.array_equal(res.zeta[2:], state.theta_hat)

    def test_frozen_theta_mode_never_touches_theta(self, rng):
        model = random_model(rng)
        state = estimator.EstimatorState.from_model(model, freeze_theta=True)
        theta0 = state.theta_hat.copy()
        for _ in range(30):
            u = rng.uniform(-1, 1, size=1)
            zeta_pred, P_pred = estimator.predict(state, u)
            y = rng.normal(scale=0.3, size=1)
            res = estimator.constrained_correct(state, zeta_pred, P_pred, y, None)
            state.zeta, state.P = res.zeta, res.P
            assert np.array_equal(state.theta_hat, theta0)
            state.assert_valid_covariance()


def test_reduces_to_textbook_kalman_filter(rng):
    A = np.array([[0.8, 0.2], [0.0, 0.7]])
    B = np.array([[1.0], [0.5]])
    model = linear_model(A, B)
    state = estimator.EstimatorState.from_model(model, freeze_theta=True)
    n_x = 2
    Q_kf = state.Qe[:n_x, :n_x]
    R_kf = state.Re
    P0_kf = np.eye(n_x)
    u_seq = [rng.uniform(-1, 1, size=1) for _ in range(30)]
    # Simulated measurements from the true linear system plus noise.
    x_true = np.zeros(2)
    y_seq = []
    for u in u_seq:
        x_true = A @ x_true + B @ u
        y_seq.append(model.C @ x_true + rng.normal(scale=0.1, size=1))
    ref = kalman_filter_oracle(A, B, model.C, Q_kf, R_kf,
                               np.zeros(2), P0_kf, u_seq, y_seq)
    for u, y, x_ref in zip(u_seq, y_seq, ref):
        zeta_pred, P_pred = estimator.predict(state, u)
        res = estimator.constrained_correct(state, zeta_pred, P_pred, y, None)
        state.zeta, state.P = res.zeta, res.P
        assert np.abs(state.x_hat - x_ref).max() <= 1e-9


def test_covariance_valid_over_long_random_run(rng):
    model = random_model(rng)
    state = estimator.EstimatorState.from_model(model)
    for _ in range(200):
        u = rng.uniform(-1, 1, size=1)
        zeta_pred, P_pred = estimator.predict(state, u)
        y = rng.normal(scale=0.5, size=1)
        res = estimator.constrained_correct(state, zeta_pred, P_pred, y, None)
        state.zeta, state.P = res.zeta, res.P
    state.assert_valid_covariance()
