import dataclasses
import warnings

import numpy as np
import pytest

from dualmpc import estimator, qlpv, qp, rci, tmpc
from dualmpc.errors import ConfigurationError
from dualmpc.polytope import Hpoly, box_template
from conftest import random_model
from oracles import augmented_jacobian, dense_predicted_covariance, kalman_filter_oracle


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


def settled(sol):
    """sol with its plan settled at the set center, z_k = z_s and v_k = v_s,
    up to one unit in the last place at odd stages."""
    z_s, v_s, lay = sol.z_s, sol.v_s, sol.layout
    odd = (np.arange(lay.stages) % 2)[:, None]
    x = sol.x.copy()
    stages = x[:lay.center.start].reshape(lay.stages, lay.stage)
    stages[:, :lay.n_x], stages[:, lay.n_x:] = z_s + odd * np.spacing(z_s), v_s
    return dataclasses.replace(sol, x=x)


def witness(sol, model):
    """The shifted first center with the generating parameters, which
    satisfies every row of the polytope built from sol at model."""
    return np.concatenate([sol.z[1], model.pack()])


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
        J = augmented_jacobian(*qlpv.jacobians(state.model(), state.x_hat, u)[1:])
        ref = np.longdouble(J) @ np.longdouble(state.P) @ np.longdouble(J).T \
            + np.longdouble(state.Qe)
        ref = 0.5 * (ref + ref.T)
        assert np.abs(P_pred - ref.astype(float)).max() <= 1e-10

    @pytest.mark.parametrize("n_x,n_u,n_p", [(2, 1, 3), (3, 2, 2), (1, 1, 1)])
    def test_block_covariance_matches_dense_oracle(self, rng, n_x, n_u, n_p):
        # predict moves only the x rows and columns of P; the oracle forms
        # the full 44 x 44 (for the paper's shapes) J P J' + Qe.
        for _ in range(20):
            model = random_model(rng, n_x=n_x, n_u=n_u, n_p=n_p)
            state = estimator.EstimatorState.from_model(model, x0=rng.normal(size=n_x))
            n = state.zeta.size
            L = rng.normal(size=(n, n))
            state.P = L @ L.T / n + 1e-3 * np.eye(n)
            state.Qe = np.diag(rng.uniform(0.0, 1e-3, size=n))
            u = rng.normal(size=n_u)
            _, P_pred = estimator.predict(state, u)
            ref = dense_predicted_covariance(*qlpv.jacobians(state.model(), state.x_hat, u)[1:],
                                             state.P, state.Qe)
            assert np.abs(P_pred - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.array_equal(P_pred, P_pred.T)

    def test_frozen_theta_rows_of_prior_and_posterior_exactly_zero(self, rng):
        model = random_model(rng)
        state = estimator.EstimatorState.from_model(model, x0=rng.normal(size=2),
                                                    freeze_theta=True)
        for _ in range(10):
            zeta_pred, P_pred = estimator.predict(state, rng.uniform(-1, 1, size=1))
            assert not P_pred[2:].any() and not P_pred[:, 2:].any()
            res = estimator.constrained_correct(state, zeta_pred, P_pred,
                                                rng.normal(size=1), None)
            assert not res.P[2:].any() and not res.P[:, 2:].any()
            state.zeta, state.P = res.zeta, res.P


class TestGain:
    def test_zero_covariance_gives_zero_gain(self):
        C = np.array([[1.0, 0.0, 0.0]])
        K = estimator.gain(np.zeros((3, 3)), C, 0.5 * np.eye(1))
        assert np.abs(K).max() == 0.0

    def test_scalar_halving(self):
        K = estimator.gain(np.eye(1), np.eye(1), np.eye(1))
        assert float(K[0, 0]) == pytest.approx(0.5)

    def test_innovation_covariance_not_positive_definite_raises(self):
        # S = C P C' + Re = 1 - 2 < 0: no Cholesky factor, no gain.
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            estimator.gain(np.eye(1), np.eye(1), -2.0 * np.eye(1))

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
    @pytest.mark.parametrize("n_u", [1, 2])
    def test_families_partition_rows(self, n_u):
        rng = np.random.default_rng(8)
        template = box_template(2, n_u)
        eps_u = np.ones(n_u)
        model = random_model(rng, n_u=n_u, infnorm=0.6, gain=0.25)
        sol = tmpc.solve_tmpc(np.array([0.2, -0.1]), model, np.array([0.4]), CFG,
                              template, Y, eps_u)
        assert sol.status == qp.QpStatus.OPTIMAL
        poly = estimator.build_theta_polytope(sol, template, model, CFG.beta,
                                              eps_u, CFG.gamma)
        f = template.n_rows
        starts = sorted(sl.start for slices in poly.families.values() for sl in slices)
        assert starts == list(range(0, len(poly.b), f))
        assert all(sl.stop - sl.start == f
                   for slices in poly.families.values() for sl in slices)
        assert poly.A.shape == (len(poly.b), 2 + model.n_theta)
        # One input corner per +/- pair: n_p 2^(n_u - 1) blocks of f rows.
        assert len(poly.families["dist"]) == model.n_p * 2 ** (n_u - 1)
        assert len(poly.families["state_s"]) == 1
        assert set(poly.families) <= {"state_s", "dist", "tube", "tube_plus",
                                      "terminal", "rci"}

    def test_dist_rows_match_their_formula_across_steps_and_model_shapes(self):
        # The dist rows come with each model's rows.  At two steps of
        # a warm-started loop, for two models that share the tube QP
        # but not theta's layout, block (i, p) reads F B_i r_p <= d at the
        # dist point (0, r_p): F[:, k] r_p[l] on B_i's entry (k, l), which
        # follows the n_p A_i in theta, and zero on x and every other entry.
        n_x, n_u = 2, 2
        template, eps_u = box_template(n_x, n_u), np.ones(n_u)
        f = template.n_rows
        for n_p, n_h in ((3, 3), (2, 4)):
            model = random_model(np.random.default_rng(8), n_u=n_u, n_p=n_p, n_h=n_h,
                                 infnorm=0.6, gain=0.25)
            x_hat, warm = np.array([0.2, -0.1]), None
            for _ in range(2):
                sol = tmpc.solve_tmpc(x_hat, model, np.array([0.4]), CFG, template, Y,
                                      eps_u, warm_start=warm)
                assert sol.status == qp.QpStatus.OPTIMAL
                poly = estimator.build_theta_polytope(sol, template, model, CFG.beta,
                                                      eps_u, CFG.gamma)
                r = sol.tube_qp.dist_points[:, n_x:]
                assert len(r) == 2
                expected = np.zeros((n_p, len(r), f, n_x + model.n_theta))
                for i in range(n_p):
                    for p in range(len(r)):
                        for k in range(n_x):
                            for l in range(n_u):
                                col = n_x + n_p * n_x * n_x + (i * n_x + k) * n_u + l
                                expected[i, p, :, col] = template.F[:, k] * r[p, l]
                dist = poly.families["dist"]
                A = np.vstack([poly.A[sl] for sl in dist])
                assert np.array_equal(A, expected.reshape(-1, n_x + model.n_theta))
                assert np.array_equal(np.concatenate([poly.b[sl] for sl in dist]),
                                      np.tile(sol.d, n_p * len(r)))
                # Bytewise the rows formed from this step's model.
                rows = qlpv.theta_rows(model, template.F, sol.tube_qp.dist_points)
                assert A[:, n_x:].tobytes() == rows.reshape(len(A), -1).tobytes()
                u = tmpc.nominal_input(sol, x_hat, template)[0]
                x_hat, warm = qlpv.step(model, x_hat, u), tmpc.warm_start_vector(sol, CFG.gamma)

    def test_witness_satisfies_every_row(self, tube_setup):
        model, _, sol = tube_setup
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta,
                                              EPS_U, CFG.gamma)
        assert poly.violation(witness(sol, model)) <= 1e-9

    def test_model_step_candidate_feasible_for_theta_rows(self, tube_setup):
        # The propagated state keeps the full-set membership rows and the
        # frozen parameters keep every parameter row.
        model, x_hat, sol = tube_setup
        u_c, _ = tmpc.nominal_input(sol, x_hat, TEMPLATE)
        u = u_c + np.array([0.9 * CFG.beta])
        x_next = qlpv.step(model, x_hat, u)
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta,
                                              EPS_U, CFG.gamma)
        cand = np.concatenate([x_next, model.pack()])
        viol = poly.A @ cand - poly.b
        for name, slices in poly.families.items():
            for sl in slices:
                assert viol[sl].max() <= 1e-9, name

    def test_beta_zero_disturbance_rows_trivial(self, tube_setup):
        model, x_hat, _ = tube_setup
        cfg0 = tmpc.ControllerConfig(beta=0.0)
        sol0 = tmpc.solve_tmpc(x_hat, model, np.array([0.4]), cfg0, TEMPLATE, Y, EPS_U)
        poly = estimator.build_theta_polytope(sol0, TEMPLATE, model, 0.0,
                                              EPS_U, cfg0.gamma)
        assert len(poly.families["dist"]) == model.n_p
        for sl in poly.families["dist"]:
            assert np.abs(poly.A[sl]).max() == 0.0
            assert (poly.b[sl] >= -1e-15).all()

    def test_gamma_of_another_controller_rejected(self, tube_setup):
        model, _, sol = tube_setup
        with pytest.raises(ConfigurationError):
            estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta, EPS_U, 0.9)

    def test_beta_or_input_bounds_of_another_controller_rejected(self, tube_setup):
        # Other beta or eps_u would give dist rows that do not match the
        # tube's disturbance allowance d.
        model, _, sol = tube_setup
        assert CFG.beta == 0.3
        with pytest.raises(ConfigurationError, match="beta"):
            estimator.build_theta_polytope(sol, TEMPLATE, model, 0.2, EPS_U, CFG.gamma)
        with pytest.raises(ConfigurationError, match="beta"):
            estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta, 0.5 * EPS_U,
                                           CFG.gamma)

    def test_solution_without_stages_rejected(self):
        # The invariant-set solve has no stages, so no shifted plan, and the
        # polytope, which is formed at that plan, refuses it too.
        model = random_model(np.random.default_rng(42), infnorm=0.6, gain=0.25)
        sol, _ = rci.solve_optimal_rci(model, np.array([0.4]), TEMPLATE, CFG.beta, EPS_U, Y)
        with pytest.raises(ConfigurationError, match="without stages"):
            sol.shifted
        with pytest.raises(ConfigurationError, match="without stages"):
            estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta, EPS_U, CFG.gamma)

    @pytest.mark.parametrize("n_p, n_h", [(2, 3), (3, 4)], ids=["other-n_p", "other-n_h"])
    def test_model_of_another_theta_layout_rejected(self, tube_setup, n_p, n_h):
        # The dist rows travel with the tube's rows, in its model's theta layout.
        _, _, sol = tube_setup
        other = random_model(np.random.default_rng(9), n_p=n_p, n_h=n_h, infnorm=0.6, gain=0.25)
        with pytest.raises(ConfigurationError, match="theta layout"):
            estimator.build_theta_polytope(sol, TEMPLATE, other, CFG.beta, EPS_U, CFG.gamma)

    def test_settled_plan_leaves_no_roundoff_rows(self, tube_setup):
        # A settled plan makes every tube point z_k - z_s roundoff: the rows
        # it would give read 0 <= 0 with random normals of size 1e-16.  They
        # must not reach the polytope, and the projection must still solve.
        model, x_hat, sol = tube_setup
        sol = settled(sol)
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta,
                                              EPS_U, CFG.gamma)
        assert np.abs(poly.A).max(axis=1).min() > 1e-12 * np.abs(poly.A).max()
        assert poly.violation(witness(sol, model)) <= 1e-12
        state = estimator.EstimatorState.from_model(model, x0=x_hat)
        zeta_pred, P_pred = estimator.predict(state, sol.v[0])
        y = state.output_map() @ zeta_pred + 2.0
        res = estimator.constrained_correct(state, zeta_pred, P_pred, y, poly)
        assert res.projection_loss > 0.0
        assert not res.fallback
        assert poly.violation(res.zeta) <= 1e-9

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_rows_are_tube_qp_rows_at_shifted_candidate(self, N):
        # For any (x, theta), the polytope rows derived from the tube QP read
        # the same as the tube QP's own rows, assembled for the model theta
        # and the estimate x, at the shifted candidate: the initial row (the
        # QP's last f rows) as state_s, the model rows at the tube points as
        # tube/tube_plus/terminal and at the invariant-set vertex points as
        # rci, block for kept block.  The blocks left out hold at the
        # candidate whatever (x, theta) is.
        rng = np.random.default_rng(100 + N)
        cfg = tmpc.ControllerConfig(N=N)
        model = random_model(rng, infnorm=0.6, gain=0.25)
        solved = tmpc.solve_tmpc(np.array([0.2, -0.1]), model, np.array([0.4]), cfg,
                                 TEMPLATE, Y, EPS_U)
        assert solved.status == qp.QpStatus.OPTIMAL
        f, n_p = TEMPLATE.n_rows, model.n_p

        for sol in (solved, settled(solved)):
            poly = estimator.build_theta_polytope(sol, TEMPLATE, model, cfg.beta,
                                                  EPS_U, cfg.gamma)
            cand = tmpc.warm_start_vector(sol, cfg.gamma).shifted
            tq = sol.tube_qp
            kept = sol.rows.mode.over_theta(model, cand)[2]
            # Row indices of the model rows, mode-major over the points.
            idx = np.arange(n_p * len(kept) * f).reshape(n_p, len(kept), f)
            tube = np.arange(len(kept)) <= N

            def rows(*names):
                slices = sorted((sl for n in names for sl in poly.families.get(n, [])),
                                key=lambda sl: sl.start)
                return np.array([i for sl in slices for i in range(sl.start, sl.stop)], int)

            dropped = idx[:, ~kept].ravel()
            for _ in range(5):
                x = rng.uniform(-0.5, 0.5, size=2)
                theta = model.pack() + 0.3 * rng.normal(size=model.n_theta)
                # The step's rows at theta, with the frozen d of sol.rows.mode.
                A_model, b_model = sol.rows.mode.over_y(model.replace_theta(theta))
                A = np.concatenate([A_model, tq.A_fixed, tq.initial])
                b = np.concatenate([b_model, tq.b_fixed, -TEMPLATE.F @ x])
                qp_rows = {
                    ("state_s",): np.arange(len(b) - f, len(b)),
                    ("tube", "tube_plus", "terminal"): idx[:, kept & tube].ravel(),
                    ("rci",): idx[:, kept & ~tube].ravel(),
                }
                qp_resid = A @ cand - b
                poly_resid = poly.A @ np.concatenate([x, theta]) - poly.b
                for names, idx_qp in qp_rows.items():
                    assert len(rows(*names)) == len(idx_qp), names
                    assert np.abs(poly_resid[rows(*names)] - qp_resid[idx_qp]).max(initial=0.0) \
                        <= 1e-12, names
                assert qp_resid[dropped].max(initial=-np.inf) <= 1e-12

    def test_rows_come_from_the_solution(self, tube_setup):
        # Rows built for another model between the solve and the polytope
        # leave the polytope byte for byte as it is without them.
        model, x_hat, sol = tube_setup
        other = random_model(np.random.default_rng(9), n_p=2, infnorm=0.6, gain=0.25)
        assert sol.tube_qp.at(other).params is other is not sol.rows.params
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta, EPS_U, CFG.gamma)
        again = tmpc.solve_tmpc(x_hat, model, np.array([0.4]), CFG, TEMPLATE, Y, EPS_U)
        want = estimator.build_theta_polytope(again, TEMPLATE, model, CFG.beta, EPS_U,
                                              CFG.gamma)
        assert again.x.tobytes() == sol.x.tobytes()
        assert poly.A.tobytes() == want.A.tobytes() and poly.b.tobytes() == want.b.tobytes()

    def test_rows_formed_at_the_warm_start_plan(self, tube_setup, monkeypatch):
        # The polytope's model rows are formed at exactly the plan the warm
        # start is tested at, whether or not the warm start was taken first:
        # the solution is the warm start, and that array is its read-only
        # shifted plan.
        model, _, sol = tube_setup
        seen = []
        over_theta = qlpv.ModeRows.over_theta

        def recording(rows, params, y):
            seen.append(y)
            return over_theta(rows, params, y)

        monkeypatch.setattr(qlpv.ModeRows, "over_theta", recording)
        first = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta, EPS_U, CFG.gamma)
        warm = tmpc.warm_start_vector(sol, CFG.gamma)
        again = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta, EPS_U, CFG.gamma)
        plan = rci.candidate_shift(sol.x, sol.layout, CFG.gamma)
        assert len(seen) == 2
        for y in seen:
            assert y.tobytes() == warm.shifted.tobytes() == plan.tobytes()
        assert first.A.tobytes() == again.A.tobytes() and first.b.tobytes() == again.b.tobytes()
        assert not warm.shifted.flags.writeable
        with pytest.raises(ConfigurationError):
            tmpc.warm_start_vector(sol, 0.9)


@pytest.mark.parametrize("case", ["zeta-shorter-than-the-prior", "Re-of-other-n_y"])
def test_state_of_other_dimensions_rejected(case):
    # A zeta of another length than the prior's (x, theta), with covariances
    # that match it, or an Re of another size than the prior's outputs.
    state = estimator.EstimatorState.from_model(random_model(np.random.default_rng(1)))
    n = state.zeta.size - 1
    fields = (dict(zeta=state.zeta[:n], P=state.P[:n, :n], Qe=state.Qe[:n, :n])
              if case.startswith("zeta") else dict(Re=np.eye(3)))
    with pytest.raises(ConfigurationError):
        dataclasses.replace(state, **fields)


@pytest.mark.parametrize("entry, value, match", [
    ((0, 1), 1e-3, "symmetry"), ((0, 0), -1.0, "positive semidefiniteness")],
    ids=["asymmetric", "indefinite"])
def test_invalid_covariance_rejected(entry, value, match):
    state = estimator.EstimatorState.from_model(random_model(np.random.default_rng(1)))
    P = state.P.copy()
    P[entry] = value
    with pytest.raises(ConfigurationError, match=match):
        dataclasses.replace(state, P=P)


@pytest.mark.parametrize("name", ["zeta", "P", "Qe", "Re", "predicted", "y"])
def test_reassigned_or_predicted_arrays_of_other_dimensions_rejected(name):
    # The loop reassigns the state's fields every step; one of the wrong
    # shape is refused by the next predict and correction, never by LAPACK,
    # and a measurement of another size is not broadcast.
    model = dataclasses.replace(random_model(np.random.default_rng(1)), C=np.eye(2))
    state = estimator.EstimatorState.from_model(model)
    zeta_pred, P_pred = estimator.predict(state, np.zeros(1))
    y = np.zeros(1 if name == "y" else 2)
    if name == "predicted":
        zeta_pred, P_pred = zeta_pred[:-1], P_pred[:-1, :-1]
    elif name != "y":
        n = state.zeta.size - 1
        setattr(state, name, {"zeta": state.zeta[:n], "P": state.P[:n, :n],
                              "Qe": state.Qe[:n, :n], "Re": np.eye(3)}[name])
        with pytest.raises(ConfigurationError, match="dimensions"):
            estimator.predict(state, np.zeros(1))
    with pytest.raises(ConfigurationError, match="dimensions"):
        estimator.constrained_correct(state, zeta_pred, P_pred, y, None)


class TestConstrainedCorrect:
    def test_interior_update_equals_vanilla_ekf(self, tube_setup):
        model, x_hat, sol = tube_setup
        state = estimator.EstimatorState.from_model(model, x0=x_hat)
        zeta_pred, P_pred = estimator.predict(state, np.array([0.1]))
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta,
                                              EPS_U, CFG.gamma)
        # A measurement equal to the prediction keeps the update at the prior
        # mean; force feasibility by replacing the mean with the witness.
        center = witness(sol, model)
        y = state.output_map() @ center
        res_free = estimator.constrained_correct(state, center.copy(), P_pred,
                                                 y, None)
        res = estimator.constrained_correct(state, center.copy(), P_pred,
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

    @pytest.mark.parametrize("with_poly", [False, True], ids=["no-polytope", "polytope"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_measurement_rejected_before_the_update(self, tube_setup, bad,
                                                                with_poly):
        # Without a polytope a NaN y gave a NaN zeta, and an inf y a
        # non-finite one after a RuntimeWarning; with one, the projection
        # rejected its data later.  No warning precedes the error now.
        model, x_hat, sol = tube_setup
        state = estimator.EstimatorState.from_model(model, x0=x_hat)
        zeta_pred, P_pred = estimator.predict(state, np.array([0.1]))
        poly = (estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta, EPS_U, CFG.gamma)
                if with_poly else None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="measurement must be finite"):
                estimator.constrained_correct(state, zeta_pred, P_pred, np.array([bad]), poly)

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
        poly = estimator.FeasibilityPolytope(A=A, b=np.array([1.0]))
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
            A=np.vstack([A, A_x]), b=np.array([-1.0, -1.0, 10.0]))
        res = estimator.constrained_correct(state, zeta_pred, P_pred,
                                            np.array([0.3]), poly)
        assert res.fallback
        assert np.array_equal(res.zeta[2:], state.theta_hat)

    def test_frozen_theta_projects_x_alone_onto_the_polytope(self, tube_setup):
        # A measurement off the plan pulls x out of the first shifted set;
        # a theta of zero covariance stays put while x alone is projected.
        model, x_hat, sol = tube_setup
        poly = estimator.build_theta_polytope(sol, TEMPLATE, model, CFG.beta,
                                              EPS_U, CFG.gamma)
        state = estimator.EstimatorState.from_model(model, x0=x_hat, freeze_theta=True)
        zeta_pred, P_pred = estimator.predict(state, sol.v[0])
        y = state.output_map() @ zeta_pred + 5.0
        res = estimator.constrained_correct(state, zeta_pred, P_pred, y, poly)
        assert np.array_equal(res.zeta[2:], state.theta_hat)
        assert not res.P[2:].any() and not res.P[:, 2:].any()
        (state_s,) = poly.families["state_s"]
        assert (poly.A[state_s] @ res.zeta - poly.b[state_s]).max() <= 1e-9
        assert res.projection_loss > 0.0
        assert poly.violation(res.zeta) <= 1e-9
        assert not res.fallback

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
            assert not state.P[2:].any() and not state.P[:, 2:].any()
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


class TestModelMemo:
    def test_same_model_while_theta_hat_keeps_its_bytes(self, rng):
        state = estimator.EstimatorState.from_model(random_model(rng))
        model = state.model()
        assert state.model() is model
        state.zeta = state.zeta.copy()         # a new array, the same bytes
        assert state.model() is model
        assert model.pack().tobytes() == state.theta_hat.tobytes()
        state.zeta = state.zeta + np.r_[np.zeros(state.n_x), 1e-12, np.zeros(model.n_theta - 1)]
        moved = state.model()
        assert moved is not model
        assert moved.pack().tobytes() == state.theta_hat.tobytes()

    def test_model_shares_no_memory_with_zeta(self, rng):
        state = estimator.EstimatorState.from_model(random_model(rng))
        model = state.model()
        assert not any(np.shares_memory(part, state.zeta)
                       for part in (*model.A, *model.B, model.W1, model.b1, model.W2, model.b2))
        a00 = model.A[0][0, 0]
        state.zeta[state.n_x] += 1.0           # theta's first entry is A_0[0, 0]
        assert model.A[0][0, 0] == a00
        assert state.model().A[0][0, 0] == a00 + 1.0
        with pytest.raises(ValueError):
            model.A[0][0, 0] = 0.0
