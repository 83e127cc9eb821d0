import copy
import dataclasses

import numpy as np
import pytest

from dualmpc import qlpv
from dualmpc.errors import ConfigurationError
from conftest import random_model
from oracles import augmented_jacobian, central_difference_jacobian, hull_membership_lp

# (n_x, n_u, n_p) of the Jacobian tests.
SHAPES = [(2, 1, 3), (3, 2, 2), (1, 1, 1)]
SHAPE_IDS = ["2-1-3", "3-2-2", "1-1-1"]


def test_paper_configuration_has_42_parameters(rng):
    assert random_model(rng, n_x=2, n_u=1, n_p=3, n_h=3).n_theta == 42


def test_pack_unpack_roundtrip_bit_exact(rng, small_model):
    theta = small_model.pack()
    assert theta.size == 42
    rebuilt = small_model.replace_theta(theta)
    assert np.array_equal(rebuilt.pack(), theta)
    assert np.array_equal(rebuilt.C, small_model.C)
    for wrong in (np.append(theta, 0.0), theta[:-1]):
        with pytest.raises(ConfigurationError, match="theta has"):
            small_model.replace_theta(wrong)


def test_replace_theta_equals_validated_model(rng, small_model):
    m = small_model
    n_x, n_u, n_p, n_h = m.n_x, m.n_u, m.n_p, m.n_h
    theta = rng.normal(size=m.n_theta)
    cuts = np.cumsum([n_p * n_x * n_x, n_p * n_x * n_u, n_h * (n_x + n_u), n_h, n_p * n_h])
    A, B, W1, b1, W2, b2 = np.split(theta, cuts)
    ref = qlpv.ModelParams(A=list(A.reshape(n_p, n_x, n_x)), B=list(B.reshape(n_p, n_x, n_u)),
                           W1=W1.reshape(n_h, n_x + n_u), b1=b1, W2=W2.reshape(n_p, n_h),
                           b2=b2, C=m.C.copy())
    fast = m.replace_theta(theta)
    assert type(fast) is qlpv.ModelParams and vars(fast).keys() == vars(ref).keys()
    for f in dataclasses.fields(qlpv.ModelParams):
        a, b = np.asarray(getattr(fast, f.name)), np.asarray(getattr(ref, f.name))
        assert a.shape == b.shape and np.array_equal(a, b), f.name
    assert fast.C is not m.C and not np.shares_memory(fast.C, m.C)
    with pytest.raises(ConfigurationError, match="theta has"):
        m.replace_theta(theta[:-1])


def test_model_without_modes_rejected(small_model):
    m = small_model
    with pytest.raises(ConfigurationError, match="one matrix per scheduling mode"):
        dataclasses.replace(m, A=[], B=[], W2=m.W2[:0], b2=m.b2[:0])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["A", "B", "W1", "b1", "W2", "b2", "C"])
def test_non_finite_parameters_rejected(small_model, name, bad):
    # Before the check, a NaN in C raised LinAlgError from the rank test, and
    # a NaN in W1 gave a model whose tube QP solved while its filter went NaN.
    value = copy.deepcopy(getattr(small_model, name))
    (value[-1] if isinstance(value, list) else value).flat[0] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        dataclasses.replace(small_model, **{name: value})


@pytest.mark.parametrize("name, edit, match", [
    ("A", lambda m: m.A[:-1] + [m.A[-1][:, :1]], "A_i shape"),
    ("B", lambda m: m.B[:-1] + [np.hstack([m.B[-1], m.B[-1]])], "B_i shape"),
    ("W1", lambda m: m.W1[:, 1:], "hidden-layer"),
    ("b1", lambda m: m.b1[1:], "hidden-layer"),
    ("W2", lambda m: m.W2[:, 1:], "output-layer"),
    ("b2", lambda m: m.b2[1:], "output-layer"),
    ("C", lambda m: np.hstack([m.C, m.C]), "column count"),
    ("C", lambda m: np.vstack([m.C, 2.0 * m.C]), "full row rank"),
], ids=["A_i", "B_i", "W1", "b1", "W2", "b2", "C-columns", "C-rank"])
def test_parameters_of_inconsistent_shape_rejected(small_model, name, edit, match):
    # Each block's shape must fit n_x = A_0's rows, n_u = B_0's columns,
    # n_p = len(A) and n_h = len(b1), and C must have full row rank.
    with pytest.raises(ConfigurationError, match=match):
        dataclasses.replace(small_model, **{name: edit(small_model)})


class TestScheduling:
    def test_zero_network_gives_uniform(self, small_model):
        m = small_model
        zero = qlpv.ModelParams(A=m.A, B=m.B, W1=0 * m.W1, b1=0 * m.b1,
                                W2=0 * m.W2, b2=0 * m.b2, C=m.C)
        p = qlpv.scheduling(zero, np.array([0.3, -0.5]), np.array([0.7]))
        assert p == pytest.approx([1 / 3] * 3)

    def test_log_outputs_give_known_ratios(self, small_model):
        # Drive the final layer directly: b2 = log(1,2,3) with zero W2.
        m = small_model
        model = qlpv.ModelParams(A=m.A, B=m.B, W1=m.W1, b1=m.b1,
                                 W2=0 * m.W2, b2=np.log([1.0, 2.0, 3.0]), C=m.C)
        p = qlpv.scheduling(model, np.zeros(2), np.zeros(1))
        assert p == pytest.approx([1 / 6, 2 / 6, 3 / 6])

    def test_overflow_safe(self, small_model):
        m = small_model
        model = qlpv.ModelParams(A=m.A, B=m.B, W1=m.W1, b1=m.b1,
                                 W2=0 * m.W2, b2=np.array([1000.0, 1000.0, 1000.0]), C=m.C)
        p = qlpv.scheduling(model, np.zeros(2), np.zeros(1))
        assert np.isfinite(p).all()
        assert p == pytest.approx([1 / 3] * 3)

    def test_simplex_invariant_random(self, rng):
        for _ in range(1000):
            model = random_model(rng)
            x = rng.normal(size=2)
            u = rng.normal(size=1)
            p = qlpv.scheduling(model, x, u)
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) <= 1e-12


class TestStep:
    def test_origin_equilibrium(self, small_model):
        assert qlpv.step(small_model, np.zeros(2), np.zeros(1)) == pytest.approx([0.0, 0.0])

    def test_single_mode_ignores_network(self, rng):
        model = random_model(rng, n_p=1)
        x, u = rng.normal(size=2), rng.normal(size=1)
        expected = model.A[0] @ x + model.B[0] @ u
        assert qlpv.step(model, x, u) == pytest.approx(expected)

    def test_matches_scheduled_mode_sum(self, rng):
        for _ in range(25):
            model = random_model(rng, n_x=3, n_u=2)
            x, u = rng.normal(size=3), rng.normal(size=2)
            p = qlpv.scheduling(model, x, u)
            expected = sum(pi * (Ai @ x + Bi @ u) for pi, Ai, Bi in zip(p, model.A, model.B))
            error = np.abs(qlpv.step(model, x, u) - expected).max()
            assert error <= 1e-14 * np.abs(expected).max()

    def test_step_in_convex_hull_of_modes(self, rng):
        for _ in range(25):
            model = random_model(rng)
            x, u = rng.normal(size=2), rng.normal(size=1)
            nxt = qlpv.step(model, x, u)
            modes = [Ai @ x + Bi @ u for Ai, Bi in zip(model.A, model.B)]
            assert hull_membership_lp(nxt, modes, tol=1e-7)

    def test_output_accessor(self, small_model):
        x = np.array([1.5, -2.0])
        assert qlpv.output(small_model, x) == pytest.approx([1.5])


class TestAugmentedJacobian:
    def test_zero_weights_give_mean_dynamics_block(self, small_model):
        m = small_model
        model = qlpv.ModelParams(A=m.A, B=m.B, W1=0 * m.W1, b1=0 * m.b1,
                                 W2=0 * m.W2, b2=0 * m.b2, C=m.C)
        x, u = np.array([0.4, -1.1]), np.array([0.2])
        J = augmented_jacobian(*qlpv.jacobians(model, x, u)[1:])
        mean_A = sum(model.A) / 3
        assert J[:2, :2] == pytest.approx(mean_A, abs=1e-12)

    def test_bottom_blocks_are_identity(self, small_model):
        J = augmented_jacobian(*qlpv.jacobians(small_model, np.ones(2), np.ones(1))[1:])
        assert np.array_equal(J[2:, 2:], np.eye(42))
        assert np.array_equal(J[2:, :2], np.zeros((42, 2)))

    @pytest.mark.parametrize("n_x,n_u,n_p", SHAPES, ids=SHAPE_IDS)
    def test_matches_central_differences(self, rng, n_x, n_u, n_p):
        for _ in range(100):
            model = random_model(rng, n_x=n_x, n_u=n_u, n_p=n_p)
            x, u = rng.normal(size=n_x), rng.normal(size=n_u)
            theta = model.pack()

            def f_of_zeta(zeta):
                m = model.replace_theta(zeta[n_x:])
                return qlpv.step(m, zeta[:n_x], u)

            J = augmented_jacobian(*qlpv.jacobians(model, x, u)[1:])
            J_fd = central_difference_jacobian(f_of_zeta, np.concatenate([x, theta]))
            scale = max(1.0, np.abs(J_fd).max())
            assert np.abs(J[:n_x] - J_fd).max() / scale < 1e-5

    @pytest.mark.parametrize("T", [0, 1, 7])
    @pytest.mark.parametrize("n_x,n_u,n_p", SHAPES, ids=SHAPE_IDS)
    def test_batch_matches_single_points(self, rng, n_x, n_u, n_p, T):
        for _ in range(10):
            model = random_model(rng, n_x=n_x, n_u=n_u, n_p=n_p)
            x, u = rng.normal(size=(T, n_x)), rng.normal(size=(T, n_u))
            _, fx, ftheta = qlpv.jacobians(model, x, u)
            assert fx.shape == (T, n_x, n_x)
            assert ftheta.shape == (T, n_x, model.n_theta)
            # Relative to each matrix's largest entry: an entry that cancels
            # to near zero may round differently in a batch than alone.
            for t in range(T):
                single = qlpv.jacobians(model, x[t], u[t])[1:]
                for batched, alone in zip((fx[t], ftheta[t]), single):
                    assert np.abs(batched - alone).max() <= 1e-13 * np.abs(alone).max()

    @pytest.mark.parametrize("T", [0, 1, 7])
    @pytest.mark.parametrize("n_x,n_u,n_p", SHAPES, ids=SHAPE_IDS)
    def test_value_equals_step(self, rng, n_x, n_u, n_p, T):
        # The value weights the mode images by p = e / sum(e), where step
        # divides the weighted sum by sum(e): equal up to rounding, in a batch
        # and at a single point.  Relative to the magnitudes summed into the
        # images, |A_i| |x| + |B_i| |u|: an image that cancels to near zero
        # keeps only its rounding.
        for _ in range(50):
            model = random_model(rng, n_x=n_x, n_u=n_u, n_p=n_p)
            x, u = rng.normal(size=(T, n_x)), rng.normal(size=(T, n_u))
            value = qlpv.jacobians(model, x, u)[0]
            assert value.shape == (T, n_x)
            for t in range(T):
                ref = qlpv.step(model, x[t], u[t])
                scale = max((np.abs(A) @ np.abs(x[t]) + np.abs(B) @ np.abs(u[t])).max()
                            for A, B in zip(model.A, model.B))
                alone = qlpv.jacobians(model, x[t], u[t])[0]
                for got in (value[t], alone):
                    assert np.abs(got - ref).max() <= 1e-15 * scale


@pytest.mark.parametrize("n_x,n_u,n_p", SHAPES, ids=SHAPE_IDS)
def test_theta_rows_equal_rows_at_unit_parameters(rng, n_x, n_u, n_p):
    # Column j of mode i's rows is F (A_i w + B_i r) at the model whose theta
    # is the unit vector e_j: one product F[:, k] w_l or F[:, k] r_l, exactly.
    model = random_model(rng, n_x=n_x, n_u=n_u, n_p=n_p)
    F = rng.normal(size=(2 * n_x, n_x))
    points = rng.normal(size=(5, n_x + n_u))
    rows = qlpv.theta_rows(model, F, points)
    assert rows.shape == (n_p, len(points), len(F), model.n_theta)
    for j, e in enumerate(np.eye(model.n_theta)):
        unit = model.replace_theta(e)
        for i in range(n_p):
            ref = (unit.A[i] @ points[:, :n_x].T + unit.B[i] @ points[:, n_x:].T).T @ F.T
            assert np.array_equal(rows[i, :, :, j], ref)


class TestDisturbanceVector:
    def test_zero_budget(self, small_model, paper_template):
        d = qlpv.disturbance_vector(small_model, paper_template, 0.0, np.ones(1))
        assert d == pytest.approx(np.zeros(4))

    def test_elementwise_max_over_modes(self, paper_template):
        model = random_model(np.random.default_rng(0), n_p=2)
        model.B[0][:] = np.array([[0.0], [0.2]])
        model.B[1][:] = np.array([[0.0], [0.4]])
        d = qlpv.disturbance_vector(model, paper_template, 0.3, np.ones(1))
        assert d == pytest.approx([0.0, 0.12, 0.0, 0.12])

    def test_single_mode_exact(self, rng, paper_template):
        model = random_model(rng, n_p=1)
        eps = np.array([0.8])
        d = qlpv.disturbance_vector(model, paper_template, 0.25, eps)
        expected = 0.25 * np.abs(paper_template.F @ model.B[0]) @ eps
        assert d == pytest.approx(expected)

    @pytest.mark.parametrize("beta, eps_u, match", [
        (1.0, np.ones(1), "beta"), (-0.1, np.ones(1), "beta"),
        (0.3, -np.ones(1), "nonnegative")], ids=["beta-one", "beta-negative", "eps_u-negative"])
    def test_budget_out_of_range_rejected(self, small_model, paper_template, beta, eps_u,
                                          match):
        with pytest.raises(ConfigurationError, match=match):
            qlpv.disturbance_vector(small_model, paper_template, beta, eps_u)

    def test_monotone_in_beta(self, rng, paper_template):
        model = random_model(rng)
        eps = np.ones(1)
        prev = qlpv.disturbance_vector(model, paper_template, 0.0, eps)
        for beta in (0.1, 0.2, 0.5, 0.9):
            cur = qlpv.disturbance_vector(model, paper_template, beta, eps)
            assert (cur >= prev - 1e-15).all()
            prev = cur
