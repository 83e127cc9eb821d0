import numpy as np
import pytest

from dualmpc import plant, qlpv, sysid, tmpc
from dualmpc.errors import ConfigurationError
from dualmpc.polytope import Hpoly, box_template
from conftest import random_model
from oracles import central_difference_jacobian

# The controller set-up of the benchmark's surrogate loop.
CONTROLLER = tmpc.ControllerConfig()
TEMPLATE = box_template(2, 1)
Y = Hpoly.box(0.8)
EPS_U = np.ones(1)


@pytest.fixture(scope="module")
def record():
    return sysid.collect_dataset(plant.PlantConfig(), 30, seed=3)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize("n_x,n_u,n_p", [(2, 1, 3), (3, 2, 2), (2, 1, 1)],
                         ids=["2-1-3", "3-2-2", "2-1-1"])
def test_gradient_matches_central_differences(record, n_x, n_u, n_p, weight_decay):
    rng = np.random.default_rng(5)
    params = random_model(rng, n_x=n_x, n_u=n_u, n_p=n_p, infnorm=0.6)
    data = record if n_u == 1 else sysid.IoDataset(
        u_seq=rng.uniform(-1.0, 1.0, size=(len(record), n_u)), y_seq=record.y_seq)
    x0 = np.zeros(params.n_x)
    loss, mse, grad, _ = sysid.mse_and_gradient(params, data, x0, weight_decay)

    def loss_only(theta):
        return sysid.mse_and_gradient(params.replace_theta(theta), data, x0, weight_decay)[0]

    theta = params.pack()
    bare = sysid.simulate_mse(params, data, x0)
    assert (loss, mse) == pytest.approx((bare + weight_decay * theta @ theta, bare), rel=1e-12)
    jac = central_difference_jacobian(loss_only, theta)
    assert np.abs(grad - jac[0]).max() <= 1e-7


def step_loop(params, u_seq, x0):
    """Reference roll-out: qlpv.step one point at a time, up to the record's
    length or the first non-finite state, whichever comes first."""
    states = [np.asarray(x0, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(states) < len(u_seq) and np.isfinite(states[-1]).all():
            states.append(qlpv.step(params, states[-1], u_seq[len(states) - 1]))
    return np.array(states[:len(u_seq)]).reshape(-1, params.n_x)


# Record lengths on both sides of the roll-out's chunk boundaries.
CHUNK_EDGES = [sysid._CHUNK - 1, sysid._CHUNK, sysid._CHUNK + 1, 2 * sysid._CHUNK + 1]


@pytest.mark.parametrize("T", [0, 1, 30] + CHUNK_EDGES)
@pytest.mark.parametrize("n_x,n_u,n_p", [(2, 1, 3), (3, 2, 2), (2, 1, 1)],
                         ids=["2-1-3", "3-2-2", "2-1-1"])
def test_rollout_matches_step_loop(n_x, n_u, n_p, T):
    rng = np.random.default_rng(7)
    params = random_model(rng, n_x=n_x, n_u=n_u, n_p=n_p, infnorm=0.6)
    u_seq = rng.uniform(-1.0, 1.0, size=(T, n_u))
    x0 = rng.uniform(-1.0, 1.0, size=n_x)
    xs = sysid.simulate(params, u_seq, x0)
    assert xs.shape == (T, n_x)
    assert np.array_equal(xs, step_loop(params, u_seq, x0))


def test_rollout_of_one_dimensional_input_record():
    rng = np.random.default_rng(7)
    params = random_model(rng)
    u_seq = rng.uniform(-1.0, 1.0, size=30)
    xs = sysid.simulate(params, u_seq, np.ones(2))
    assert np.array_equal(xs, step_loop(params, u_seq, np.ones(2)))
    assert np.array_equal(xs, sysid.simulate(params, u_seq[:, None], np.ones(2)))


def diverging_model():
    """The model of test_diverging_model_gives_inf_loss, whose states overflow."""
    params = random_model(np.random.default_rng(1))
    for A in params.A:
        A *= 20.0
    return params


def assert_step_loop_then_nan(params, u_seq, x0):
    """simulate equals step_loop up to its first non-finite state, which
    comes before the record ends, and every row after it is NaN.  Returns
    the row of that state."""
    xs = sysid.simulate(params, u_seq, x0)
    ref = step_loop(params, u_seq, x0)
    k = len(ref)
    assert k < len(u_seq) and not np.isfinite(ref[-1]).all()
    assert np.isfinite(ref[:-1]).all()
    assert np.array_equal(xs[:k - 1], ref[:-1])
    assert np.array_equal(xs[k - 1], ref[-1], equal_nan=True)
    assert np.isnan(xs[k:]).all()
    return k - 1


def test_diverging_rollout_matches_step_loop_then_is_nan():
    u_seq = sysid.collect_dataset(plant.PlantConfig(), 300, seed=3).u_seq
    assert_step_loop_then_nan(diverging_model(), u_seq, np.ones(2))


@pytest.mark.parametrize("first_bad", [0, sysid._CHUNK - 1, sysid._CHUNK,
                                       2 * sysid._CHUNK - 1])
def test_diverging_rollout_at_chunk_edges(first_bad):
    # Join the trajectory of the test above later, so that its first
    # non-finite state falls on row first_bad: the first or the last row of
    # a chunk.
    params = diverging_model()
    u_seq = sysid.collect_dataset(plant.PlantConfig(), 300, seed=3).u_seq
    ref = step_loop(params, u_seq, np.ones(2))
    start = len(ref) - 1 - first_bad
    assert assert_step_loop_then_nan(params, u_seq[start:], ref[start]) == first_bad


def test_empty_record_is_rejected():
    params = random_model(np.random.default_rng(5))
    data = sysid.IoDataset(u_seq=np.zeros((0, 1)), y_seq=np.zeros((0, 1)))
    for fn in (sysid.simulate_mse, sysid.mse_and_gradient):
        with pytest.raises(ConfigurationError, match="dataset is empty"):
            fn(params, data, np.zeros(2))


def test_fit_of_one_sample_is_rejected():
    data = sysid.IoDataset(u_seq=[[0.3]], y_seq=[[0.2]])
    with pytest.raises(ConfigurationError, match="at least two samples"):
        sysid.fit_initial_model(data, sysid.TrainConfig(max_epochs=1), seed=0)


def test_one_sample_record_gradient_is_weight_decay():
    # x_0 is fixed, so a single sample's loss depends on theta only through
    # the weight decay.
    params = random_model(np.random.default_rng(5), infnorm=0.6)
    data = sysid.IoDataset(u_seq=[[0.3]], y_seq=[[0.2]])
    theta = params.pack()
    loss, mse, grad, _ = sysid.mse_and_gradient(params, data, np.array([0.5, -1.0]), 1e-3)
    assert mse == pytest.approx(0.3 ** 2, rel=1e-12)
    assert loss == pytest.approx(mse + 1e-3 * theta @ theta, rel=1e-12)
    assert np.array_equal(grad, 2.0 * 1e-3 * theta)


def test_fit_is_deterministic(record):
    cfg = sysid.TrainConfig(max_epochs=3)
    first, report = sysid.fit_initial_model(record, cfg, seed=0)
    second, _ = sysid.fit_initial_model(record, cfg, seed=0)
    assert report.epochs == 3
    assert np.array_equal(first.pack(), second.pack())


@pytest.mark.parametrize("constant, value", [("_TARGET_MSE", 1e9), ("_MAX_HALVINGS", 0)],
                         ids=["target-met", "line-search-fails"])
def test_early_stop_counts_only_accepted_steps(record, monkeypatch, constant, value):
    monkeypatch.setattr(sysid, constant, value)
    _, report = sysid.fit_initial_model(record, sysid.TrainConfig(), seed=0)
    assert report.epochs == 0
    assert len(report.history) == 1


def test_fit_rolls_out_each_theta_once(record, monkeypatch):
    rolled, built = [], []
    rollout, replace_theta = sysid._rollout, qlpv.ModelParams.replace_theta

    def spy_rollout(params, u_seq, x0, y_seq=None, sse_bound=np.inf):
        rolled.append(params.pack().tobytes())
        return rollout(params, u_seq, x0, y_seq, sse_bound)

    def spy_replace_theta(self, theta):
        built.append(1)
        return replace_theta(self, theta)

    monkeypatch.setattr(sysid, "_rollout", spy_rollout)
    monkeypatch.setattr(qlpv.ModelParams, "replace_theta", spy_replace_theta)
    _, report = sysid.fit_initial_model(record, sysid.TrainConfig(max_epochs=5), 0)
    assert report.epochs == 5
    assert len(set(rolled)) == len(rolled)
    # Every probe builds its candidate with replace_theta, and so does the
    # returned best model.
    probes = len(built) - 1
    assert len(rolled) == 1 + probes


@pytest.fixture(scope="module")
def twomass_fit():
    """The 40-epoch fit on a 300-step two-mass record, with the arguments and
    step count of every roll-out, and the number of model steps taken."""
    data = sysid.collect_dataset(plant.PlantConfig(), 300, seed=0)
    rollouts, steps = [], []
    mse_and_gradient, step_at = sysid.mse_and_gradient, qlpv._step_at

    def spy_mse_and_gradient(params, data, x0, weight_decay=0.0, accept_below=np.inf):
        out = mse_and_gradient(params, data, x0, weight_decay, accept_below)
        rollouts.append((params, x0, weight_decay, accept_below, out[3]))
        return out

    def spy_step_at(*args):
        steps.append(1)
        return step_at(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sysid, "mse_and_gradient", spy_mse_and_gradient)
        mp.setattr(qlpv, "_step_at", spy_step_at)
        params, report = sysid.fit_initial_model(data, sysid.TrainConfig(max_epochs=40), 0)
    return data, params, report, rollouts, len(steps)


def test_early_rejection_leaves_the_fit_bit_identical(twomass_fit, monkeypatch):
    data, params, report, _, _ = twomass_fit
    # One chunk spans the record: every probe is rolled out in full.
    monkeypatch.setattr(sysid, "_CHUNK", len(data))
    full_params, full_report = sysid.fit_initial_model(
        data, sysid.TrainConfig(max_epochs=40), 0)
    assert report.epochs == full_report.epochs == 40
    assert report.history == full_report.history
    assert np.array_equal(params.pack(), full_params.pack())
    assert report.rollout_steps < full_report.rollout_steps


def test_abandoned_probes_fail_the_armijo_test_in_full(twomass_fit):
    data, _, _, rollouts, _ = twomass_fit
    abandoned = [r for r in rollouts if r[4] < len(data) - 1]
    assert abandoned
    for params, x0, weight_decay, threshold, _ in abandoned:
        loss, _, _, steps = sysid.mse_and_gradient(params, data, x0, weight_decay)
        xs = sysid.simulate(params, data.u_seq, x0)
        assert steps == len(data) - 1 and np.isfinite(xs).all()
        assert not loss <= threshold


def test_gradient_is_taken_only_at_or_below_accept_below(twomass_fit):
    data, _, _, rollouts, _ = twomass_fit
    params, x0, weight_decay, _, _ = rollouts[-1]
    loss, mse, grad, steps = sysid.mse_and_gradient(params, data, x0, weight_decay)
    assert np.isfinite(loss) and grad.any()
    for accept_below in (loss, 2.0 * loss):
        out = sysid.mse_and_gradient(params, data, x0, weight_decay, accept_below)
        assert out[:2] == (loss, mse) and out[3] == steps
        assert np.array_equal(out[2], grad)
    # Inside the rejection margin the roll-out runs in full, but its loss is
    # above accept_below.
    below = np.nextafter(loss, -np.inf)
    out = sysid.mse_and_gradient(params, data, x0, weight_decay, below)
    assert out[:2] == (loss, mse) and out[3] == steps == len(data) - 1
    assert not out[2].any()


def test_rollout_steps_counts_model_steps(twomass_fit):
    _, _, report, rollouts, steps = twomass_fit
    assert report.rollout_steps == steps == sum(r[4] for r in rollouts)
    # 73 full roll-outs of the record without early rejection, each one call
    # of the fit's objective.
    assert report.rollout_steps < 73 * 299
    assert len(rollouts) == 73


@pytest.mark.parametrize("n_steps", [200, 300])
def test_diverging_model_gives_inf_loss(n_steps):
    # The states of this model grow over tenfold per step: over 200 steps
    # the squared errors overflow, over 300 the states themselves do.  A
    # RuntimeWarning fails the suite, so an unguarded overflow raises here.
    params = diverging_model()
    data = sysid.collect_dataset(plant.PlantConfig(), n_steps, seed=3)
    x0 = np.ones(2)
    assert sysid.simulate_mse(params, data, x0) == np.inf
    loss, mse, grad, _ = sysid.mse_and_gradient(params, data, x0, 1e-3)
    assert loss == mse == np.inf
    assert np.array_equal(grad, np.zeros(params.n_theta))


def test_one_sample_vector_record_keeps_its_shape():
    data = sysid.IoDataset(u_seq=np.zeros((1, 2)), y_seq=np.ones((1, 2)))
    assert data.u_seq.shape == data.y_seq.shape == (1, 2)
    assert len(data) == 1
    mixed = sysid.IoDataset(u_seq=np.zeros((1, 2)), y_seq=np.ones((1, 1)))
    assert (mixed.u_seq.shape, mixed.y_seq.shape) == ((1, 2), (1, 1))


@pytest.mark.parametrize("T", [1, 4])
def test_one_dimensional_record_loads_as_columns(T):
    data = sysid.IoDataset(u_seq=np.arange(T, dtype=float), y_seq=np.ones(T))
    assert data.u_seq.shape == data.y_seq.shape == (T, 1)
    assert len(data) == T
    assert np.array_equal(data.u_seq[:, 0], np.arange(T))


@pytest.mark.parametrize("shape", [(), (2, 1, 1)], ids=["scalar", "3-D"])
def test_record_of_other_rank_is_rejected(shape):
    with pytest.raises(ConfigurationError, match=r"\(T,\) or \(T, n\)"):
        sysid.IoDataset(u_seq=np.zeros(shape), y_seq=np.zeros(shape))


@pytest.mark.parametrize("u_seq, y_seq, match", [
    (np.zeros(3), np.zeros(4), "equally long"),
    (np.array([0.0, np.nan]), np.zeros(2), "non-finite"),
    (np.zeros(2), np.array([np.inf, 0.0]), "non-finite"),
], ids=["unequal-lengths", "nan-input", "inf-output"])
def test_inconsistent_or_non_finite_record_is_rejected(u_seq, y_seq, match):
    with pytest.raises(ConfigurationError, match=match):
        sysid.IoDataset(u_seq=u_seq, y_seq=y_seq)


def test_feasibility_gate():
    model = random_model(np.random.default_rng(42), infnorm=0.6, gain=0.25)
    ok, diag = sysid.feasibility_gate(model, CONTROLLER, np.zeros(2), TEMPLATE, Y, EPS_U)
    assert ok and diag["status"] == "optimal"
    # C x0 = 2 lies outside the output set |y| <= 0.8.
    ok, diag = sysid.feasibility_gate(model, CONTROLLER, np.array([2.0, 0.0]),
                                      TEMPLATE, Y, EPS_U)
    assert not ok and diag["status"] != "optimal"


def _gate_failing(monkeypatch, failures):
    """Patch the gate to fail its first ``failures`` calls; return the weight
    decay of every fit that ``fit_feasible_model`` runs."""
    decays = []
    fit = sysid.fit_initial_model

    def spy_fit(data, cfg, seed):
        decays.append(cfg.weight_decay)
        return fit(data, cfg, seed)

    def gate(*args, **kwargs):
        return len(decays) > failures, {"attempt": len(decays)}

    monkeypatch.setattr(sysid, "fit_initial_model", spy_fit)
    monkeypatch.setattr(sysid, "feasibility_gate", gate)
    return decays


@pytest.mark.parametrize("failures", [0, 1, 3])
def test_retry_ladder_raises_weight_decay_tenfold(record, monkeypatch, failures):
    decays = _gate_failing(monkeypatch, failures)
    cfg = sysid.TrainConfig(max_epochs=1, weight_decay=1e-4)
    _, report = sysid.fit_feasible_model(record, cfg, 0, CONTROLLER, TEMPLATE, Y, EPS_U)
    assert decays == pytest.approx([1e-4 * 10.0 ** k for k in range(failures + 1)],
                                   rel=1e-12)
    assert report.weight_decay == decays[-1]
    assert cfg.weight_decay == 1e-4


def test_retry_ladder_rejects_zero_weight_decay(record, monkeypatch):
    # Ten times zero is zero, and the fit is deterministic: every rung of
    # the ladder would refit the same model.
    decays = _gate_failing(monkeypatch, failures=0)
    cfg = sysid.TrainConfig(max_epochs=1, weight_decay=0.0)
    with pytest.raises(ConfigurationError, match="weight_decay > 0"):
        sysid.fit_feasible_model(record, cfg, 0, CONTROLLER, TEMPLATE, Y, EPS_U)
    assert decays == []


@pytest.mark.parametrize("field, value", [("max_epochs", -2), ("weight_decay", -1e-4),
                                          ("weight_decay", float("nan")),
                                          ("weight_decay", float("inf")),
                                          ("max_epochs", 2.5), ("max_epochs", float("inf"))],
                         ids=["negative-epochs", "negative-decay", "nan-decay", "inf-decay",
                              "fractional-epochs", "inf-epochs"])
def test_invalid_train_config_is_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        sysid.TrainConfig(**{field: value})


def test_train_config_accepts_zero_epochs_and_decay(record):
    cfg = sysid.TrainConfig(max_epochs=0, weight_decay=0.0)
    params, report = sysid.fit_initial_model(record, cfg, seed=0)
    assert report.epochs == 0
    assert np.array_equal(params.pack(), sysid.initial_guess(0).pack())


def test_retry_ladder_gives_up_with_last_diagnostics(record, monkeypatch):
    decays = _gate_failing(monkeypatch, failures=10)
    cfg = sysid.TrainConfig(max_epochs=1)
    with pytest.raises(ConfigurationError, match=r"after 4 attempts.*'attempt': 4"):
        sysid.fit_feasible_model(record, cfg, 0, CONTROLLER, TEMPLATE, Y, EPS_U)
    assert len(decays) == 4
