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
    loss, mse, grad = sysid.mse_and_gradient(params, data, x0, weight_decay)

    def loss_only(theta):
        return sysid._rollout_loss(params.replace_theta(theta), data, x0, weight_decay)[0]

    expected = sysid._rollout_loss(params, data, x0, weight_decay)[:2]
    assert (loss, mse) == pytest.approx(expected, rel=1e-12)
    jac = central_difference_jacobian(loss_only, params.pack())
    assert np.abs(grad - jac[0]).max() <= 1e-7


def step_loop(params, u_seq, x0):
    """Reference roll-out: qlpv.step one point at a time, up to the record's
    length or the first non-finite state, whichever comes first."""
    states = [np.asarray(x0, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(states) < len(u_seq) and np.isfinite(states[-1]).all():
            states.append(qlpv.step(params, states[-1], u_seq[len(states) - 1]))
    return np.array(states[:len(u_seq)]).reshape(-1, params.n_x)


@pytest.mark.parametrize("T", [0, 1, 30])
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


def test_diverging_rollout_matches_step_loop_then_is_nan():
    # The model of test_diverging_model_gives_inf_loss, whose states overflow.
    params = random_model(np.random.default_rng(1))
    for A in params.A:
        A *= 20.0
    u_seq = sysid.collect_dataset(plant.PlantConfig(), 300, seed=3).u_seq
    xs = sysid.simulate(params, u_seq, np.ones(2))
    ref = step_loop(params, u_seq, np.ones(2))
    k = len(ref)
    assert k < len(u_seq) and not np.isfinite(ref[-1]).all()
    assert np.isfinite(ref[:-1]).all()
    assert np.array_equal(xs[:k - 1], ref[:-1])
    assert np.array_equal(xs[k - 1], ref[-1], equal_nan=True)
    assert np.isnan(xs[k:]).all()


def test_empty_record_is_rejected():
    params = random_model(np.random.default_rng(5))
    data = sysid.IoDataset(u_seq=np.zeros((0, 1)), y_seq=np.zeros((0, 1)))
    for fn in (sysid.simulate_mse, sysid.mse_and_gradient):
        with pytest.raises(ConfigurationError, match="dataset is empty"):
            fn(params, data, np.zeros(2))


def test_one_sample_record_gradient_is_weight_decay():
    # x_0 is fixed, so a single sample's loss depends on theta only through
    # the weight decay.
    params = random_model(np.random.default_rng(5), infnorm=0.6)
    data = sysid.IoDataset(u_seq=[[0.3]], y_seq=[[0.2]])
    theta = params.pack()
    loss, mse, grad = sysid.mse_and_gradient(params, data, np.array([0.5, -1.0]), 1e-3)
    assert mse == pytest.approx(0.3 ** 2, rel=1e-12)
    assert loss == pytest.approx(mse + 1e-3 * theta @ theta, rel=1e-12)
    assert np.array_equal(grad, 2.0 * 1e-3 * theta)


def test_fit_is_deterministic(record):
    cfg = sysid.TrainConfig(max_epochs=3)
    first, report = sysid.fit_initial_model(record, cfg, seed=0)
    second, _ = sysid.fit_initial_model(record, cfg, seed=0)
    assert report.epochs == 3
    assert np.array_equal(first.pack(), second.pack())


@pytest.mark.parametrize("cfg", [sysid.TrainConfig(target=1e9),
                                 sysid.TrainConfig(max_halvings=0)],
                         ids=["target-met", "line-search-fails"])
def test_early_stop_counts_only_accepted_steps(record, cfg):
    _, report = sysid.fit_initial_model(record, cfg, seed=0)
    assert report.epochs == 0
    assert len(report.history) == 1


def test_fit_rolls_out_each_theta_once(record, monkeypatch):
    rolled, built = [], []
    simulate, replace_theta = sysid.simulate, qlpv.ModelParams.replace_theta

    def spy_simulate(params, u_seq, x0):
        rolled.append(params.pack().tobytes())
        return simulate(params, u_seq, x0)

    def spy_replace_theta(self, theta):
        built.append(1)
        return replace_theta(self, theta)

    monkeypatch.setattr(sysid, "simulate", spy_simulate)
    monkeypatch.setattr(qlpv.ModelParams, "replace_theta", spy_replace_theta)
    _, report = sysid.fit_initial_model(record, sysid.TrainConfig(max_epochs=5), 0)
    assert report.epochs == 5
    assert len(set(rolled)) == len(rolled)
    # Every probe builds its candidate with replace_theta, and so does the
    # returned best model.
    probes = len(built) - 1
    assert len(rolled) == 1 + probes


@pytest.mark.parametrize("n_steps", [200, 300])
def test_diverging_model_gives_inf_loss(n_steps):
    # The states of this model grow over tenfold per step: over 200 steps
    # the squared errors overflow, over 300 the states themselves do.  A
    # RuntimeWarning fails the suite, so an unguarded overflow raises here.
    params = random_model(np.random.default_rng(1))
    for A in params.A:
        A *= 20.0
    data = sysid.collect_dataset(plant.PlantConfig(), n_steps, seed=3)
    x0 = np.ones(2)
    assert sysid.simulate_mse(params, data, x0) == np.inf
    assert sysid._rollout_loss(params, data, x0, 1e-3)[:2] == (np.inf, np.inf)
    loss, mse, grad = sysid.mse_and_gradient(params, data, x0, 1e-3)
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


def test_csv_round_trip_is_bit_exact(record):
    again = sysid.IoDataset.from_csv(record.to_csv(), scale=record.scale)
    assert again.u_seq.tobytes() == record.u_seq.tobytes()
    assert again.y_seq.tobytes() == record.y_seq.tobytes()


@pytest.mark.parametrize("n_u,n_y", [(2, 1), (1, 2)])
def test_csv_rejects_vector_records(n_u, n_y):
    data = sysid.IoDataset(u_seq=np.zeros((4, n_u)), y_seq=np.zeros((4, n_y)))
    with pytest.raises(ConfigurationError):
        data.to_csv()


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

    def spy_fit(data, cfg, seed, x0=None):
        decays.append(cfg.weight_decay)
        return fit(data, cfg, seed, x0)

    def gate(*args, **kwargs):
        return len(decays) > failures, {"attempt": len(decays)}

    monkeypatch.setattr(sysid, "fit_initial_model", spy_fit)
    monkeypatch.setattr(sysid, "feasibility_gate", gate)
    return decays


@pytest.mark.parametrize("failures", [0, 1, 3])
def test_retry_ladder_raises_weight_decay_tenfold(record, monkeypatch, failures):
    decays = _gate_failing(monkeypatch, failures)
    cfg = sysid.TrainConfig(max_epochs=1, weight_decay=1e-4)
    _, report = sysid.fit_feasible_model(record, cfg, 0, CONTROLLER, TEMPLATE, Y, EPS_U,
                                         max_retries=3)
    assert decays == pytest.approx([1e-4 * 10.0 ** k for k in range(failures + 1)],
                                   rel=1e-12)
    assert report.weight_decay == decays[-1]
    assert cfg.weight_decay == 1e-4


def test_retry_ladder_gives_up_with_last_diagnostics(record, monkeypatch):
    decays = _gate_failing(monkeypatch, failures=10)
    cfg = sysid.TrainConfig(max_epochs=1)
    with pytest.raises(ConfigurationError, match=r"after 3 attempts.*'attempt': 3"):
        sysid.fit_feasible_model(record, cfg, 0, CONTROLLER, TEMPLATE, Y, EPS_U,
                                 max_retries=2)
    assert len(decays) == 3
