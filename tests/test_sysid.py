import numpy as np
import pytest

from dualmpc import plant, sysid
from conftest import random_model
from oracles import central_difference_jacobian


@pytest.fixture(scope="module")
def record():
    return sysid.collect_dataset(plant.PlantConfig(), 30, seed=3)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_gradient_matches_central_differences(record, weight_decay):
    params = random_model(np.random.default_rng(5), infnorm=0.6)
    x0 = np.zeros(params.n_x)
    loss, mse, grad = sysid.mse_and_gradient(params, record, x0, weight_decay)

    def loss_only(theta):
        return sysid._loss_only(params.replace_theta(theta), record, x0, weight_decay)[0]

    assert (loss, mse) == pytest.approx(sysid._loss_only(params, record, x0, weight_decay), rel=1e-12)
    jac = central_difference_jacobian(loss_only, params.pack())
    assert np.abs(grad - jac[0]).max() <= 1e-7


def test_fit_is_deterministic(record):
    cfg = sysid.TrainConfig(max_epochs=3)
    first, report = sysid.fit_initial_model(record, cfg, seed=0)
    second, _ = sysid.fit_initial_model(record, cfg, seed=0)
    assert report.epochs == 3
    assert np.array_equal(first.pack(), second.pack())
