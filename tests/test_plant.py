import numpy as np
import pytest
import scipy.linalg

from dualmpc import plant
from dualmpc.errors import ConfigurationError


CFG = plant.PlantConfig()


def test_paper_parameter_defaults():
    assert (CFG.m1, CFG.m2, CFG.a, CFG.b, CFG.d, CFG.e, CFG.v0) == \
        (0.1, 0.01, 1.0, 1.0, 0.5, 0.5, 0.01)
    assert CFG.dt == 0.02
    assert CFG.output_scale == 2.5


def test_origin_is_equilibrium():
    assert plant.derivative(CFG, np.zeros(4), 0.0) == pytest.approx(np.zeros(4))
    assert plant.rk4_step(CFG, np.zeros(4), 0.0) == pytest.approx(np.zeros(4))


def test_force_only_accelerates_first_mass():
    deriv = plant.derivative(CFG, np.zeros(4), 0.1)
    assert deriv == pytest.approx([0.0, 10.0 * 0.1 / CFG.m1, 0.0, 0.0])
    assert deriv[1] == pytest.approx(10.0)


def test_symmetric_state_kills_coupling():
    state = np.array([0.3, -0.2, 0.3, -0.2])
    deriv = plant.derivative(CFG, state, 0.0)
    # Coupling cancels, each mass sees only its own spring and damper.
    a1 = (-plant.spring(CFG, 0.3) - plant.damper(CFG, -0.2)) / CFG.m1
    a2 = (-plant.spring(CFG, 0.3) - plant.damper(CFG, -0.2)) / CFG.m2
    assert deriv == pytest.approx([-0.2, a1, -0.2, a2])


def halving_difference(state, u, dt):
    half_cfg = plant.PlantConfig(dt=dt / 2)
    full = plant.rk4_step(plant.PlantConfig(dt=dt), state, u)
    halved = plant.rk4_step(half_cfg, plant.rk4_step(half_cfg, state, u), u)
    return np.abs(full - halved).max()


def test_step_halving_error_is_fifth_order():
    # Random state drawn away from the friction kink (|v| >> v0), where the
    # vector field is smooth.  The fastest plant mode sits near -100 1/s, so
    # the O(dt^5) regime needs dt below the control period; at dt=1e-3 the
    # halving difference lands under 1e-8.
    rng = np.random.default_rng(7)
    state = np.concatenate([
        rng.uniform(-0.05, 0.05, size=1), rng.uniform(0.9, 1.1, size=1),
        rng.uniform(-0.05, 0.05, size=1), rng.uniform(0.45, 0.55, size=1),
    ])
    assert halving_difference(state, 0.2, 1e-3) < 1e-8


def test_convergence_order_ratio_is_fourth_order():
    # Richardson ratio approx 2^4 once dt resolves the friction layer.
    state = np.array([0.05, 0.6, -0.03, 0.3])
    d1 = halving_difference(state, 0.1, 1e-3)
    d2 = halving_difference(state, 0.1, 5e-4)
    assert 8.0 < d1 / d2 < 32.0


def test_linear_plant_matches_matrix_exponential():
    cfg = plant.PlantConfig(b=0.0, e=0.0)
    # With b=e=0 the dynamics are x' = A x + B u.
    A = np.zeros((4, 4))
    A[0, 1] = A[2, 3] = 1.0
    A[1, :] = [-(cfg.a + cfg.a) / cfg.m1, -(cfg.d + cfg.d) / cfg.m1,
               cfg.a / cfg.m1, cfg.d / cfg.m1]
    A[3, :] = [cfg.a / cfg.m2, cfg.d / cfg.m2,
               -(cfg.a + cfg.a) / cfg.m2, -(cfg.d + cfg.d) / cfg.m2]
    B = np.array([0.0, 10.0 / cfg.m1, 0.0, 0.0])
    rng = np.random.default_rng(3)
    state = rng.uniform(-0.1, 0.1, size=4)
    u = 0.3
    dt = 2.5e-4  # inside the asymptotic regime of the -100 1/s mode
    M = np.zeros((5, 5))
    M[:4, :4] = A
    M[:4, 4] = B * u
    Phi = scipy.linalg.expm(M * dt)
    exact = Phi[:4, :4] @ state + Phi[:4, 4]
    stepped = plant.rk4_step(plant.PlantConfig(b=0.0, e=0.0, dt=dt), state, u)
    assert np.abs(stepped - exact).max() < 1e-9


def energy(cfg, state):
    """Total mechanical energy including the cubic spring potentials."""
    x1, v1, x2, v2 = state

    def potential(x):
        return 0.5 * cfg.a * x ** 2 + 0.25 * cfg.b * x ** 4

    kinetic = 0.5 * cfg.m1 * v1 ** 2 + 0.5 * cfg.m2 * v2 ** 2
    return kinetic + potential(x1) + potential(x2) + potential(x1 - x2)


def test_energy_dissipates_without_input():
    # Verified at a step size where integration error stays below the 1e-6
    # margin; at the 0.02 control period the saturating friction chatters.
    cfg = plant.PlantConfig(dt=2.5e-4)
    rng = np.random.default_rng(11)
    state = rng.uniform(-0.3, 0.3, size=4)
    e_prev = energy(cfg, state)
    for _ in range(4000):
        state = plant.rk4_step(cfg, state, 0.0)
        e = energy(cfg, state)
        assert e <= e_prev + 1e-6
        e_prev = e


def test_deterministic_stepping():
    state = np.array([0.1, 0.2, -0.1, 0.05])
    a = plant.rk4_step(CFG, state, 0.5)
    b = plant.rk4_step(CFG, state.copy(), 0.5)
    assert np.array_equal(a, b)


def test_measure_scales_second_mass_position():
    assert plant.measure(CFG, np.array([0.0, 0.0, 0.4, 0.0])) == pytest.approx(1.0)


def test_invalid_config_rejected():
    nan = float("nan")
    for bad in ({"m1": -1.0}, {"dt": 0.0}, {"m1": nan}, {"m2": nan}, {"dt": nan}, {"v0": nan}):
        with pytest.raises(ConfigurationError):
            plant.PlantConfig(**bad)
