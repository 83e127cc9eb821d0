"""Ground-truth two-mass nonlinear spring-damper benchmark plant.

State is (x1, v1, x2, v2): positions and velocities of the driven and the
coupled mass.  Springs are cubic-hardening, dampers combine viscous and
saturating friction terms, and the force input acts on the first mass with
gain 10.  The measured output is the position of the second mass times a
fixed scale.  Integration is classical fixed-step RK4 under zero-order-hold
inputs; input saturation is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError


@dataclass(frozen=True)
class PlantConfig:
    m1: float = 0.1
    m2: float = 0.01
    a: float = 1.0
    b: float = 1.0
    d: float = 0.5
    e: float = 0.5
    v0: float = 0.01
    dt: float = 0.02
    output_scale: float = 2.5

    def __post_init__(self):
        if not (self.m1 > 0 and self.m2 > 0):
            raise ConfigurationError("masses must be positive")
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")
        if not self.v0 > 0:
            raise ConfigurationError("friction velocity scale v0 must be positive")


def spring(cfg: PlantConfig, x: float) -> float:
    return cfg.a * x + cfg.b * x ** 3


def damper(cfg: PlantConfig, v: float) -> float:
    return cfg.d * v + cfg.e * np.tanh(v / cfg.v0)


def derivative(cfg: PlantConfig, state: np.ndarray, u: float) -> np.ndarray:
    """Time derivative (v1, a1, v2, a2) of the coupled two-mass system."""
    x1, v1, x2, v2 = state
    dx = x1 - x2
    dv = v1 - v2
    coupling = spring(cfg, dx) + damper(cfg, dv)
    a1 = (10.0 * u - spring(cfg, x1) - damper(cfg, v1) - coupling) / cfg.m1
    a2 = (-spring(cfg, x2) - damper(cfg, v2) + coupling) / cfg.m2
    return np.array([v1, a1, v2, a2])


def rk4_step(cfg: PlantConfig, state: np.ndarray, u: float) -> np.ndarray:
    """Advance one dt with classical RK4, input held constant over the step."""
    state = np.asarray(state, dtype=float)
    h = cfg.dt
    k1 = derivative(cfg, state, u)
    k2 = derivative(cfg, state + 0.5 * h * k1, u)
    k3 = derivative(cfg, state + 0.5 * h * k2, u)
    k4 = derivative(cfg, state + h * k3, u)
    nxt = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(nxt).all():
        raise DivergenceError(f"plant state diverged: {nxt}")
    return nxt


def measure(cfg: PlantConfig, state: np.ndarray) -> float:
    """Scaled position of the second mass."""
    return cfg.output_scale * float(state[2])

